"""billiard2d benchmark: time to solution of CLI tasks and oracle runs.

    python3 perfbench/run.py --workload {tdpt,exact,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
Every operation runs in a fresh interpreter, one at a time, and is timed
from spawn to exit, so import, lazy set-up and the lru_cache tables are paid
as a ``billiard <task>`` user pays them.  A pass runs the workload's fixed
operation list once; passes repeat until about S seconds are used.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; the lines before it report every operation kind by name.
With ``--trace 1`` the run alternates two untraced and two traced passes and
reports the per-layer metrics (see tracer.py); the counts of the two traced
passes must agree exactly, and the tracing overhead is the mean traced pass
minus the mean untraced pass.  Every output is checked (workloads.py); a failed
check, a nonzero exit or a JSON error record on stderr fails the operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ARTIFACT = ROOT / "artifacts" / "fig1_populations.csv"
WORK = ROOT / ".perfbench_work"
SETUP_SPAWNS = 7          # fresh-interpreter imports timed per run
RUN_LIMIT_S = 170.0       # a run must end within 180 s; children are killed past this
WARNING_LINE = re.compile(r"\b\w*Warning: ")
OP_FILES = {"config.txt", "out.csv", "out.csv.json", "stdout.txt", "stderr.txt",
            "params.json", "result.json", "trace.json"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- child processes ------------------------------------------------------------

Spawned = namedtuple("Spawned", "rc wall cpu rss_mb")


class Children:
    """Spawns the operation processes: one at a time, with the benchmark's
    environment, killed once the run's deadline passes."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("BILLIARD_THREADS", None)  # measure the library's defaults
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(WORK)

    def spawn(self, argv, cwd: Path) -> Spawned:
        """Run argv to completion; wall time from spawn to exit, plus its rusage."""
        lock = threading.Lock()
        state = {"done": False}
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)

            def kill():
                with lock:  # never signal a pid that wait4 has already reaped
                    if not state["done"]:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                with lock:
                    state["done"] = True
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Spawned(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0)


def failure_of(rc: int, stderr: str, check) -> str | None:
    """Why an operation failed, or None: exit status, error record, then check."""
    if rc != 0:
        return f"exit status {rc}"
    for line in stderr.splitlines():
        if line.startswith("{"):
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "error" in record:
                return f"error record {line.strip()}"
    try:
        return check()
    except Exception as exc:  # a malformed output fails the operation, not the run
        return f"check raised {type(exc).__name__}: {exc}"


# -- one operation ----------------------------------------------------------------

def run_op(op, opdir: Path, children: Children, earlier: dict, trace: bool):
    from workloads import Output

    opdir.mkdir(parents=True)
    argv = [sys.executable]
    if trace:
        argv += [str(HERE / "child.py"), "--trace", str(opdir / "trace.json")]
    out = Output()
    if op.kind == "cli":
        (opdir / "config.txt").write_text(op.config_text(), encoding="utf-8")
        argv += ["cli"] if trace else ["-m", "billiard2d.cli"]
        argv += [op.task, "--config", "config.txt", "--out", "out.csv"]
        out.csv = opdir / "out.csv"
    else:
        (opdir / "params.json").write_text(json.dumps(op.params), encoding="utf-8")
        if not trace:
            argv.append(str(HERE / "child.py"))
        argv += ["oracle", op.task, "params.json", "result.json"]
    proc = children.spawn(argv, opdir)
    stderr = (opdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")

    def check():
        if op.kind == "oracle":
            out.result = json.loads((opdir / "result.json").read_text(encoding="utf-8"))
        return op.check(out, earlier)

    error = failure_of(proc.rc, stderr, check)
    stray = sorted(p.name for p in opdir.iterdir() if p.name not in OP_FILES)
    if stray and error is None:
        error = f"stray files {stray}"
    summary = None
    if trace and (opdir / "trace.json").exists():
        summary = json.loads((opdir / "trace.json").read_text(encoding="utf-8"))
    if op.key:
        earlier[op.key] = out
    shutil.rmtree(opdir)
    return {"metric": op.metric, "task": op.task, "wall": proc.wall, "cpu": proc.cpu,
            "rss_mb": proc.rss_mb, "error": error, "summary": summary,
            "warnings": len(WARNING_LINE.findall(stderr))}


def run_pass(ops, index: int, children: Children, trace: bool) -> list:
    earlier: dict = {}
    results = []
    for i, op in enumerate(ops):
        res = run_op(op, WORK / f"pass{index}-op{i}-{op.task}", children, earlier, trace)
        if res["error"]:
            print(f"perfbench: {op.metric} ({op.task}) failed: {res['error']}",
                  file=sys.stderr)
        results.append(res)
    return results


# -- set-up, self-check, hygiene -------------------------------------------------------

def setup_times(children: Children) -> list:
    """`import billiard2d` timed inside fresh interpreters, after one untimed
    warm-up that writes the bytecode cache.  Interpreter start-up and `site`
    are left out: they are not the program's, and they drift most with the
    machine's load."""
    code = ("import time; t = time.perf_counter(); import billiard2d; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for i in range(SETUP_SPAWNS + 1):
        where = WORK / f"setup{i}"
        where.mkdir()
        proc = children.spawn([sys.executable, "-c", code], where)
        out = (where / "stdout.txt").read_text(encoding="utf-8")
        shutil.rmtree(where)
        if proc.rc != 0:
            die("`import billiard2d` failed in a fresh interpreter")
        if i:
            times.append(float(out))
    return times


def self_check() -> list:
    """Show that the failure accounting catches what it must; returns problems."""
    from workloads import Output, check_fig1

    where = WORK / "selfcheck"
    where.mkdir()
    problems = []
    good = where / "good.csv"
    shutil.copyfile(ARTIFACT, good)
    lines = good.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    bad = where / "corrupt.csv"
    bad.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n",
                   encoding="utf-8")
    check = check_fig1(ARTIFACT)
    cases = {
        "intact output": (0, "", good, False),
        "corrupted output": (0, "", bad, True),
        "nonzero exit": (1, "", good, True),
        "error record": (0, '{"error": "ValueError", "detail": "x"}\n', good, True),
        "warning only": (0, "cli.py:1: UserWarning: regime\n", good, False),
    }
    for name, (rc, stderr, csv, should_fail) in cases.items():
        failed = failure_of(rc, stderr, lambda csv=csv: check(Output(csv=csv), {})) is not None
        if failed != should_fail:
            verdict = "failed" if failed else "was not counted as a failure"
            problems.append(f"self-check: {name} {verdict}")
    shutil.rmtree(where)
    return problems


def tree_state() -> tuple:
    """Files of the checkout (build caches aside) and the artifacts' digests."""
    skip = {".git", "__pycache__", WORK.name, ".bench_build"}
    files = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        rel = Path(dirpath).relative_to(ROOT)
        files.update(str(rel / f) for f in filenames)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(ARTIFACT.parent.iterdir()) if p.is_file()}
    return files, digests


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None where unreadable.

    Steal is time the hypervisor ran something else while this machine's
    CPUs had work; on a shared host it slows every operation alike.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_pct(before, after) -> float | None:
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def environment() -> dict:
    import numpy
    import scipy

    return {"host": platform.node(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


# -- metrics ------------------------------------------------------------------

def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(workload: str, setup: list, passes: list) -> tuple:
    """Result metrics (BENCHMARK.json end_to_end) and report rows per op kind."""
    from workloads import OP_METRICS

    ops = [r for p in passes for r in p]
    rows = [("setup_s", setup, "s")]
    for metric in OP_METRICS[workload]:
        rows.append((metric, [r["wall"] for r in ops if r["metric"] == metric], "s"))
    walls = [sum(r["wall"] for r in p) for p in passes]
    cpus = [sum(r["cpu"] for r in p) for p in passes]
    rows += [("wall_s", walls, "s"), ("cpu_s", cpus, "s")]
    peak = max(r["rss_mb"] for r in ops)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    return metrics, rows, peak


def per_layer(passes_traced: list, untraced_wall: float) -> tuple:
    """Per-layer metrics from two traced passes; also the count mismatches."""
    from tracer import COUNTERS, LAYER_NAMES

    def aggregate(results):
        layers = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYER_NAMES}
        counts = dict.fromkeys(COUNTERS, 0)
        per_task: dict = {}
        for r in results:
            summ = r["summary"] or {"layers": {}, "counts": {}}
            for name, rec in summ["layers"].items():
                for k in ("calls", "s", "self_s"):
                    layers[name][k] += rec[k]
            for name, n in summ["counts"].items():
                counts[name] += n
            task = per_task.setdefault(r["task"], [0, 0])
            task[0] += summ["layers"].get("oracle.EffectiveOperator.apply", {}).get("calls", 0)
            task[1] += summ["counts"].get("oracle.propagate.steps", 0)
        return layers, counts, per_task

    (l1, c1, t1), (l2, c2, t2) = (aggregate(p) for p in passes_traced)
    mismatches = [n for n in LAYER_NAMES if l1[n]["calls"] != l2[n]["calls"]]
    mismatches += [n for n in COUNTERS if c1[n] != c2[n]]
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = {"value": l1[name]["calls"], "unit": "count"}
        for k in ("s", "self_s"):
            value = 0.5 * (l1[name][k] + l2[name][k])
            metrics[f"{name}.{k}"] = {"value": value, "unit": "s"}
    for name in COUNTERS:
        unit = "B" if name.endswith("bytes_computed") else "count"
        metrics[name] = {"value": c1[name], "unit": unit}

    def ratio(apply_calls, steps):
        return apply_calls / steps if steps else 0.0

    apply_calls = l1["oracle.EffectiveOperator.apply"]["calls"]
    metrics["oracle.apply_per_step"] = {
        "value": ratio(apply_calls, c1["oracle.propagate.steps"]), "unit": "ratio"}
    for task in ("cn_deformed", "cn_pantograph"):
        calls, steps = t1.get(task, (0, 0))
        metrics[f"oracle.apply_per_step.{task}"] = {"value": ratio(calls, steps),
                                                    "unit": "ratio"}
    traced = statistics.mean(sum(r["wall"] for r in p) for p in passes_traced)
    metrics["trace.untraced_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced_wall, "unit": "s"}
    return metrics, mismatches


# -- main -----------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "billiard2d" / "__init__.py").is_file():
        die(f"no billiard2d sources under {SRC}; run from a checkout of the repository")
    if not ARTIFACT.is_file():
        die(f"missing reference {ARTIFACT.relative_to(ROOT)}")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, make_ops

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        die("--seconds must be positive")

    before = tree_state()
    shutil.rmtree(WORK, ignore_errors=True)  # left by an interrupted run
    WORK.mkdir()
    children = Children(time.monotonic() + RUN_LIMIT_S)
    problems = []
    ticks = cpu_ticks()
    try:
        ops = make_ops(args.workload, args.seed, ARTIFACT)
        setup = setup_times(children)
        problems += self_check()
        passes = []
        if args.trace:  # alternate so drift in the machine hits both sides
            passes = [run_pass(ops, i, children, trace=bool(i % 2)) for i in range(4)]
        else:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(ops, len(passes), children, trace=False))
                elapsed = time.perf_counter() - start
                per_pass = elapsed / len(passes)
                if (elapsed + 0.5 * per_pass >= args.seconds
                        or time.monotonic() + per_pass > children.deadline):
                    break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    after = tree_state()
    if after[0] != before[0]:
        problems.append(f"files left in the checkout: {sorted(after[0] ^ before[0])}")
    if after[1] != before[1]:
        problems.append("artifacts/ changed during the run")

    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["error"])
    info = dict(environment(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, passes=len(passes),
                ops_per_pass=len(ops), steal_pct=steal_pct(ticks, cpu_ticks()))
    print("environment " + json.dumps(info, sort_keys=True))
    untraced, traced = (passes[0::2], passes[1::2]) if args.trace else (passes, [])
    metrics, rows, peak = end_to_end(args.workload, setup, untraced)
    print(f"{'metric':<22}{'median':>12}  unit  {'p25':>10}{'p75':>10}   n")
    for name, values, unit in rows:
        q1, q2, q3 = quartiles(values)
        print(f"{name:<22}{q2:>12.4f}  {unit:<4}  {q1:>10.4f}{q3:>10.4f}  {len(values):>2}")
    print(f"{'peak_rss_mb':<22}{peak:>12.1f}  MB")
    print(f"{'fail_ratio':<22}{failed / len(results):>12.4f}  1     ({failed}/{len(results)} "
          f"operations; {sum(r['warnings'] for r in results)} warnings counted, not failed)")
    if args.trace:
        untraced_wall = statistics.mean(sum(r["wall"] for r in p) for p in untraced)
        metrics, mismatches = per_layer(traced, untraced_wall)
        if mismatches:
            problems.append(f"counts differ between the two traced passes: {mismatches}")
        print(f"trace overhead {metrics['trace.overhead_s']['value']:.4f} s "
              f"(traced {metrics['trace.traced_s']['value']:.4f} s, untraced "
              f"{untraced_wall:.4f} s per pass)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(metrics))}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
