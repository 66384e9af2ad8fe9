import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from billiard2d import cli


def test_parse_empty_gives_standard_defaults():
    cfg = cli.parse_config("")
    assert cfg.epsilon == 0.05
    assert cfg.gamma == pytest.approx(5.0 * cfg.kappa)
    assert cfg.hbar == 1.0
    assert cfg.task == "populations"
    assert cfg.initial == (0, 1)
    assert cfg.targets == [(1, 1), (1, 2), (1, 3), (1, 4)]
    assert cfg.t_end == pytest.approx(5.0 / cfg.kappa)


def test_parse_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        cli.parse_config("epsilon = -0.1")


def test_parse_rejects_unknown_key_with_line_number():
    # nr, ntheta, dt and the alias output were accepted and read by no task
    for key in ("bogus", "nr", "ntheta", "dt", "output"):
        with pytest.raises(ValueError, match=f"^line 3: unknown key '{key}'$"):
            cli.parse_config(f"mu = 1.0\n# comment\n{key} = 7\n")


def test_parse_rejects_out_of_range_t_end():
    with pytest.raises(ValueError, match="t_end"):
        cli.parse_config("kappa = 1.0\nt_end = 500\n")


@pytest.mark.parametrize("kappa", [0.0, -0.1])
def test_static_or_shrinking_box_rejected(kappa, tmp_path):
    with pytest.raises(ValueError, match="kappa"):
        cli.parse_config(f"kappa = {kappa}\n")
    with pytest.raises(ValueError, match="kappa"):
        cli.run(cli.RunConfig(kappa=kappa, out=str(tmp_path / "x.csv")))


def test_parse_task_and_initial():
    cfg = cli.parse_config("task = populations\ninitial = 0 1\n")
    assert cfg.task == "populations"
    assert cfg.initial == (0, 1)


def test_parse_targets_list_and_comments():
    cfg = cli.parse_config(
        "targets = 1,1; 1,2; -1,1   # three targets\nepsilon = 0.01\n")
    assert cfg.targets == [(1, 1), (1, 2), (-1, 1)]
    assert cfg.epsilon == 0.01


def test_fig2_default_targets():
    cfg = cli.parse_config("initial = 2 1")
    assert cfg.targets == [(3, 1), (3, 2), (1, 1), (1, 2)]


def test_modes_task_row_count(tmp_path):
    out = tmp_path / "modes.csv"
    cfg = cli.parse_config(f"task = modes\nm_max = 2\nn_max = 2\nout = {out}\n")
    assert cli.run(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,n,zero,k,E,A"
    assert len(lines) == 1 + 10  # m in -2..2, n in 1..2
    assert out.with_suffix(".csv.json").exists()
    sidecar = json.loads(out.with_suffix(".csv.json").read_text())
    assert sidecar["m_max"] == 2


def test_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = "task = modes\nm_max = 1\nn_max = 2\n"
    cli.run(cli.parse_config(base + f"out = {out1}\n"))
    cli.run(cli.parse_config(base + f"out = {out2}\n"))
    assert out1.read_bytes() == out2.read_bytes()


def test_populations_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = "task = populations\nn_samples = 4\nt_end = 5\n"
    cli.run(cli.parse_config(base + f"out = {out1}\n"))
    cli.run(cli.parse_config(base + f"out = {out2}\n"))
    assert out1.read_bytes() == out2.read_bytes()


def test_populations_zero_epsilon(tmp_path):
    out = tmp_path / "pops.csv"
    cfg = cli.parse_config(
        f"task = populations\nepsilon = 0\nn_samples = 5\nt_end = 10\nout = {out}\n")
    assert cli.run(cfg) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5, 5)
    assert np.max(np.abs(rows[:, 1:])) == 0.0


def test_populations_default_run_structure(tmp_path):
    out = tmp_path / "pops.csv"
    cfg = cli.parse_config(
        f"task = populations\nn_samples = 8\nt_end = 20\nout = {out}\n")
    assert cli.run(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,P(1,1),P(1,2),P(1,3),P(1,4)"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    # time in 1/kappa units, strictly increasing
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert rows[-1, 0] == pytest.approx(20 * cfg.kappa)
    assert np.all(rows[0, 1:] == 0.0)
    assert np.max(rows[:, 1:]) > 0.0


def test_pantograph_task(tmp_path):
    out = tmp_path / "pan.csv"
    cfg = cli.parse_config(
        f"task = pantograph\nn_samples = 4\nt_end = 5\nepsilon = 0\nout = {out}\n")
    assert cli.run(cfg) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 5
    assert np.all(rows[1:, 4] < 0)  # dilating box loses energy


def test_energy_rate_task(tmp_path):
    out = tmp_path / "er.csv"
    cfg = cli.parse_config(
        f"task = energy-rate\nn_samples = 9\nt_end = 4\nepsilon = 0\nout = {out}\n")
    assert cli.run(cfg) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    # contact column tracks the coarse FD column
    mid = slice(2, -2)
    assert np.allclose(rows[mid, 2], rows[mid, 3], rtol=5e-3)


def test_main_error_is_machine_readable(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("epsilon = -1\n")
    status = cli.main(["modes", "--config", str(cfgfile)])
    assert status == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert "epsilon" in record["detail"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(cli._FLOAT_KEYS))
def test_main_rejects_non_finite_float(key, value, tmp_path, capsys):
    out = tmp_path / "out.csv"
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"m_max = 1\nn_max = 1\n{key} = {value}\n")
    status = cli.main(["modes", "--config", str(cfgfile), "--out", str(out)])
    assert status == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert f"'{key}'" in record["detail"]
    assert not out.exists()


def _main(task, text, tmp_path):
    """cli.main on a config file holding `text`; (status, output path)."""
    out = tmp_path / "out.csv"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    return cli.main([task, "--config", str(cfgfile), "--out", str(out)]), out


def _error_detail(capsys) -> str:
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    return record["detail"]


@pytest.mark.parametrize("task, t_end", [("pantograph", 0.0), ("energy-rate", -5.0),
                                         ("populations", -5.0)])
def test_main_rejects_nonpositive_t_end(task, t_end, tmp_path, capsys):
    # t_end = 0 used to write identical rows, t_end < 0 times running backward
    status, out = _main(task, f"t_end = {t_end}\n", tmp_path)
    assert status == 1
    assert "'t_end'" in _error_detail(capsys)
    assert not out.exists()


@pytest.mark.parametrize("key", ["nr", "ntheta", "dt", "output"])
def test_main_rejects_deleted_key(key, tmp_path, capsys):
    status, out = _main("modes", f"m_max = 1\nn_max = 1\n{key} = 7\n", tmp_path)
    assert status == 1
    assert _error_detail(capsys) == f"line 3: unknown key '{key}'"
    assert not out.exists()


def _readme_defaults() -> str:
    """The 'Keys and defaults' config block of README.md."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    return re.search(r"Keys and defaults.*?```\n(.*?)```", text, re.DOTALL).group(1)


def test_readme_defaults_are_the_default_config():
    block = _readme_defaults()
    keys = [line.partition("=")[0].strip() for line in block.splitlines()]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(cli.RunConfig))
    assert cli.parse_config(block) == cli.parse_config("")


def test_main_energy_rate_writes_n_samples_rows(tmp_path, capsys):
    # fewer than 3 samples leave np.gradient(edge_order=2) nothing to work on
    for n in (1, 2):
        status, out = _main("energy-rate", f"n_samples = {n}\nt_end = 4\n", tmp_path)
        assert status == 1
        assert "'n_samples'" in _error_detail(capsys)
        assert not out.exists()
    status, out = _main("energy-rate", "n_samples = 3\nt_end = 4\n", tmp_path)
    assert status == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1).shape == (3, 4)


def test_main_out_override(tmp_path):
    out = tmp_path / "override.csv"
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text("task = modes\nm_max = 1\nn_max = 1\n")
    status = cli.main(["modes", "--config", str(cfgfile), "--out", str(out)])
    assert status == 0
    assert out.exists()


def _fresh_python(code: str, **env_vars) -> str:
    """stdout of ``code`` run in a new interpreter that imports the package
    from this checkout; OPENBLAS_NUM_THREADS is removed from its environment
    (importing cli here has set it in this process) unless given."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(src), **env_vars)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_cli_import_loads_no_linalg_or_sparse():
    code = ("import sys, billiard2d.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))")
    assert _fresh_python(code) == "[]"


TASK_SCIPY_PROBE = """
import sys
from billiard2d import cli
status = cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
print(status, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("task", ["modes", "pantograph", "populations", "energy-rate",
                                  "validate"])
def test_cli_tasks_load_scipy_only_for_validate(task, tmp_path):
    # no task loads scipy, validate included: J and its zeros come from the
    # C library's jn, and the CN oracle takes LAPACK from numpy's own OpenBLAS
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n_samples = 4\nt_end = 5\nm_max = 2\nn_max = 2\n"
                       "targets = 1,1\n", encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", TASK_SCIPY_PROBE, task, str(cfgfile), str(tmp_path / "o.csv")],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True, capture_output=True,
        text=True, timeout=120)
    status, _, loaded = out.stdout.strip().splitlines()[-1].partition(" ")
    assert status == "0", out.stderr
    assert loaded == "[]"


THREADS_PROBE = """
import json, os, sys
import billiard2d
package_loads_numpy = "numpy" in sys.modules
import billiard2d.cli, billiard2d.oracle
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps([package_loads_numpy, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def test_cli_runs_openblas_on_one_thread_unless_told_otherwise():
    # the CLI sets the default before numpy and its OpenBLAS load, so the
    # library, which the CN oracle's LAPACK calls too, starts no worker thread
    package_loads_numpy, value, threads = json.loads(_fresh_python(THREADS_PROBE))
    assert not package_loads_numpy
    assert value == "1"
    assert threads in (None, 1)
    # a caller's own setting wins
    _, value, _ = json.loads(_fresh_python(THREADS_PROBE, OPENBLAS_NUM_THREADS="3"))
    assert value == "3"


@st.composite
def config_texts(draw):
    """A config document over a random subset of the keys, all values valid."""
    values = {
        "mu": draw(st.floats(1e-3, 1e3)),
        "hbar": draw(st.floats(1e-3, 1e3)),
        "kappa": draw(st.floats(1e-3, 10.0)),
        "gamma": draw(st.floats(1e-3, 1e3)),
        "epsilon": draw(st.floats(0.0, 0.5)),
        "r0": draw(st.floats(1e-3, 1e3)),
        "m_max": draw(st.integers(1, 20)),
        "n_max": draw(st.integers(1, 20)),
        "n_samples": draw(st.integers(1, 1000)),
        "task": draw(st.sampled_from(cli.TASKS)),
        "initial": "{} {}".format(draw(st.integers(-9, 9)), draw(st.integers(1, 9))),
        "targets": "; ".join(f"{m},{n}" for m, n in draw(st.lists(
            st.tuples(st.integers(-9, 9), st.integers(1, 9)), max_size=4))),
        "out": draw(st.sampled_from(["a.csv", "runs/b.csv", "c"])),
    }
    keys = draw(st.lists(st.sampled_from(sorted(values) + ["t_end"]), unique=True))
    # t_end * kappa <= 100, with the kappa in effect
    kappa = values["kappa"] if "kappa" in keys else cli.RunConfig.kappa
    values["t_end"] = draw(st.floats(1e-3, 99.0)) / kappa
    lines = [f"{k} = {values[k]!r}" if isinstance(values[k], float)
             else f"{k} = {values[k]}" for k in keys]
    return "\n".join(lines) + "\n"


@given(text=config_texts())
def test_sidecar_round_trips_the_resolved_config(text):
    cfg = cli.parse_config(text)
    with tempfile.TemporaryDirectory() as where:
        out = Path(where) / "out.csv"
        cli._write_sidecar(out, cfg)
        payload = json.loads(out.with_suffix(".csv.json").read_text(encoding="utf-8"))
    payload["initial"] = tuple(payload["initial"])
    payload["targets"] = [tuple(t) for t in payload["targets"]]
    assert cli.RunConfig(**payload) == cfg


def test_committed_fig1_sidecar_is_a_config_the_cli_accepts():
    # the sidecar kept nr, ntheta and dt after the CLI deleted those keys
    side = Path(__file__).resolve().parents[1] / "artifacts" / "fig1_populations.csv.json"
    payload = json.loads(side.read_text(encoding="utf-8"))
    assert set(payload) <= {f.name for f in dataclasses.fields(cli.RunConfig)}
    payload["initial"] = tuple(payload["initial"])
    payload["targets"] = [tuple(t) for t in payload["targets"]]
    fig1 = cli.parse_config("n_samples = 51\nout = artifacts/fig1_populations.csv\n")
    assert cli.RunConfig(**payload) == fig1
