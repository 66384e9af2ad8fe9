"""Batch front-end: config parsing, task dispatch, CSV/JSON output.

Tasks: ``modes`` (eigenmode table), ``pantograph`` (exact-evolution phase and
energy trace), ``populations`` (first-order transition probabilities),
``energy-rate`` (contact term vs finite differences), ``validate`` (quick
cross-check suite).  Defaults reproduce the standard parameter set:
epsilon = 0.05, gamma = 5 kappa, hbar = 1, times reported in 1/kappa units.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

# before numpy loads: OpenBLAS worker threads cost a 2-core populations run 0.75
# instead of 0.50 s CPU with no wall-time gain; a caller's own value still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import pantograph, perturbation, specfun
from .domain import BoundaryFunction, DomainSpec, disk_inner_product

__all__ = ["RunConfig", "parse_config", "run", "main"]


@dataclass
class RunConfig:
    mu: float = 1.0
    hbar: float = 1.0
    kappa: float = 0.1
    gamma: float | None = None  # resolved to 5 * kappa when omitted
    epsilon: float = 0.05
    r0: float = 1.0
    m_max: int = 5
    n_max: int = 8
    t_end: float | None = None  # resolved to 5 / kappa when omitted
    n_samples: int = 200
    task: str = "populations"
    initial: tuple = (0, 1)
    targets: list = field(default_factory=list)
    out: str = "billiard_out.csv"

    def resolve(self) -> "RunConfig":
        if self.gamma is None:
            self.gamma = 5.0 * self.kappa
        if self.t_end is None:
            self.t_end = 5.0 / self.kappa
        if not self.targets:
            m0, _ = self.initial
            if m0 == 0:
                self.targets = [(1, 1), (1, 2), (1, 3), (1, 4)]
            else:
                self.targets = [(m0 + 1, 1), (m0 + 1, 2), (m0 - 1, 1), (m0 - 1, 2)]
        return self

    def validate(self):
        for key in sorted(_FLOAT_KEYS):
            v = getattr(self, key)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"config key '{key}' must be finite")
        for key in ("mu", "hbar", "kappa", "gamma", "r0", "t_end"):
            v = getattr(self, key)
            if v is not None and v <= 0:
                raise ValueError(f"config key '{key}' must be positive")
        if self.epsilon < 0:
            raise ValueError("config key 'epsilon' must be >= 0")
        if self.t_end is not None and self.t_end * self.kappa > 100.0:
            raise ValueError("config key 't_end': t_end * kappa > 100 is out of range")
        for key in sorted(_INT_KEYS):
            if getattr(self, key) < 1:
                raise ValueError(f"config key '{key}' must be a positive integer")
        if self.task not in TASKS:
            raise ValueError(f"config key 'task' must be one of {TASKS}")
        if self.initial[1] < 1:
            raise ValueError("config key 'initial': radial index must be >= 1")
        for m, n in self.targets:
            if n < 1:
                raise ValueError("config key 'targets': radial indices must be >= 1")

    def domain_spec(self) -> DomainSpec:
        return DomainSpec(mu=self.mu, hbar=self.hbar, r0=self.r0,
                          kappa=self.kappa, gamma=self.gamma, epsilon=self.epsilon)


# each key's type is declared once, in RunConfig (``from __future__ import
# annotations`` leaves the annotations as strings)
_FLOAT_KEYS = {f.name for f in dataclasses.fields(RunConfig) if f.type.startswith("float")}
_INT_KEYS = {f.name for f in dataclasses.fields(RunConfig) if f.type == "int"}


def _parse_mode(text: str) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected 'm n', got {text!r}")
    return int(parts[0]), int(parts[1])


def parse_config(text: str) -> RunConfig:
    """Parse a line-oriented ``key = value`` document ('#' comments).

    Unknown keys are rejected; errors carry the line number and key name.
    Omitted keys take documented defaults (the standard parameter set).
    """
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        try:
            if key in _FLOAT_KEYS:
                setattr(cfg, key, float(value))
            elif key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key == "task":
                cfg.task = value.lower()
            elif key == "initial":
                cfg.initial = _parse_mode(value)
            elif key == "targets":
                cfg.targets = [_parse_mode(p) for p in value.split(";") if p.strip()]
            elif key == "out":
                cfg.out = value
            else:
                raise ValueError(f"unknown key '{key}'")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    cfg.validate()
    return cfg.resolve()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sidecar(path: Path, cfg: RunConfig) -> None:
    payload = dataclasses.asdict(cfg)  # json writes the mode tuples as arrays
    side = path.with_suffix(path.suffix + ".json")
    side.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _task_modes(cfg: RunConfig, out: Path) -> None:
    spec = cfg.domain_spec()
    rows = []
    for mode in specfun.modes_upto(cfg.m_max, cfg.n_max, spec):
        rows.append((mode.m, mode.n, mode.zero, mode.k, mode.energy, mode.norm))
    _write_csv(out, ["m", "n", "zero", "k", "E", "A"], rows)


def _exact_trace(cfg: RunConfig):
    """The initial mode's exact pantographic evolution on the sample times:
    (spec, mode, times, mean energies, contact energy rates)."""
    spec = cfg.domain_spec()
    mode = specfun.mode_make(*cfg.initial, spec)
    state = pantograph.PantographicState.single(mode)
    times = np.linspace(0.0, cfg.t_end, cfg.n_samples)
    energies = np.array([pantograph.mean_energy(state, spec, t) for t in times])
    rates = np.array([pantograph.energy_rate(state, spec, t) for t in times])
    return spec, mode, times, energies, rates


def _task_pantograph(cfg: RunConfig, out: Path) -> None:
    spec, mode, times, energies, rates = _exact_trace(cfg)
    rows = zip(times * cfg.kappa, pantograph.alpha(spec, times),
               pantograph.beta(mode, spec, times), energies, rates)
    _write_csv(out, ["t", "alpha", "beta", "energy", "energy_rate"], rows)


def _task_populations(cfg: RunConfig, out: Path) -> None:
    spec = cfg.domain_spec()
    initial = specfun.mode_make(*cfg.initial, spec)
    targets = [specfun.mode_make(m, n, spec) for m, n in cfg.targets]
    times = np.linspace(0.0, cfg.t_end, cfg.n_samples)
    table = perturbation.amplitudes(initial, targets, spec, times)
    header = ["t"] + [f"P({m},{n})" for m, n in cfg.targets]
    cols = [table.population(tg) for tg in targets]
    rows = list(zip(times * cfg.kappa, *cols))
    _write_csv(out, header, rows)


def _task_energy_rate(cfg: RunConfig, out: Path) -> None:
    if cfg.n_samples < 3:  # np.gradient(edge_order=2) needs three points
        raise ValueError("config key 'n_samples' must be >= 3 for energy-rate")
    _, _, times, energies, contact = _exact_trace(cfg)
    fd = np.gradient(energies, times[1] - times[0], edge_order=2)
    rows = zip(times * cfg.kappa, energies, contact, fd)
    _write_csv(out, ["t", "energy", "rate_contact", "rate_fd"], rows)


def _task_validate(cfg: RunConfig, out: Path) -> int:
    from . import oracle

    spec = cfg.domain_spec()
    checks = []

    zeros = {(0, 1): 2.404825557695773, (1, 1): 3.831705970207512,
             (0, 2): 5.520078110286311}
    err = max(abs(specfun.bessel_zero(m, n) - v) for (m, n), v in zeros.items())
    checks.append(("bessel zeros vs reference", err, 1e-12))

    modes = specfun.modes_upto(2, 2, spec)
    gram_err = 0.0
    for i, a in enumerate(modes):
        for b in modes[i:]:
            val = disk_inner_product(
                lambda r, th, mo=a: specfun.eigenmode_value(mo, r, th),
                lambda r, th, mo=b: specfun.eigenmode_value(mo, r, th), spec,
                ntheta=abs(a.m - b.m) + 1)  # exact for e^{i (m_b - m_a) theta}
            want = 1.0 if a == b else 0.0
            gram_err = max(gram_err, abs(val - want))
    checks.append(("eigenmode Gram identity", gram_err, 1e-10))

    pair = perturbation.ModePair(source=specfun.mode_make(0, 1, spec),
                                 target=specfun.mode_make(1, 1, spec))
    el = perturbation.element(pair, spec, 1.0).total
    br = oracle.brute_element_integrated(pair, spec, 1.0)
    checks.append(("element vs brute-force sandwich",
                   abs(el - br) / abs(br), 1e-6))

    mode = specfun.mode_make(0, 1, spec)
    bnd = BoundaryFunction.pantographic_from(spec)
    psi0 = oracle.grid_from_sampler(
        lambda r, th: pantograph.phi_exact(mode, spec, r, th, 0.0),
        spec.r0, 96, 16)
    psi = oracle.propagate(
        lambda t: oracle.effective_operator(bnd, spec, t, 96, 16), psi0, 2.0, 0.01)
    fid = abs(oracle.project(psi, mode, spec, 2.0))
    checks.append(("pantographic CN fidelity (coarse grid)", abs(1.0 - fid), 1e-3))

    status = 0
    lines = []
    for name, got, tol in checks:
        ok = got <= tol
        status = status if ok else 1
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {got:.3e} (tol {tol:.0e})"
        print(line)
        lines.append(line)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return status


_RUNNERS = {"modes": _task_modes, "pantograph": _task_pantograph,
            "populations": _task_populations, "energy-rate": _task_energy_rate,
            "validate": _task_validate}
TASKS = tuple(_RUNNERS)  # a tuple, as argparse choices and hypothesis want


def run(cfg: RunConfig) -> int:
    """Execute the configured task; returns a process exit status."""
    cfg.validate()
    cfg.resolve()
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    status = _RUNNERS[cfg.task](cfg, out) or 0
    _write_sidecar(out, cfg)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="billiard",
        description="Quantum particle in a dilating, deforming 2-d box")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", type=Path, default=None,
                        help="line-oriented key = value file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output CSV path (overrides config)")
    args = parser.parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
        cfg = parse_config(text)
        cfg.task = args.task
        if args.out is not None:
            cfg.out = str(args.out)
        return run(cfg)
    except Exception as exc:  # machine-readable error record on stderr
        record = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
