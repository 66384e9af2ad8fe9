"""Run one benchmark operation in this (fresh) interpreter.

    python child.py [--trace SUMMARY.json] cli <task> --config C --out O
    python child.py [--trace SUMMARY.json] oracle <op> PARAMS.json RESULT.json

``cli`` hands the remaining arguments to ``billiard2d.cli.main``, exactly as
the ``billiard`` command does.  ``oracle`` runs one of the brute-force oracle
operations below through the public library API (there is no CLI task for
them) and writes its numbers to RESULT.json for the parent to check.  With
``--trace`` the layers in `tracer.LAYERS` are wrapped first and their summary
is written to SUMMARY.json when the operation ends.
"""

from __future__ import annotations

import json
import sys

import numpy as np


def _spec(p):
    from billiard2d.domain import DomainSpec

    kappa = p["kappa"]
    return DomainSpec(mu=p.get("mu", 1.0), hbar=p.get("hbar", 1.0), r0=p.get("r0", 1.0),
                      kappa=kappa, gamma=5.0 * kappa, epsilon=p.get("epsilon", 0.0))


def _grid_of(mode, spec, nr, ntheta, t):
    from billiard2d import oracle, pantograph

    return oracle.grid_from_sampler(
        lambda r, th: pantograph.phi_exact(mode, spec, r, th, t), spec.r0, nr, ntheta,
        time=t)


def cn_deformed(p):
    """CN on the exact ellipse from (0,1) against TDPT populations (criterion 6)."""
    from billiard2d import oracle, perturbation, specfun
    from billiard2d.domain import BoundaryFunction

    spec = _spec(p)
    initial = specfun.mode_make(0, 1, spec)
    targets = [specfun.mode_make(m, n, spec) for m in (1, -1) for n in range(1, 5)]
    times = np.linspace(0.0, p["t_end"], p["checkpoints"] + 1)
    table = perturbation.amplitudes(initial, targets, spec, times)
    bnd = BoundaryFunction.deformed_from(spec)
    nr, ntheta = p["nr"], p["ntheta"]

    def factory(t):
        return oracle.effective_operator(bnd, spec, t, nr, ntheta)

    psi = _grid_of(initial, spec, nr, ntheta, 0.0)
    p_cn, p_tdpt = [], []
    for i, t in enumerate(times[1:], start=1):
        psi = oracle.propagate(factory, psi, float(t), p["dt"])
        p_cn.append([abs(oracle.project(psi, tg, spec, float(t))) ** 2 for tg in targets])
        p_tdpt.append([float(table.population(tg)[i]) for tg in targets])
    return {"p_cn": p_cn, "p_tdpt": p_tdpt}


def cn_pantograph(p):
    """CN under pure dilation against the exact solution phi_exact (criterion 3)."""
    from billiard2d import oracle, specfun
    from billiard2d.domain import BoundaryFunction

    spec = _spec(p)
    mode = specfun.mode_make(*p["mode"], spec)
    bnd = BoundaryFunction.pantographic_from(spec)
    nr, ntheta = p["nr"], p["ntheta"]
    psi = _grid_of(mode, spec, nr, ntheta, 0.0)
    psi = oracle.propagate(
        lambda t: oracle.effective_operator(bnd, spec, t, nr, ntheta), psi, p["t_end"],
        p["dt"])
    ref = _grid_of(mode, spec, nr, ntheta, p["t_end"])
    return {"fidelity": abs(ref.inner(psi)) / (ref.norm() * psi.norm())}


def brute_element(p):
    """Space-time quadrature of the sandwich against the assembled element."""
    from billiard2d import oracle, perturbation, specfun

    spec = _spec(p)
    rows = []
    for (ms, ns), (mt, nt) in p["pairs"]:
        pair = perturbation.ModePair(source=specfun.mode_make(ms, ns, spec),
                                     target=specfun.mode_make(mt, nt, spec))
        el = perturbation.element(pair, spec, p["t"]).total
        br = oracle.brute_element_integrated(pair, spec, p["t"],
                                             abs_tol=max(1e-7 * abs(el), 1e-12))
        rows.append([el.real, el.imag, br.real, br.imag])
    return {"elements": rows}


def cn_1d(p):
    """CN for the 1-d dilating box; the norm must be conserved."""
    from billiard2d import oned

    spec = oned.Box1DSpec(x0=p["x0"], kappa=p["kappa"], nx=p["nx"])
    x = oned.grid_1d(spec)
    phi0 = oned.box_eigenmode_1d(spec, p["n"]) * np.exp(
        1j * spec.mu * spec.kappa / (2.0 * spec.hbar) * x**2)
    phi = oned.propagate_1d(spec, phi0, 0.0, p["t_end"], p["dt"])
    return {"norm0": float(np.vdot(phi0, phi0).real * spec.dx),
            "norm1": float(np.vdot(phi, phi).real * spec.dx)}


ORACLE_OPS = {f.__name__: f for f in (cn_deformed, cn_pantograph, brute_element, cn_1d)}


def _run(argv) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "cli":
        from billiard2d import cli

        return cli.main(rest)
    if kind == "oracle":
        op, params_path, result_path = rest
        with open(params_path, encoding="utf-8") as fh:
            params = json.load(fh)
        try:
            result = ORACLE_OPS[op](params)
        except Exception as exc:  # same error record as the CLI
            print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
                  file=sys.stderr)
            return 1
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    raise SystemExit(f"unknown operation kind {kind!r}")


def main(argv) -> int:
    if argv[:1] != ["--trace"]:
        return _run(argv)
    import tracer

    summary_path, argv = argv[1], argv[2:]
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        return _run(argv)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tr.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
