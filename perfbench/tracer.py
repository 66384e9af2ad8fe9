"""Spans and work counts around the public billiard2d functions.

`install()` wraps each function in LAYERS in every billiard2d module that
binds it (``perturbation`` and ``oracle`` import ``adaptive_quad_vec`` by
name, so patching ``specfun`` alone would miss their calls).  Spans are kept
in memory; `Tracer.summary()` turns them into per-layer call counts,
inclusive time and self time.  Self time is a span's duration minus the part
of its interval that its child spans cover, so work the amplitude thread pool
does in parallel is not subtracted twice.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

MODULES = ("specfun", "domain", "pantograph", "perturbation", "oracle", "oned", "cli")

# (module, attribute path) of every wrapped layer, in report order
LAYERS = (
    ("specfun", "bessel_zero"),
    ("specfun", "mode_make"),
    ("specfun", "bessel_j_all"),
    ("specfun", "adaptive_quad_vec"),
    ("specfun", "gauss_legendre"),
    ("domain", "disk_inner_product"),
    ("domain", "radius"),
    ("pantograph", "mean_energy"),
    ("pantograph", "energy_rate"),
    ("pantograph", "phi_exact"),
    ("perturbation", "amplitudes"),
    ("perturbation", "w_integral"),
    ("perturbation", "element"),
    ("oracle", "propagate"),
    ("oracle", "EffectiveOperator.apply"),
    ("oracle", "EffectiveOperator.mean_blocks"),
    ("oracle", "effective_operator"),
    ("oracle", "project"),
    ("oracle", "brute_element"),
    ("oned", "propagate_1d"),
    ("cli", "parse_config"),
    ("cli", "run"),
)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)

# work counts recorded at the same boundaries
COUNTERS = (
    "specfun.bessel_j_all.values",
    "specfun.adaptive_quad_vec.nodes",
    "perturbation.amplitudes.rows",
    "perturbation.regime_warnings",
    "oracle.propagate.steps",
    "oracle.EffectiveOperator.apply.bytes_computed",
    "oned.propagate_1d.steps",
)


def _steps(t0: float, t1: float, dt: float) -> int:
    """Step count of the library's CN propagators: max(1, round(span / dt))."""
    span = t1 - t0
    return max(1, round(span / dt)) if span > 0 else 0


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._lock = threading.Lock()
        self.spans: list = []  # (span id, parent id, layer, start, end)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += int(n)

    def span(self, layer: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]  # pool worker: caused by the spawning call
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, layer, start, end))

    def summary(self) -> dict:
        children: dict = {}
        for sid, parent, _, start, end in self.spans:
            if parent:
                children.setdefault(parent, []).append((start, end))
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYER_NAMES}
        for sid, _, layer, start, end in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            rec = out[layer]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += max(end - start - covered, 0.0)
        return {"layers": out, "counts": dict(self.counts)}


def _work_counts(tracer: Tracer, layer: str, fn, args, kwargs):
    """Call `fn`, recording the layer's work counts around it."""
    if layer == "specfun.bessel_j_all":
        nmax, x = args[0], args[1]
        tracer.count("specfun.bessel_j_all.values", (nmax + 1) * np.size(x))
    elif layer == "specfun.adaptive_quad_vec":
        f = args[0]

        def counted(s):
            tracer.count("specfun.adaptive_quad_vec.nodes", np.size(s))
            return f(s)

        args = (counted,) + tuple(args[1:])
    elif layer == "perturbation.amplitudes":
        targets = list(args[1])
        args = (args[0], targets) + tuple(args[2:])
        tracer.count("perturbation.amplitudes.rows",
                     len(targets) * np.size(args[3]))
    elif layer == "oracle.propagate":
        tracer.count("oracle.propagate.steps", _steps(args[1].time, args[2], args[3]))
    elif layer == "oracle.EffectiveOperator.apply":
        tracer.count("oracle.EffectiveOperator.apply.bytes_computed", 2 * args[1].nbytes)
    elif layer == "oned.propagate_1d":
        tracer.count("oned.propagate_1d.steps", _steps(args[2], args[3], args[4]))
    result = fn(*args, **kwargs)
    if layer == "perturbation.amplitudes" and not result.regime_ok:
        tracer.count("perturbation.regime_warnings", 1)
    return result


# layers whose work counts read positional arguments
_COUNTED = frozenset(("specfun.bessel_j_all", "specfun.adaptive_quad_vec",
                      "perturbation.amplitudes", "oracle.propagate",
                      "oracle.EffectiveOperator.apply", "oned.propagate_1d"))


def _rebind(mods, old, new) -> None:
    """Point every module-level name bound to `old` at `new`."""
    for mod in mods:
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)


def install(tracer: Tracer) -> None:
    """Wrap every layer in every billiard2d module; report those not found."""
    mods = {name: importlib.import_module(f"billiard2d.{name}") for name in MODULES}
    missing = []

    def make_wrapper(layer, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if kwargs and layer in _COUNTED:  # counts read positional slots
                bound = signature.bind(*args, **kwargs)
                args, kwargs = bound.args, bound.kwargs
            return tracer.span(layer, _work_counts, (tracer, layer, fn, args, kwargs), {})

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    for (modname, path), layer in zip(LAYERS, LAYER_NAMES):
        owner = mods[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(layer)
            continue
        wrapper = make_wrapper(layer, fn)
        if outer:  # a method: patch the class once
            setattr(owner, attr, wrapper)
        else:
            _rebind(mods.values(), fn, wrapper)

    # the deformation-regime check warns under the same condition it reports
    domain = mods["domain"]
    check = getattr(domain, "check_deformation_regime", None)
    if check is not None:
        def regime(spec, t_max):
            level = check(spec, t_max)
            if level > domain.DEFORMATION_WARN_LEVEL:
                tracer.count("perturbation.regime_warnings", 1)
            return level

        _rebind(mods.values(), check, regime)
    if missing:
        print(f"tracer: layers not found: {', '.join(missing)}", file=sys.stderr)
