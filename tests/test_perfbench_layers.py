"""The benchmark's tracer wraps library functions by name and reads some of
their positional arguments; a rename or reordering would silently blank a
per-layer row of the benchmark report.  perfbench/tracer.py is loaded by
file path and only read."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# leading positional parameters each counted layer's work count reads;
# None where only the position matters
COUNTED_PARAMS = {
    "specfun.bessel_j_all": ("nmax", "x"),
    "specfun.adaptive_quad_vec": ("f",),
    "perturbation.amplitudes": ("initial", "targets", "spec", "times"),
    "oracle.propagate": ("op_factory", "psi0", "t1", "dt"),
    "oracle.EffectiveOperator.apply": ("self", None),
    "oned.propagate_1d": ("spec", "phi", "t0", "t1", "dt"),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, path):
    owner = importlib.import_module(f"billiard2d.{modname}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_layer_resolves(tracer):
    for modname, path in tracer.LAYERS:
        assert callable(_resolve(modname, path)), f"{modname}.{path}"


def test_counted_layers_keep_their_positional_parameters(tracer):
    assert set(tracer._COUNTED) == set(COUNTED_PARAMS)
    layers = {f"{mod}.{path}": (mod, path) for mod, path in tracer.LAYERS}
    for layer, want in COUNTED_PARAMS.items():
        params = list(inspect.signature(_resolve(*layers[layer])).parameters.values())
        assert len(params) >= len(want), layer
        for param, name in zip(params, want):
            assert param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD), layer
            assert name is None or param.name == name, (layer, param.name, name)
