"""Module settings have one home each and are read there at call time."""

import ast
import re
from pathlib import Path

import pytest

from billiard2d import pantograph as pg
from billiard2d import perturbation as pt
from billiard2d import specfun as sf
from billiard2d.domain import DomainSpec

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "billiard2d"
_SETTING = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _module_settings(tree: ast.Module) -> set:
    """Names of the module-level ALL_CAPS assignments."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and _SETTING.fullmatch(target.id)}


def test_no_module_binds_another_modules_setting():
    # a `from .specfun import RADIAL_QUAD_POINTS` binding is a copy: patching
    # specfun's setting moved neither W nor mean_energy
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    settings = {name: _module_settings(tree) for name, tree in trees.items()}
    bound = [f"{name}: from .{node.module} import {alias.name}"
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module in settings
             for alias in node.names if alias.name in settings[node.module]]
    assert "RADIAL_QUAD_POINTS" in settings["specfun"]
    assert bound == []


def test_radial_quad_points_is_read_by_w_and_mean_energy(monkeypatch):
    spec = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.05)
    pair = pt.ModePair(source=sf.mode_make(0, 1, spec), target=sf.mode_make(1, 2, spec))
    state = pg.PantographicState.superposition(
        [sf.mode_make(0, 1, spec), sf.mode_make(1, 1, spec)], [0.8, 0.6j])

    def read():
        return pt._w_values(pair, spec), pg.mean_energy(state, spec, 3.0)

    assert sf.RADIAL_QUAD_POINTS == 128
    w128, e128 = read()
    monkeypatch.setattr(sf, "RADIAL_QUAD_POINTS", 256)
    w256, e256 = read()
    assert w256 != w128
    assert e256 != e128
    assert e256 == pytest.approx(e128, rel=1e-12)


def test_version_has_one_home_in_the_package():
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "billiard2d.__version__"}
