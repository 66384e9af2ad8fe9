import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from billiard2d import oned, oracle
from billiard2d import pantograph as pg
from billiard2d import perturbation as pt
from billiard2d import specfun as sf
from billiard2d.domain import (
    BoundaryFunction,
    DomainSpec,
    disk_inner_product,
    moving_inner_product,
    radius,
    radius_linearized,
    to_fixed,
    to_moving,
)
from test_perturbation import _NanSchedule


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(mu=-1.0)
    with pytest.raises(ValueError):
        DomainSpec(epsilon=-0.01)
    with pytest.raises(ValueError):
        DomainSpec(r0=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["mu", "hbar", "r0", "kappa", "gamma", "epsilon"])
def test_domain_spec_rejects_non_finite_field(name, value):
    # epsilon = nan used to give nan populations; r0 = inf, gamma = inf and
    # kappa = nan failed later with messages about J, F or t
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        DomainSpec(**{name: value})


def test_schedule_limits(deformed_spec):
    assert deformed_spec.g(0.0) == 0.0
    ts = np.linspace(0, 30, 50)
    g = deformed_spec.g(ts)
    assert np.all(np.diff(g) >= 0)
    assert abs(deformed_spec.g(100.0) - 1.0) < 1e-12


def test_radius_circle_limit():
    spec = DomainSpec(kappa=0.07, gamma=0.5, epsilon=0.0)
    for th in (0.0, 1.0, 4.0):
        assert radius(spec, th, 2.0) == pytest.approx(1.14, rel=1e-14)


def test_radius_initial_time(deformed_spec):
    th = np.linspace(0, 2 * math.pi, 7)
    assert np.allclose(radius(deformed_spec, th, 0.0), 1.0, atol=1e-15)


def test_radius_geometric_limit():
    spec = DomainSpec(kappa=0.0, gamma=0.5, epsilon=0.05)
    assert radius(spec, 0.0, 1e6) == pytest.approx(1.0 / 0.95, rel=1e-12)


def test_radius_star_violation_raises():
    spec = DomainSpec(kappa=0.0, gamma=2.0, epsilon=1.2)
    with pytest.raises(ValueError, match="star"):
        radius(spec, 0.0, 50.0)


def test_radius_star_violation_raises_at_any_theta():
    # eps g(3) = 1.43: the wall is not star-shaped, though 1 - eps g cos(theta)
    # is positive at theta = 1 and 2
    spec = DomainSpec(kappa=0.0, gamma=1.0, epsilon=1.5)
    with pytest.raises(ValueError, match=r"not star-shaped at t = 3\.0: \|eps g\| = 1\.42"):
        radius(spec, [1.0, 2.0], 3.0)
    with pytest.raises(ValueError, match=r"not star-shaped at t = 3\.0"):
        radius(spec, 2.0, np.array([0.1, 3.0, 4.0]))
    assert radius(spec, 2.0, 0.1) > 0


def test_radius_negative_lambda_raises():
    spec = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.0)
    with pytest.raises(ValueError, match="lambda"):
        radius(spec, 0.0, -20.0)
    # the shared time check names the first time outside the box's span
    with pytest.raises(ValueError, match="t = nan"):
        radius(spec, 0.0, np.array([1.0, np.nan]))


def test_radius_rejects_a_non_finite_schedule():
    # g is NaN past t = 1: R, the boundary and the moving inner product read
    # nan with no error, while the operator raised on the same schedule
    spec = DomainSpec(kappa=0.1, epsilon=0.05, schedule=_NanSchedule())
    bnd = BoundaryFunction.deformed_from(spec)
    one = lambda r, th: np.ones_like(r)
    for call in (lambda: radius(spec, [0.0, 1.0], 1.5),
                 lambda: radius(spec, 0.0, np.array([0.5, 1.5, 2.0])),
                 lambda: bnd.value(0.0, 1.5),
                 lambda: moving_inner_product(one, one, bnd, 1.5, nr=8, ntheta=8),
                 lambda: radius_linearized(spec, 0.0, 1.5),
                 lambda: oracle.brute_element(_pair(spec), spec, 1.5)):
        with pytest.raises(ValueError, match=r"non-finite boundary eps g or eps gdot at t = 1\.5"):
            call()
    assert np.all(np.isfinite(radius(spec, [0.0, 1.0], 0.5)))


def _pair(spec):
    return pt.ModePair(source=sf.mode_make(0, 1, spec), target=sf.mode_make(1, 1, spec))


# every public entry point that takes a time, called at t on the kappa < 0
# disk (or 1-d box) of the shared span check
TIMED_ENTRY_POINTS = {
    "radius": lambda spec, t: radius(spec, 0.3, t),
    "radius_linearized": lambda spec, t: radius_linearized(spec, 0.3, t),
    "alpha": lambda spec, t: pg.alpha(spec, t),
    "beta": lambda spec, t: pg.beta(sf.mode_make(0, 1, spec), spec, t),
    "xi": lambda spec, t: pt.xi(_pair(spec), spec, t),
    "effective_operator": lambda spec, t: oracle.effective_operator(
        BoundaryFunction.deformed_from(spec), spec, t, 16, 16),
    "brute_element": lambda spec, t: oracle.brute_element(_pair(spec), spec, t),
    "brute_element_integrated": lambda spec, t: oracle.brute_element_integrated(
        _pair(spec), spec, t),
    "fd_energy_rate": lambda spec, t: oracle.fd_energy_rate(
        [oracle.GridWavefunction(np.ones((16, 16)), spec.r0, t + 0.1 * k) for k in range(5)],
        spec),
    "amplitudes": lambda spec, t: pt.amplitudes(
        _pair(spec).source, [_pair(spec).target], spec, [0.0, t]),
    "element": lambda spec, t: pt.element(_pair(spec), spec, t),
    "element_forbidden": lambda spec, t: pt.element(
        pt.ModePair(source=sf.mode_make(0, 1, spec), target=sf.mode_make(2, 1, spec)), spec, t),
    "f_integral": lambda spec, t: pt.f_integral(1, _pair(spec), spec, t),
    "phi_exact": lambda spec, t: pg.phi_exact(sf.mode_make(0, 1, spec), spec, 0.5, 0.0, t),
    "energy_rate": lambda spec, t: pg.energy_rate(
        pg.PantographicState.single(sf.mode_make(0, 1, spec)), spec, t),
    "mean_energy": lambda spec, t: pg.mean_energy(
        pg.PantographicState.single(sf.mode_make(0, 1, spec)), spec, t),
    "apply_h1d": lambda box, t: oned.apply_h1d(box, oned.box_eigenmode_1d(box, 1), t),
    "propagate_1d": lambda box, t: oned.propagate_1d(
        box, oned.box_eigenmode_1d(box, 1), 0.0, t, 0.01),
}


@pytest.mark.parametrize("name", TIMED_ENTRY_POINTS)
def test_every_timed_entry_point_rejects_a_time_past_the_collapse(name):
    # kappa = -0.5: the box collapses at t = 2, and lambda(3) = -0.5.  The
    # brute-force element read -0.028+0.595j there, its time integral never
    # returned, and fd_energy_rate returned the rates of a box of |lambda|
    spec = (oned.Box1DSpec(kappa=-0.5, nx=32) if name in ("apply_h1d", "propagate_1d")
            else DomainSpec(kappa=-0.5, gamma=0.5, epsilon=0.05))
    with pytest.raises(ValueError, match=re.escape("t = 3.0 is outside the box's span")):
        TIMED_ENTRY_POINTS[name](spec, 3.0)


# every public entry point that reads a mode against a spec, called with the
# (0,1) -> (1,1) pair of the r0 = 1 disk on an r0 = 2 spec
_UNIT_DISK = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.05)
OTHER_DISK_ENTRY_POINTS = {
    "amplitudes": lambda spec, pair: pt.amplitudes(pair.source, [pair.target], spec, [0.0, 2.0]),
    "element": lambda spec, pair: pt.element(pair, spec, 2.0),
    "f_integral": lambda spec, pair: pt.f_integral(1, pair, spec, 2.0),
    "w_integral": lambda spec, pair: pt.w_integral(2, pair, spec),
    "phi_exact": lambda spec, pair: pg.phi_exact(pair.source, spec, 0.5, 0.0, 2.0),
    "psi_exact": lambda spec, pair: pg.psi_exact(pair.source, spec, 0.5, 0.0, 2.0),
    "project": lambda spec, pair: oracle.project(
        oracle.GridWavefunction(np.ones((16, 16)), spec.r0, 2.0), pair.source, spec, 2.0),
    "brute_element": lambda spec, pair: oracle.brute_element(pair, spec, 2.0),
}


@pytest.mark.parametrize("name", OTHER_DISK_ENTRY_POINTS)
def test_every_mode_entry_point_rejects_a_mode_of_another_disk(name):
    # with r0 = 1 modes on the r0 = 2 disk, the (0,1) -> (1,1) population at
    # t = 20 read 0.0239 where matching modes give 3.48e-4
    wider = dataclasses.replace(_UNIT_DISK, r0=2.0)
    with pytest.raises(ValueError, match="another r0"):
        OTHER_DISK_ENTRY_POINTS[name](wider, _pair(_UNIT_DISK))
    OTHER_DISK_ENTRY_POINTS[name](wider, _pair(wider))


def test_radius_linearized_first_order(deformed_spec):
    th = np.linspace(0, 2 * math.pi, 13)
    t = 3.0
    exact = radius(deformed_spec, th, t)
    lin = radius_linearized(deformed_spec, th, t)
    assert np.max(np.abs(exact - lin)) < 2.0 * deformed_spec.epsilon**2 * float(
        deformed_spec.lam(t))


def test_star_check_720_grid(deformed_spec):
    th = np.arange(720) * (2 * math.pi / 720)
    for t in np.linspace(0.0, 50.0, 11):
        assert np.all(radius(deformed_spec, th, t) > 0)


def test_boundary_derivatives_match_fd(deformed_spec):
    # the boundary carries its ellipse, and R's time derivative is the closed
    # form in that ellipse's lam, g and their rates
    bnd = BoundaryFunction.deformed_from(deformed_spec)
    assert bnd.spec is deformed_spec
    th = np.linspace(0.3, 5.9, 9)
    t = 2.0
    h = 1e-6
    dt_fd = (bnd.value(th, t + h) - bnd.value(th, t - h)) / (2 * h)
    ell = bnd.spec
    den = 1.0 - ell.epsilon * ell.g(t) * np.cos(th)
    r_dot = ell.lamdot(t) / den + ell.lam(t) * ell.epsilon * ell.gdot(t) * np.cos(th) / den**2
    assert np.max(np.abs(r_dot - dt_fd)) < 1e-8
    # the pantographic boundary is the eps = 0 ellipse, bit for bit
    panto = BoundaryFunction.pantographic_from(deformed_spec)
    assert panto.spec == dataclasses.replace(deformed_spec, epsilon=0.0, gamma=0.0)
    circle = BoundaryFunction.deformed_from(dataclasses.replace(deformed_spec, epsilon=0.0))
    for tt in (0.0, t, 30.0):
        assert np.array_equal(panto.value(th, tt), circle.value(th, tt))


def test_identity_map_for_unit_boundary(unit_spec):
    bnd = BoundaryFunction.pantographic_from(unit_spec)  # R == 1 (kappa = 0)
    mode = sf.mode_make(1, 2, unit_spec)
    psi = lambda r, th: sf.eigenmode_value(mode, r, th)
    phi = to_fixed(psi, bnd, t=1.0)
    r = np.linspace(0.05, 0.95, 11)
    th = np.linspace(0, 6.0, 11)
    assert np.allclose(phi(r, th), psi(r, th), atol=1e-15)


def test_round_trip_identity(deformed_spec):
    bnd = BoundaryFunction.deformed_from(deformed_spec)
    mode = sf.mode_make(2, 1, deformed_spec)
    phi = lambda r, th: sf.eigenmode_value(mode, r, th)
    t = 4.0
    back = to_fixed(to_moving(phi, bnd, t), bnd, t)
    rr, tt = np.meshgrid(np.linspace(0.1, 0.9, 9), np.linspace(0, 6, 9),
                         indexing="ij")
    assert np.max(np.abs(back(rr, tt) - phi(rr, tt))) < 1e-12


def test_pure_dilation_example(unit_spec):
    spec = DomainSpec(kappa=1.0, gamma=0.5, epsilon=0.0)
    bnd = BoundaryFunction.pantographic_from(spec)
    t = 1.0  # R = 2
    mode = sf.mode_make(0, 1, spec)
    phi = lambda r, th: sf.eigenmode_value(mode, r, th)
    psi = to_moving(phi, bnd, t)
    r = np.array([0.3, 0.8, 1.4])
    got = psi(r, 0.0)
    want = sf.eigenmode_value(mode, r / 2.0, 0.0) / 2.0
    assert np.allclose(got, want, atol=1e-14)
    # vanishes on the moving wall r = 2 r0
    assert abs(psi(2.0 * spec.r0, 0.7)) < 1e-12
    assert abs(psi(2.0 * spec.r0 * (1 - 1e-9), 0.7)) < 1e-7


def test_disk_inner_product_counts_every_theta_column():
    # theta-independent integrands come back with one column; all ntheta count
    spec = DomainSpec(r0=1.3)
    area = disk_inner_product(lambda r, th: np.ones_like(r), lambda r, th: np.ones_like(r),
                              spec, nr=32, ntheta=64)
    assert area == pytest.approx(math.pi * 1.3**2, rel=1e-14)


def test_moving_inner_product_integrates_to_the_boundarys_own_wall():
    # r0 comes from boundary.spec: the area of the r0 = 1.3 disk at lambda = 1.2
    bnd = BoundaryFunction.pantographic_from(DomainSpec(r0=1.3, kappa=0.1))
    one = lambda r, th: np.ones_like(r)
    area = moving_inner_product(one, one, bnd, 2.0, nr=16, ntheta=16)
    assert area == pytest.approx(math.pi * (1.2 * 1.3) ** 2, rel=1e-13)


@pytest.mark.parametrize("ntheta", [0, -4])
def test_inner_products_reject_an_empty_angular_rule(ntheta):
    # 0 raised ZeroDivisionError; -4 made moving_inner_product return 0
    spec = DomainSpec()
    bnd = BoundaryFunction.deformed_from(spec)
    one = lambda r, th: np.ones_like(r)
    with pytest.raises(ValueError, match="ntheta"):
        disk_inner_product(one, one, spec, nr=8, ntheta=ntheta)
    with pytest.raises(ValueError, match="ntheta"):
        moving_inner_product(one, one, bnd, 1.0, nr=8, ntheta=ntheta)


@given(epsilon=st.floats(0.0, 0.6), kappa=st.floats(0.01, 0.3),
       t=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1))
@example(epsilon=0.05, kappa=0.1, t=0.0, seed=3)
@example(epsilon=0.05, kappa=0.1, t=2.5, seed=3)
@example(epsilon=0.05, kappa=0.1, t=17.0, seed=3)
def test_unitarity_inner_products(epsilon, kappa, t, seed):
    # fixed-disk inner product == moving-domain inner product for mapped
    # states, for any star-shaped ellipse
    rng = np.random.default_rng(seed)
    spec = DomainSpec(kappa=kappa, gamma=0.5, epsilon=epsilon)
    bnd = BoundaryFunction.deformed_from(spec)
    modes = [sf.mode_make(m, n, spec) for m, n in [(0, 1), (1, 2), (-2, 1), (3, 2)]]

    def make_state():
        c = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        return lambda r, th: sum(ci * sf.eigenmode_value(md, r, th)
                                 for ci, md in zip(c, modes))

    f1, f2 = make_state(), make_state()
    fixed = disk_inner_product(f1, f2, spec, nr=96, ntheta=128)
    moving = moving_inner_product(to_moving(f1, bnd, t), to_moving(f2, bnd, t),
                                  bnd, t, nr=96, ntheta=128)
    assert abs(fixed - moving) < 1e-10 * max(1.0, abs(fixed))


def test_norm_preservation_under_map(deformed_spec):
    bnd = BoundaryFunction.deformed_from(deformed_spec)
    mode = sf.mode_make(1, 1, deformed_spec)
    phi = lambda r, th: sf.eigenmode_value(mode, r, th)
    t = 8.0
    psi = to_moving(phi, bnd, t)
    nrm = moving_inner_product(psi, psi, bnd, t)
    assert abs(nrm - 1.0) < 1e-10
