import dataclasses
import json
import math
import os
import re
from functools import lru_cache
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from billiard2d import oracle
from billiard2d import pantograph as pg
from billiard2d import perturbation as pt
from billiard2d import specfun as sf
from billiard2d.domain import BoundaryFunction, DomainSpec, radius, to_moving
from test_cli import _fresh_python
from test_perturbation import _NanSchedule


def sample_mode(mode, spec, t, nr, ntheta):
    return oracle.grid_from_sampler(
        lambda r, th: pg.phi_exact(mode, spec, r, th, t), spec.r0, nr, ntheta,
        time=t)


def pantographic_factory(spec, nr, ntheta):
    bnd = BoundaryFunction.pantographic_from(spec)
    return lambda t: oracle.effective_operator(bnd, spec, t, nr, ntheta)


def deformed_factory(spec, nr, ntheta):
    bnd = BoundaryFunction.deformed_from(spec)
    return lambda t: oracle.effective_operator(bnd, spec, t, nr, ntheta)


def test_grid_geometry_and_dirichlet_row(unit_spec):
    g = oracle.GridWavefunction(np.ones((32, 16), dtype=complex), 1.0)
    assert g.values[-1].max() == 0.0  # boundary row pinned
    r = g.radii()
    assert r[0] == pytest.approx(0.5 * g.dr)
    assert r[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="even"):
        oracle.GridWavefunction(np.ones((32, 15), dtype=complex), 1.0)


def test_grid_wavefunction_leaves_caller_array_alone():
    vals = np.ones((32, 16), dtype=complex)
    g = oracle.GridWavefunction(vals, 1.0)
    assert g.values[-1].max() == 0.0
    assert np.all(vals == 1.0)  # the Dirichlet row is zeroed on a copy


def test_grid_norm_of_sampled_mode(unit_spec):
    # midpoint-rule bias is O(dr^2); verify level and scaling
    mode = sf.mode_make(0, 1, unit_spec)
    b256 = sample_mode(mode, unit_spec, 0.0, 256, 16).norm() - 1.0
    b512 = sample_mode(mode, unit_spec, 0.0, 512, 16).norm() - 1.0
    assert abs(b256) < 3e-6
    assert 3.0 < b256 / b512 < 5.0


def test_apply_heff_static_eigenmode_residual(unit_spec):
    mode = sf.mode_make(0, 1, unit_spec)
    nr = 256
    psi = sample_mode(mode, unit_spec, 0.0, nr, 16)
    op = pantographic_factory(unit_spec, nr, 16)(0.0)
    hpsi = oracle.apply_heff(op, psi)
    resid = hpsi.values - mode.energy * psi.values
    rel = np.linalg.norm(resid) / np.linalg.norm(mode.energy * psi.values)
    assert rel < 1e-3


def test_apply_heff_rejects_coarse_grid(unit_spec):
    with pytest.raises(ValueError, match="coarse"):
        oracle.effective_operator(
            BoundaryFunction.pantographic_from(unit_spec), unit_spec, 0.0, 8, 16)
    op = pantographic_factory(unit_spec, 32, 16)(0.0)
    bad = oracle.GridWavefunction(np.zeros((16, 16), complex), 1.0)
    with pytest.raises(ValueError, match="mismatch"):
        oracle.apply_heff(op, bad)


@pytest.mark.parametrize("shape, r0", [((32, 16), 2.0), ((48, 16), 1.0), ((32, 20), 1.0)])
def test_inner_rejects_a_field_on_another_grid(shape, r0):
    # with r0 = 2 against r0 = 1 the weights were the caller's: 3.04 one way, 12.17 the other
    a = oracle.GridWavefunction(np.ones((32, 16)), 1.0)
    b = oracle.GridWavefunction(np.ones(shape), r0)
    other = re.escape(str((*shape, r0)))
    with pytest.raises(ValueError, match=rf"\(32, 16, 1\.0\) and {other}"):
        a.inner(b)
    with pytest.raises(ValueError, match=rf"{other} and \(32, 16, 1\.0\)"):
        b.inner(a)


def test_project_rejects_a_state_on_another_disk():
    # the (0,1) state of the r0 = 1 disk read 0.715 on the r0 = 2 (0,1) mode
    small, large = DomainSpec(r0=1.0), DomainSpec(r0=2.0)
    psi = sample_mode(sf.mode_make(0, 1, small), small, 0.0, 64, 16)
    with pytest.raises(ValueError, match=r"\(64, 16, 2\.0\) and \(64, 16, 1\.0\)"):
        oracle.project(psi, sf.mode_make(0, 1, large), large, 0.0)


def test_project_rejects_a_time_other_than_the_fields():
    # on 128 x 16, a (0,1) field at t = 1 projected with t = 2 read 1.0000186
    # in place of 1.0000190, with no error
    spec = DomainSpec(kappa=0.1, gamma=0.5)
    mode = sf.mode_make(0, 1, spec)
    psi = sample_mode(mode, spec, 1.0, 128, 16)
    with pytest.raises(ValueError, match=r"t = 2\.0 of a field at time 1\.0"):
        oracle.project(psi, mode, spec, 2.0)
    assert abs(oracle.project(psi, mode, spec, 1.0)) == pytest.approx(1.0000190, abs=1e-7)


def test_h3_vanishes_for_pantographic_boundary(dilating_spec):
    op = pantographic_factory(dilating_spec, 64, 16)(3.0)
    # H1 (profile 0: lap and the d_theta^2 / r^2 part) and a constant H2
    # (dil) only: no H3 profile, no Delta m coupling and no rest
    assert op.scales[1:] == (0.0, 0.0) and np.ndim(op.dil) == 0 and op.theta_constant
    rng = np.random.default_rng(0)
    psi = oracle.GridWavefunction(
        rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16)), 1.0, 3.0)
    # circle through the deformed constructor (epsilon = 0): eps g = 0, so it
    # builds the same scalars and the same blocks, array for array
    circ = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.0)
    opc = deformed_factory(circ, 64, 16)(3.0)
    assert opc.scales == op.scales and opc.dil == op.dil and opc.theta_constant
    for cb, b in zip(opc.mean_blocks(), op.mean_blocks()):
        assert np.array_equal(cb, b)
    diff = oracle.apply_heff(opc, psi).values - oracle.apply_heff(op, psi).values
    assert np.max(np.abs(diff)) < 1e-12


def test_apply_takes_only_the_interior_spectrum(dilating_spec):
    op = pantographic_factory(dilating_spec, 32, 16)(1.0)
    with pytest.raises(ValueError, match=r"\(31, 16\).*\(32, 16\)"):
        op.apply(np.zeros((32, 16), dtype=complex))
    assert op.apply(np.zeros((31, 16), dtype=complex)).shape == (31, 16)


@pytest.mark.parametrize("m, n", [(0, 1), (2, 2)])
@pytest.mark.parametrize("t", [0.0, 3.0])
def test_grid_h1_energy_converges_to_mean_energy(dilating_spec, m, n, t):
    # <H1> of a sampled exact mode on the grid against the quadrature of
    # pantograph.mean_energy: second order in dr
    mode = sf.mode_make(m, n, dilating_spec)
    want = pg.mean_energy(pg.PantographicState.single(mode), dilating_spec, t)
    err96, err192 = (
        abs(oracle._h1_mean_energy(sample_mode(mode, dilating_spec, t, nr, 16),
                                   dilating_spec) / want - 1.0)
        for nr in (96, 192))
    assert err96 <= 1e-3
    assert err96 / err192 >= 3.5


def test_pantographic_apply_is_its_mean_blocks(dilating_spec):
    # the blocks applied in Fourier space reproduce apply on the interior rows
    nr, ntheta = 48, 16
    op = pantographic_factory(dilating_spec, nr, ntheta)(0.7)
    rng = np.random.default_rng(3)
    v = rng.normal(size=(nr, ntheta)) + 1j * rng.normal(size=(nr, ntheta))
    v[-1] = 0.0
    lower, diag, upper = op.mean_blocks()
    vhat = np.fft.fft(v, axis=1)
    hv = diag * vhat[:-1]
    hv[:-1] += upper[:-1] * vhat[1:-1]
    hv[1:] += lower[1:] * vhat[:-2]
    got = oracle.apply_heff(op, oracle.GridWavefunction(v, op.r0)).values[:-1]
    assert np.max(np.abs(got - np.fft.ifft(hv, axis=1))) <= 1e-12 * np.max(np.abs(got))


def _dilating_factory(nr, ntheta, kappa):
    spec = DomainSpec(kappa=kappa, gamma=5.0 * kappa, epsilon=0.0)
    return pantographic_factory(spec, nr, ntheta)


random_grids = {
    "nr": st.integers(16, 48),
    "ntheta": st.integers(8, 16).map(lambda k: 2 * k),
    "kappa": st.floats(0.02, 0.3),
    "t": st.floats(0.0, 3.0),
}


@given(**random_grids)
def test_mean_blocks_hermitian_under_grid_weights(nr, ntheta, kappa, t):
    op = _dilating_factory(nr, ntheta, kappa)(t)
    lower, diag, upper = op.mean_blocks()
    w = op.radii()[:nr - 1, None]
    scale = np.max(np.abs(w * diag))
    assert np.max(np.abs(w[:-1] * upper[:-1] - np.conj(w[1:] * lower[1:]))) <= 1e-14 * scale
    assert np.max(np.abs(diag.imag)) <= 1e-14 * scale


@given(seed=st.integers(0, 2**32 - 1), **random_grids)
def test_pantographic_cn_conserves_random_field_norm(seed, nr, ntheta, kappa, t):
    factory = _dilating_factory(nr, ntheta, kappa)
    rng = np.random.default_rng(seed)
    psi = oracle.GridWavefunction(
        rng.normal(size=(nr, ntheta)) + 1j * rng.normal(size=(nr, ntheta)), 1.0, t)
    psi = oracle.GridWavefunction(psi.values / psi.norm(), 1.0, t)
    out = oracle.propagate(factory, psi, t + 0.1, 0.01)
    assert abs(out.norm() - 1.0) <= 1e-12


def test_apply_heff_first_order_cross_check(unit_spec):
    # <chi_01 | H_exact - H_pantographic | chi_11> on the grid vs the
    # analytic first-order element between bare modes
    eps = 0.01
    spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=eps)
    t = 2.0
    nr, ntheta = 256, 32
    m01 = sf.mode_make(0, 1, spec)
    m11 = sf.mode_make(1, 1, spec)
    bra = oracle.grid_from_sampler(
        lambda r, th: sf.eigenmode_value(m01, r, th), spec.r0, nr, ntheta)
    ket = oracle.grid_from_sampler(
        lambda r, th: sf.eigenmode_value(m11, r, th), spec.r0, nr, ntheta)
    op_ex = deformed_factory(spec, nr, ntheta)(t)
    op_p = pantographic_factory(spec, nr, ntheta)(t)
    diff = oracle.GridWavefunction(
        oracle.apply_heff(op_ex, ket).values - oracle.apply_heff(op_p, ket).values,
        spec.r0, t)
    got = bra.inner(diff)
    want = oracle.brute_element(
        pt.ModePair(source=m11, target=m01), spec, t, dressed=False)
    # agreement to O(eps^2) + O(dr^2)
    assert abs(got - want) < 20.0 * (eps**2 + (1.0 / nr) ** 2)
    assert abs(got - want) / abs(want) < 0.02


def test_propagate_static_stationary(unit_spec):
    mode = sf.mode_make(0, 1, unit_spec)
    psi0 = sample_mode(mode, unit_spec, 0.0, 128, 16)
    psi = oracle.propagate(pantographic_factory(unit_spec, 128, 16), psi0, 1.0, 0.01)
    ref = sample_mode(mode, unit_spec, 1.0, 128, 16)
    fid = abs(ref.inner(psi)) / (ref.norm() * psi.norm())
    assert fid >= 1.0 - 1e-6
    # the phase itself must track e^{-iEt}
    overlap = ref.inner(psi) / (ref.norm() * psi.norm())
    assert overlap.real == pytest.approx(1.0, abs=1e-5)


def test_propagate_pantographic_tracks_exact_solution(dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(0, 1, spec)
    psi0 = sample_mode(mode, spec, 0.0, 256, 16)
    psi = oracle.propagate(pantographic_factory(spec, 256, 16), psi0, 5.0, 0.01)
    ref = sample_mode(mode, spec, 5.0, 256, 16)
    assert abs(ref.inner(psi)) / (ref.norm() * psi.norm()) >= 1.0 - 1e-4


@pytest.mark.parametrize("dt", [0.05, 0.025])
def test_pantographic_cn_phase_error_is_pinned_at_second_order(dilating_spec, dt):
    # CN's free-phase error: from (0,1) + (1,1), the phase of (1,1) relative
    # to (0,1) at t = 50 is 0.154 rad at dt 0.05 and 0.039 rad at dt 0.025
    # on 192 x 32, and the same on 192 x 16 (m = 0, 1 only).  The radial
    # error is below 1e-3 rad, so the pin is C dt^2 with C = 64 rad
    spec = dilating_spec
    a, b = sf.mode_make(0, 1, spec), sf.mode_make(1, 1, spec)
    psi0 = oracle.grid_from_sampler(
        lambda r, th: (pg.phi_exact(a, spec, r, th, 0.0) + pg.phi_exact(b, spec, r, th, 0.0))
        / math.sqrt(2.0), spec.r0, 192, 16)
    psi = oracle.propagate(pantographic_factory(spec, 192, 16), psi0, 50.0, dt)
    phase = np.angle(oracle.project(psi, b, spec, 50.0) / oracle.project(psi, a, spec, 50.0))
    assert 0.9 * 64.0 * dt**2 <= phase <= 64.0 * dt**2


def test_propagate_norm_conservation(dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(1, 1, spec)
    psi0 = sample_mode(mode, spec, 0.0, 128, 16)
    psi = oracle.propagate(pantographic_factory(spec, 128, 16), psi0, 4.0, 0.01)
    assert abs(psi.norm() - psi0.norm()) < 1e-8 * 4.0


def test_propagate_dt_halving_stability(dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(0, 1, spec)
    psi0 = sample_mode(mode, spec, 0.0, 96, 16)
    fac = pantographic_factory(spec, 96, 16)
    a = oracle.propagate(fac, psi0, 1.0, 5e-4)
    b = oracle.propagate(fac, psi0, 1.0, 2.5e-4)
    l2 = math.sqrt(abs(a.inner(a).real + b.inner(b).real - 2 * a.inner(b).real))
    assert l2 < 1e-6


def test_propagate_rejects_a_non_finite_psi0():
    # one nan sample spread to 496 of the 512 values of a 32 x 16 run
    values = np.ones((32, 16), dtype=complex)
    values[3, 4] = math.nan
    psi0 = oracle.GridWavefunction(values, 1.0)
    with pytest.raises(ValueError, match="psi0 must be finite"):
        oracle.propagate(_never_called, psi0, 1.0, 0.1)


def _solver_settings(monkeypatch, rtol, max_iter=oracle._GMRES_MAX_ITER):
    monkeypatch.setattr(oracle, "_GMRES_RTOL", rtol)
    monkeypatch.setattr(oracle, "_GMRES_MAX_ITER", max_iter)


def test_propagate_solver_failure_raises(deformed_spec, monkeypatch):
    mode = sf.mode_make(0, 1, deformed_spec)
    psi0 = sample_mode(mode, deformed_spec, 0.0, 32, 16)
    _solver_settings(monkeypatch, 1e-14, 1)
    with pytest.raises(RuntimeError, match="converge"):
        oracle.propagate(deformed_factory(deformed_spec, 32, 16), psi0, 5.0, 5.0)


def test_propagate_max_iter_caps_operator_applications(deformed_spec, monkeypatch):
    # max_iter bounds GMRES's inner iterations, not its restart cycles of 20
    _solver_settings(monkeypatch, 1e-14, 5)
    calls = []
    apply = oracle.EffectiveOperator.apply
    monkeypatch.setattr(oracle.EffectiveOperator, "apply",
                        lambda self, *a, **k: calls.append(1) or apply(self, *a, **k))
    psi0 = sample_mode(sf.mode_make(0, 1, deformed_spec), deformed_spec, 0.0, 32, 16)
    with pytest.raises(RuntimeError, match="converge"):
        oracle.propagate(deformed_factory(deformed_spec, 32, 16), psi0, 5.0, 5.0)
    # right-hand side, GMRES's first and last residual
    assert len(calls) <= 5 + 3


def test_propagate_stall_names_time_iterations_and_residual(deformed_spec, monkeypatch):
    mode = sf.mode_make(0, 1, deformed_spec)
    psi0 = sample_mode(mode, deformed_spec, 0.0, 32, 16)
    _solver_settings(monkeypatch, 1e-14, 1)
    with pytest.raises(RuntimeError, match=r"t = 2\.5 did not converge \(GMRES inner "
                       r"iterations: 1, relative residual: \d\.\d{3}e-\d\d, rtol: 1e-14\)"):
        oracle.propagate(deformed_factory(deformed_spec, 32, 16), psi0, 5.0, 5.0)


def test_deformed_step_through_a_gmres_restart_matches_a_dense_solve(deformed_spec,
                                                                     monkeypatch):
    # at epsilon = 0.3 this step needs more than one GMRES cycle of 20
    spec = dataclasses.replace(deformed_spec, epsilon=0.3)
    nr, ntheta, t, h = 24, 16, 6.0, 0.01
    fac = deformed_factory(spec, nr, ntheta)
    rng = np.random.default_rng(11)
    psi0 = oracle.GridWavefunction(rng.standard_normal((nr, ntheta))
                                   + 1j * rng.standard_normal((nr, ntheta)), spec.r0, t)
    # dense I +- (i h / 2 hbar) H_eff on the interior spectrum, column by column
    op = fac(t + 0.5 * h)
    scale = 1j * h / (2.0 * spec.hbar)
    n = (nr - 1) * ntheta
    heff = np.stack([op.apply(e.reshape(nr - 1, ntheta)).ravel() for e in np.eye(n)],
                    axis=1)
    x = np.fft.fft(psi0.values[:-1], axis=1).ravel()
    want = np.linalg.solve(np.eye(n) + scale * heff, x - scale * (heff @ x))
    calls = []
    apply = oracle.EffectiveOperator.apply
    monkeypatch.setattr(oracle.EffectiveOperator, "apply",
                        lambda self, *a, **k: calls.append(1) or apply(self, *a, **k))
    _solver_settings(monkeypatch, 1e-14)
    got = np.fft.fft(oracle.propagate(fac, psi0, t + h, h).values[:-1], axis=1).ravel()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert len(calls) > 23  # right-hand side, first residual, 20 iterations, restart


def test_gmres_preconditions_only_at_cycle_starts_and_inner_iterations():
    # one psolve per cycle start and per inner iteration; matvec adds the
    # first residual.  The solve restarts at least once.
    rng = np.random.default_rng(3)
    n = 60
    a = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    calls = {"matvec": 0, "psolve": 0}

    def matvec(x):
        calls["matvec"] += 1
        return a @ x

    def psolve(x):
        calls["psolve"] += 1
        return x.copy()

    x, inner, resid = oracle._gmres(matvec, psolve, b, np.zeros(n, dtype=complex), 1e-11, 60)
    assert inner > oracle._RESTART and resid <= 1e-11
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert calls["psolve"] == calls["matvec"] - 1


def _no_gmres(*args, **kwargs):
    raise AssertionError("gmres called for a theta-constant operator")


def _no_factor(*args, **kwargs):
    raise AssertionError("blocks factored for a theta-constant operator")


def test_pantographic_step_is_one_apply_and_no_gmres(dilating_spec, monkeypatch):
    # theta-constant coefficients: the blocks are the operator, so a step is
    # its right-hand side and one tridiagonal solve, with no factorization kept
    calls = []
    apply = oracle.EffectiveOperator.apply
    monkeypatch.setattr(oracle.EffectiveOperator, "apply",
                        lambda self, *a, **k: calls.append(1) or apply(self, *a, **k))
    monkeypatch.setattr(oracle, "_gmres", _no_gmres)
    monkeypatch.setattr(oracle.lapack, "Factor", _no_factor)
    psi0 = sample_mode(sf.mode_make(1, 1, dilating_spec), dilating_spec, 0.0, 32, 16)
    oracle.propagate(pantographic_factory(dilating_spec, 32, 16), psi0, 0.5, 0.01)
    assert len(calls) == 50


@given(ntheta=st.integers(8, 32).map(lambda k: 2 * k), kappa=st.floats(0.01, 0.3),
       epsilon=st.floats(0.01, 0.3), t=st.floats(0.1, 5.0))
@example(ntheta=20, kappa=0.1, epsilon=0.05, t=1.0)
def test_h3_only_where_the_boundary_varies(ntheta, kappa, epsilon, t):
    circle = DomainSpec(kappa=kappa, gamma=5.0 * kappa)
    op = deformed_factory(circle, 16, ntheta)(t)
    panto = pantographic_factory(circle, 16, ntheta)(t)
    assert op.scales[1:] == (0.0, 0.0) and op.theta_constant
    assert op.scales == panto.scales and op.dil == panto.dil
    assert all(np.array_equal(b, bp) for b, bp in zip(op.mean_blocks(), panto.mean_blocks()))
    ellipse = deformed_factory(dataclasses.replace(circle, epsilon=epsilon), 16, ntheta)(t)
    assert 0.0 not in ellipse.scales and np.shape(ellipse.dil) == (ntheta,)
    assert not ellipse.theta_constant
    # one CN step of the circle is a block solve
    psi = sample_mode(sf.mode_make(1, 1, circle), circle, t, 16, ntheta)
    with mock.patch.object(oracle, "_gmres", _no_gmres):
        oracle.propagate(deformed_factory(circle, 16, ntheta), psi, t + 0.01, 0.01)


THREAD_CPU_PROBE = """
import json, os, sys, time
from billiard2d import oracle, pantograph, specfun
from billiard2d.domain import BoundaryFunction, DomainSpec

def cpu():  # (main thread, all other threads) CPU seconds, from /proc
    tick, main, rest = os.sysconf("SC_CLK_TCK"), 0.0, 0.0
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        used = (int(fields[11]) + int(fields[12])) / tick
        main, rest = (main + used, rest) if int(tid) == os.getpid() else (main, rest + used)
    return main, rest

spec = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.05)
bnd = BoundaryFunction.deformed_from(spec)
mode = specfun.mode_make(0, 1, spec)
# OpenBLAS's workers spin for 2**28 clock cycles (0.13 s at 2.1 GHz) after
# numpy starts them; wait that out, so that only the CN steps are measured
time.sleep(0.5)
growth = []
for nr in (192, 384):
    psi = oracle.grid_from_sampler(
        lambda r, th: pantograph.phi_exact(mode, spec, r, th, 0.0), spec.r0, nr, 32)
    before = cpu()
    oracle.propagate(lambda t: oracle.effective_operator(bnd, spec, t, nr, 32),
                     psi, 0.1, 0.005)
    growth.append([a - b for a, b in zip(cpu(), before)])
print(json.dumps([growth, sorted(m for m in sys.modules if m.startswith("scipy.sparse"))]))
"""


@pytest.mark.skipif(not os.access("/proc/self/task", os.R_OK) or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least two cores")
def test_deformed_cn_wakes_no_blas_thread():
    # numpy's default OpenBLAS threads; 20 CN steps per grid size, where a
    # BLAS dot or gemv on the (nr - 1) x 32 spectra would run threaded
    growth, sparse = json.loads(_fresh_python(THREAD_CPU_PROBE))
    for main, workers in growth:
        assert workers <= 0.05 * main, growth
    assert sparse == []


@given(seed=st.integers(0, 2**32 - 1), nr=st.integers(16, 64),
       ntheta=st.integers(8, 32).map(lambda k: 2 * k), epsilon=st.floats(0.0, 0.45),
       kappa=st.floats(0.02, 0.3), t=st.floats(0.0, 5.0))
@example(seed=0, nr=64, ntheta=32, epsilon=0.3, kappa=0.1, t=1.3)
def test_apply_heff_commutes_with_the_reflection(seed, nr, ntheta, epsilon, kappa, t):
    # theta -> -theta maps the ellipse onto itself: grid column j -> -j mod ntheta
    spec = DomainSpec(kappa=kappa, gamma=5.0 * kappa, epsilon=epsilon)
    op = deformed_factory(spec, nr, ntheta)(t)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(nr, ntheta)) + 1j * rng.normal(size=(nr, ntheta))
    mirror = -np.arange(ntheta) % ntheta
    hv = oracle.apply_heff(op, oracle.GridWavefunction(values, spec.r0, t)).values
    hmv = oracle.apply_heff(op, oracle.GridWavefunction(values[:, mirror], spec.r0, t)).values
    assert np.max(np.abs(hmv - hv[:, mirror])) <= 1e-13 * np.max(np.abs(hv))


def test_deformed_cn_populates_mirror_modes_equally():
    # from (0,1) the state stays even in theta, so P(+1, n) = P(-1, n)
    spec = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.3)
    psi0 = sample_mode(sf.mode_make(0, 1, spec), spec, 0.0, 32, 16)
    psi = oracle.propagate(deformed_factory(spec, 32, 16), psi0, 2.0, 0.05)
    for n in (1, 2, 3):
        plus, minus = (abs(oracle.project(psi, sf.mode_make(m, n, spec), spec, 2.0)) ** 2
                       for m in (1, -1))
        assert plus > 1e-4 and abs(plus - minus) <= 1e-14


def test_non_finite_boundary_raises_naming_the_time():
    # g is NaN past t = 1; the operator refuses it before any factorization
    spec = DomainSpec(kappa=0.1, epsilon=0.05, schedule=_NanSchedule())
    fac = deformed_factory(spec, 32, 16)
    assert not fac(0.5).theta_constant
    with pytest.raises(ValueError, match=r"non-finite.*t = 1\.5"):
        fac(1.5)
    psi0 = sample_mode(sf.mode_make(0, 1, spec), spec, 0.0, 32, 16)
    with pytest.raises(ValueError, match=r"non-finite.*t = 2\.0"):
        oracle.propagate(fac, psi0, 2.0, 0.25)  # t1, built before any step
    # the pantographic boundary of the same spec never evaluates the schedule
    assert pantographic_factory(spec, 32, 16)(1.5).theta_constant


def test_non_star_shaped_boundary_raises_naming_the_time():
    # eps g(t) = 1.2 (1 - e^{-t}) passes 1 at t = ln 6 = 1.79
    spec = DomainSpec(kappa=0.1, gamma=1.0, epsilon=1.2)
    fac = deformed_factory(spec, 32, 16)
    assert not fac(1.0).theta_constant
    with pytest.raises(ValueError, match=r"not star-shaped at t = 2\.5"):
        fac(2.5)


def test_pantographic_boundary_ignores_the_spec_ellipse(deformed_spec, monkeypatch):
    # the boundary's own ellipse (eps = 0) decides, not the epsilon = 0.05 of
    # the spec passed with it, as in the CLI's validate task
    bnd = BoundaryFunction.pantographic_from(deformed_spec)
    op = oracle.effective_operator(bnd, deformed_spec, 2.0, 32, 16)
    assert op.theta_constant
    circle = dataclasses.replace(deformed_spec, epsilon=0.0)
    assert op.scales == pantographic_factory(circle, 32, 16)(2.0).scales
    monkeypatch.setattr(oracle, "_gmres", _no_gmres)
    psi0 = sample_mode(sf.mode_make(0, 1, deformed_spec), deformed_spec, 2.0, 32, 16)
    oracle.propagate(lambda t: oracle.effective_operator(bnd, deformed_spec, t, 32, 16),
                     psi0, 2.1, 0.05)


def test_collapsing_pantographic_box_raises():
    # lambda(15) = -0.5, whose c_lap would equal that of lambda = +0.5
    spec = DomainSpec(kappa=-0.1)
    bnd = BoundaryFunction.pantographic_from(spec)
    assert oracle.effective_operator(bnd, spec, 5.0, 32, 16).theta_constant
    with pytest.raises(ValueError, match="lambda"):
        oracle.effective_operator(bnd, spec, 15.0, 32, 16)
    psi = to_moving(lambda r, th: r * np.cos(th), bnd, 15.0)
    with pytest.raises(ValueError, match="lambda"):
        psi(np.array([0.1, 0.5]), np.array([0.0, 1.0]))


@pytest.mark.parametrize("t1, dt", [(0.5, 0.01), (math.nan, 0.01), (1.5, -0.01),
                                    (1.5, 0.0), (1.5, math.nan), (1.5, math.inf)])
def test_propagate_rejects_bad_time_arguments(dilating_spec, t1, dt):
    fac = pantographic_factory(dilating_spec, 32, 16)
    psi0 = sample_mode(sf.mode_make(0, 1, dilating_spec), dilating_spec, 1.0, 32, 16)
    with pytest.raises(ValueError, match="t1" if dt == 0.01 else "dt"):
        oracle.propagate(fac, psi0, t1, dt)
    same = oracle.propagate(fac, psi0, 1.0, dt if dt == 0.01 else 0.01)
    assert same.time == 1.0 and np.array_equal(same.values, psi0.values)


@pytest.mark.parametrize("t1", [math.inf, math.nan])
def test_propagate_rejects_a_non_finite_end_time(dilating_spec, t1):
    # inf raised OverflowError; nan was called "before the start time"
    fac = pantographic_factory(dilating_spec, 32, 16)
    psi0 = sample_mode(sf.mode_make(0, 1, dilating_spec), dilating_spec, 1.0, 32, 16)
    with pytest.raises(ValueError, match="t1 must be finite"):
        oracle.propagate(fac, psi0, t1, 0.01)


@pytest.mark.parametrize("nr, ntheta, r0", [(32, 16, 2.0), (48, 16, 1.0), (32, 20, 1.0)])
def test_propagate_rejects_an_operator_of_another_grid(dilating_spec, nr, ntheta, r0):
    # the operator is built for a 32 x 16 grid on r0 = 1; psi0 is not
    fac = pantographic_factory(dilating_spec, 32, 16)
    psi0 = oracle.GridWavefunction(np.ones((nr, ntheta)), r0)
    with pytest.raises(ValueError, match=r"operator grid \(nr, ntheta, r0\) = \(32, 16, 1\.0\)"):
        oracle.propagate(fac, psi0, 0.1, 0.01)


def _never_called(t):
    raise AssertionError(f"operator built at t = {t}")


def test_propagate_rejects_a_t1_past_the_collapse():
    # kappa = -0.5: the box collapses at t = 2.  The last half step of a run
    # to t1 = 2.004 at dt 0.01 is 1.999, inside the span, and it returned a
    # finite state at t = 2.004 (lambda = -0.002)
    spec = DomainSpec(kappa=-0.5)
    fac = pantographic_factory(spec, 32, 16)
    psi0 = sample_mode(sf.mode_make(0, 1, spec), spec, 0.0, 32, 16)
    with pytest.raises(ValueError, match=re.escape("t = 2.004 is outside the box's span")):
        oracle.propagate(fac, psi0, 2.004, 0.01)
    assert oracle.propagate(fac, psi0, 1.996, 0.01).time == 1.996


@pytest.mark.parametrize("t0, t1", [(0.0, 1.996), (0.37, 1.23)])
def test_propagate_ends_at_t1_exactly(dilating_spec, t0, t1):
    # the state was labelled with the sum of its steps, 1.996000000000009 for
    # 0 -> 1.996; only the last end time changes, no half-step time
    h, steps = oracle._half_steps(t0, t1, 0.01)
    ends = list(accumulate([h] * len(steps), initial=t0))
    assert ends[-1] != t1
    assert [t for t, _ in steps] == [t + 0.5 * h for t in ends[:-1]]
    assert [end for _, end in steps] == ends[1:-1] + [t1]
    psi0 = sample_mode(sf.mode_make(0, 1, dilating_spec), dilating_spec, t0, 32, 16)
    assert oracle.propagate(pantographic_factory(dilating_spec, 32, 16), psi0, t1,
                            0.01).time == t1


@pytest.mark.parametrize("r0", [-1.0, 0.0, math.nan, math.inf])
def test_grid_and_operator_reject_a_bad_r0(r0):
    # r0 = -1 gave a ones field the norm 1.727, nan gave nan and 0 gave 0
    with pytest.raises(ValueError, match="r0 must be finite and > 0"):
        oracle.GridWavefunction(np.ones((32, 16)), r0)
    with pytest.raises(ValueError, match="r0 must be finite and > 0"):
        oracle.EffectiveOperator(nr=32, ntheta=16, r0=r0, hbar=1.0,
                                 scales=(-0.5, 0.0, 0.0), dil=0.1j)


@pytest.mark.parametrize("scales, dil", [
    ((-0.5, 0.0, 0.0), np.full(5, 0.1j)),
    ((-0.5, 0.0, 0.0), np.full((16, 1), 0.1j)),
    ((-0.5, 0.0, 0.0), np.full((1, 16), 0.1j)),
    ((-0.5, 0.0), 0.1j),
    ((-0.5, 0.0, 0.0, 0.0), 0.1j),
])
def test_effective_operator_rejects_scales_and_dil_of_the_wrong_shape(scales, dil):
    # a 5-sample dil on 16 theta nodes failed only in apply, on numpy's
    # "operands could not be broadcast together with shapes (5,1) (16,31)"
    grid = dict(nr=32, ntheta=16, r0=1.0, hbar=1.0)
    with pytest.raises(ValueError, match="scales must hold three" if len(scales) != 3
                       else r"dil must be .* 16 theta nodes, got shape"):
        oracle.EffectiveOperator(**grid, scales=scales, dil=dil)
    for good in (0.1j, np.full(16, 0.1j)):
        op = oracle.EffectiveOperator(**grid, scales=(-0.5, -0.1, -0.02), dil=good)
        assert op.apply(np.ones((31, 16), dtype=complex)).shape == (31, 16)


@pytest.mark.parametrize("field", ["mu", "hbar", "r0", "kappa"])
def test_effective_operator_rejects_specs_that_disagree(deformed_spec, field):
    other = dataclasses.replace(deformed_spec, **{field: 2.0 * getattr(deformed_spec, field)})
    for boundary, spec in ((BoundaryFunction.deformed_from(other), deformed_spec),
                           (BoundaryFunction.pantographic_from(deformed_spec), other)):
        with pytest.raises(ValueError, match=f"disagree on {field}"):
            oracle.effective_operator(boundary, spec, 1.0, 16, 16)
    # the ellipse's own epsilon, gamma and schedule may differ from spec's
    static = dataclasses.replace(deformed_spec, epsilon=0.3, gamma=2.0, schedule=_NanSchedule())
    oracle.effective_operator(BoundaryFunction.deformed_from(deformed_spec), static, 1.0, 16, 16)


def reference_terms(boundary, spec, t, ntheta):
    """The eight (coefficient(theta), stencil, p) terms of H_eff on the theta
    nodes, assembled on the grid: R from domain.radius, dR/dt in closed
    form, and the theta derivatives of q = 1/R by FFT."""
    ell = boundary.spec
    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    den = 1.0 - ell.epsilon * ell.g(t) * np.cos(theta)
    r_dot = ell.lamdot(t) / den + ell.lam(t) * ell.epsilon * ell.gdot(t) * np.cos(theta) / den**2
    q = 1.0 / radius(ell, theta, t)
    m, qhat = np.fft.fftfreq(ntheta, d=1.0 / ntheta), np.fft.fft(q)
    qthth = np.fft.ifft(-(m**2) * qhat).real
    m[ntheta // 2] = 0.0  # no Nyquist in the first derivative
    qth = np.fft.ifft(1j * m * qhat).real
    pref = -spec.hbar**2 / (2.0 * spec.mu)
    c_lap, c_mixed = pref * q * q, pref * 2.0 * q * qth
    return [(c_lap, "lap", 0), (c_lap, "inv_r2", 2), (1j * spec.hbar * r_dot * q, "dil", 0),
            (pref * q * qthth, "inv_r2", 0), (pref * (2.0 * qth**2 + q * qthth), "dr_r", 0),
            (c_mixed, "inv_r2", 1), (pref * qth**2, "drr", 0), (c_mixed, "dr_r", 1)]


def scaled_terms(scales, dil, ntheta):
    """The same eight terms for any scales and dil: each H1 and H3
    coefficient is sum_k scales[k] times its a^k part for q = 1 - a cos."""
    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    c, s = np.cos(theta), np.sin(theta)
    s0, s1, s2 = scales
    q2, qq2, q1q1 = s0 - 2.0 * s1 * c + s2 * c * c, s1 * c - s2 * c * c, s2 * s * s
    qq1 = 2.0 * s1 * s - 2.0 * s2 * s * c
    return [(q2, "lap", 0), (q2, "inv_r2", 2), (dil + 0.0 * c, "dil", 0),
            (qq2, "inv_r2", 0), (2.0 * q1q1 + qq2, "dr_r", 0),
            (qq1, "inv_r2", 1), (q1q1, "drr", 0), (qq1, "dr_r", 1)]


def reference_apply(terms, r0, v):
    """H_eff on grid fields v (..., nr, ntheta), term by term on the grid,
    with the Dirichlet row of the result zeroed."""
    nr, ntheta = v.shape[-2:]
    stencils = oracle._radial_stencils(nr, r0)
    m = np.fft.fftfreq(ntheta, d=1.0 / ntheta)
    mult = np.array([np.ones(ntheta), 1j * m, -(m**2)])
    mult[1, ntheta // 2] = 0.0
    out = np.zeros(v.shape, dtype=complex)
    for coeff, name, p in terms:
        w = np.fft.ifft(np.fft.fft(v, axis=-1) * mult[p], axis=-1)
        lower, diag, upper = (band[:, None] * coeff for band in stencils[name])
        out += diag * w
        out[..., :-1, :] += upper[:-1] * w[..., 1:, :]
        out[..., 1:, :] += lower[1:] * w[..., :-1, :]
        out[..., 0, :] += lower[0] * np.roll(w[..., 0, :], ntheta // 2, axis=-1)
    out[..., -1, :] = 0.0
    return out


def dense_interior(terms, nr, ntheta, r0):
    """The reference H_eff on the interior rows, one column per unit vector."""
    ni = nr - 1
    units = np.zeros((ni * ntheta, nr, ntheta))
    units[:, :-1, :] = np.eye(ni * ntheta).reshape(-1, ni, ntheta)
    return units, reference_apply(terms, r0, units)[:, :-1, :].reshape(ni * ntheta, -1).T


class _PulseSchedule:
    """g(t) = (1 - cos 2t) / 2: gdot vanishes at t = 0 and t = pi / 2."""

    def g(self, t):
        return 0.5 * (1.0 - np.cos(2.0 * np.asarray(t, dtype=float)))

    def gdot(self, t):
        return np.sin(2.0 * np.asarray(t, dtype=float))


@given(seed=st.integers(0, 2**32 - 1), nr=st.integers(16, 48),
       ntheta=st.integers(8, 32).map(lambda k: 2 * k), epsilon=st.floats(0.0, 0.45),
       kappa=st.floats(0.02, 0.3), t=st.floats(0.0, 5.0), pulse=st.booleans())
@example(seed=1, nr=16, ntheta=16, epsilon=0.3, kappa=0.1, t=0.0, pulse=True)  # eps g = 0
def test_apply_matches_the_grid_assembly(seed, nr, ntheta, epsilon, kappa, t, pulse):
    # the table combined with the scalars reproduces the terms assembled
    # from R on the theta nodes, on a random grid field
    spec = DomainSpec(kappa=kappa, gamma=5.0 * kappa, epsilon=epsilon,
                      schedule=_PulseSchedule() if pulse else None)
    bnd = BoundaryFunction.deformed_from(spec)
    op = oracle.effective_operator(bnd, spec, t, nr, ntheta)
    rng = np.random.default_rng(seed)
    psi = oracle.GridWavefunction(
        rng.normal(size=(nr, ntheta)) + 1j * rng.normal(size=(nr, ntheta)), spec.r0)
    got = oracle.apply_heff(op, psi).values
    want = reference_apply(reference_terms(bnd, spec, t, ntheta), spec.r0, psi.values)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@given(seed=st.integers(0, 2**32 - 1), nr=st.integers(16, 24),
       ntheta=st.integers(8, 10).map(lambda k: 2 * k), kappa=st.floats(0.02, 0.3),
       epsilon=st.floats(0.0, 0.3), pantographic=st.booleans(), t=st.floats(0.0, 3.0))
def test_cn_step_matches_dense_reference(seed, nr, ntheta, kappa, epsilon, pantographic, t):
    spec = DomainSpec(kappa=kappa, gamma=5.0 * kappa, epsilon=epsilon)
    bnd = (BoundaryFunction.pantographic_from if pantographic
           else BoundaryFunction.deformed_from)(spec)
    fac = (pantographic_factory if pantographic else deformed_factory)(spec, nr, ntheta)
    h, ni = 0.01, nr - 1
    rng = np.random.default_rng(seed)
    psi = oracle.GridWavefunction(
        rng.normal(size=(nr, ntheta)) + 1j * rng.normal(size=(nr, ntheta)), 1.0, t)
    _, dense = dense_interior(reference_terms(bnd, spec, t + 0.5 * h, ntheta), nr, ntheta, 1.0)
    s = 0.5j * h / spec.hbar
    eye = np.eye(ni * ntheta)
    want = np.linalg.solve(eye + s * dense, (eye - s * dense) @ psi.values[:-1].ravel())
    with mock.patch.object(oracle, "_GMRES_RTOL", 1e-14):
        got = oracle.propagate(fac, psi, t + h, h).values
    assert np.linalg.norm(got[:-1].ravel() - want) <= 1e-12 * np.linalg.norm(want)
    assert not got[-1].any()

    # the same table with random theta-constant offsets on the three scalars
    # and on dil, so that the operator is no ellipse's; the parity ghosts of
    # (1/r) d_r and d_rr cancel in the blocks for any scalars, but not in the
    # Delta m = +-1, +-2 bands
    op = fac(t)
    op = dataclasses.replace(op, scales=tuple(c + rng.normal() for c in op.scales),
                             dil=op.dil + rng.normal())
    units, dense = dense_interior(scaled_terms(op.scales, op.dil, ntheta), nr, ntheta, 1.0)
    heff = np.array([oracle.apply_heff(op, oracle.GridWavefunction(u, 1.0)).values[:-1].ravel()
                     for u in units]).T
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(heff - dense)) <= 1e-12 * scale
    # the Fourier blocks are the m -> m part of H, i.e. its theta-constant
    # part, with the parity ghost in row 0's diagonal
    hhat = np.fft.ifft(np.fft.fft(dense.reshape(ni, ntheta, ni, ntheta), axis=1), axis=3)
    lower, diag, upper = op.mean_blocks()
    blocks = np.array([np.diag(diag[:, m]) + np.diag(upper[:-1, m], 1)
                       + np.diag(lower[1:, m], -1) for m in range(ntheta)])
    assert not lower[0].any()
    assert np.max(np.abs(np.einsum("imjm->mij", hhat) - blocks)) <= 1e-12 * scale


def test_propagate_block_diagonal_no_m_leakage(dilating_spec):
    # epsilon = 0: angular wavenumbers decouple; a pure m = 1 state must not
    # leak into other m channels
    spec = dilating_spec
    mode = sf.mode_make(1, 1, spec)
    psi0 = sample_mode(mode, spec, 0.0, 96, 16)
    psi = oracle.propagate(pantographic_factory(spec, 96, 16), psi0, 3.0, 0.01)
    spectrum = np.fft.fft(psi.values, axis=1)
    power = np.sum(np.abs(spectrum) ** 2, axis=0)
    other = np.delete(power, 1)  # column of m = +1
    assert np.max(other) / power[1] < 1e-20


@given(m=st.integers(-5, 5), n=st.integers(1, 3), m2=st.integers(-5, 5),
       n2=st.integers(1, 3), s=st.floats(0.0, 20.0))
@example(m=0, n=1, m2=0, n2=2, s=1.3)
def test_brute_element_forbidden_pair(deformed_spec, m, n, m2, n2, s):
    # only |m - m'| = 1 couples: the assembled element is exactly zero and
    # the brute-force sandwich is round-off against an allowed neighbour
    assume(abs(m - m2) != 1)
    spec = deformed_spec
    source = sf.mode_make(m, n, spec)
    forbidden = pt.ModePair(source=source, target=sf.mode_make(m2, n2, spec))
    allowed = pt.ModePair(source=source, target=sf.mode_make(m + 1, n2, spec))
    assert pt.element(forbidden, spec, s).total == 0
    assert (abs(oracle.brute_element(forbidden, spec, s))
            <= 1e-12 * abs(oracle.brute_element(allowed, spec, s)))


def test_brute_element_theta_rule_is_exact_for_any_m_gap(deformed_spec):
    # the angular rule is sized from the pair: on 64 fixed nodes the
    # (0,1) -> (63,1) integrand aliased, and the element read 0.2 of the
    # allowed (0,1) -> (1,1) one
    spec = deformed_spec
    source = sf.mode_make(0, 1, spec)
    forbidden = pt.ModePair(source=source, target=sf.mode_make(63, 1, spec))
    allowed = pt.ModePair(source=source, target=sf.mode_make(1, 1, spec))
    for s in (0.5, 3.0, 7.0):
        assert (abs(oracle.brute_element(forbidden, spec, s))
                < 1e-14 * abs(oracle.brute_element(allowed, spec, s)))


def test_brute_element_at_release_time(deformed_spec):
    # g(0) = 0 kills H1 and H3; only the dilation-rate term survives
    p = pt.ModePair(source=sf.mode_make(0, 1, deformed_spec),
                    target=sf.mode_make(1, 1, deformed_spec))
    h1, h2, h3 = oracle.brute_element(p, deformed_spec, 0.0, parts=True)
    assert h1 == 0j and h3 == 0j
    assert abs(h2) > 1e-4


def test_brute_element_integrated_over_no_time_is_zero():
    # the zero-width quadrature used to probe t = 1, past this box's collapse at t = 0.5
    spec = DomainSpec(kappa=-2.0, gamma=0.5, epsilon=0.05)
    p = pt.ModePair(source=sf.mode_make(0, 1, spec), target=sf.mode_make(1, 1, spec))
    assert oracle.brute_element_integrated(p, spec, 0.0) == 0


@pytest.mark.parametrize("abs_tol", [0.0, -1.0, math.nan])
def test_brute_element_integrated_rejects_bad_tolerance(deformed_spec, abs_tol):
    # 0 and -1 refined toward max_depth for minutes; nan accepted every panel
    p = pt.ModePair(source=sf.mode_make(0, 1, deformed_spec),
                    target=sf.mode_make(1, 1, deformed_spec))
    with pytest.raises(ValueError, match="abs_tol"):
        oracle.brute_element_integrated(p, deformed_spec, 1.0, abs_tol=abs_tol)


def test_brute_element_array_matches_scalar_calls(deformed_spec):
    # one call over a node set gives each node's scalar call, dressed or bare
    spec = deformed_spec
    p = pt.ModePair(source=sf.mode_make(1, 2, spec), target=sf.mode_make(2, 1, spec))
    s = np.array([0.0, 0.3, 1.7, 6.0, 40.0])
    assert isinstance(oracle.brute_element(p, spec, 1.7), complex)
    for dressed in (True, False):
        got = np.array(oracle.brute_element(p, spec, s, dressed=dressed, parts=True))
        want = np.array([oracle.brute_element(p, spec, float(x), dressed=dressed,
                                              parts=True) for x in s]).T
        assert got.shape == (3, s.size)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        total = oracle.brute_element(p, spec, s, dressed=dressed)
        assert np.all(np.abs(total - want.sum(axis=0)) <= 1e-14 * np.abs(want.sum(axis=0)))


def test_project_self_and_orthogonal(dilating_spec):
    spec = dilating_spec
    m01 = sf.mode_make(0, 1, spec)
    m11 = sf.mode_make(1, 1, spec)
    t = 2.0
    psi = sample_mode(m01, spec, t, 1024, 16)
    assert abs(oracle.project(psi, m01, spec, t)) == pytest.approx(1.0, abs=1e-6)
    assert abs(oracle.project(psi, m11, spec, t)) < 1e-6


def test_radial_only_sampler_fills_grid_and_projects_to_one(unit_spec):
    # at t = 0 in a static box the (0,1) solution has no theta dependence, so
    # the sampler returns one column; it must fill all of them
    mode = sf.mode_make(0, 1, unit_spec)

    def radial(r, th):
        return mode.norm * sf.bessel_j(0, mode.k * r) / math.sqrt(2 * math.pi)

    psi = oracle.grid_from_sampler(radial, unit_spec.r0, 256, 16)
    assert radial(psi.radii()[:, None], None).shape == (256, 1)
    assert np.all(psi.values == psi.values[:, :1])
    assert abs(psi.values[0, 0]) > 0.1
    assert abs(oracle.project(psi, mode, unit_spec, 0.0)) == pytest.approx(1.0, abs=1e-5)


def test_project_bessel_inequality(dilating_spec):
    spec = dilating_spec
    rng = np.random.default_rng(5)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    c /= np.linalg.norm(c)
    modes = [sf.mode_make(0, 1, spec), sf.mode_make(1, 2, spec),
             sf.mode_make(-2, 1, spec)]
    st = pg.PantographicState(tuple(modes), tuple(c))
    t = 1.5
    psi = oracle.grid_from_sampler(
        lambda r, th: st.value(spec, r, th, t), spec.r0, 1024, 16, time=t)
    total = sum(abs(oracle.project(psi, md, spec, t)) ** 2
                for md in sf.modes_upto(3, 4, spec))
    assert total <= 1.0 + 1e-6


def test_fd_energy_rate_static(unit_spec):
    spec = unit_spec
    mode = sf.mode_make(0, 1, spec)
    snaps = [sample_mode(mode, spec, t, 128, 16) for t in np.linspace(0, 1, 6)]
    rates = oracle.fd_energy_rate(snaps, spec)
    assert np.max(np.abs(rates)) < 1e-8


def test_fd_energy_rate_matches_contact_formula(dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(0, 1, spec)
    times = np.linspace(1.0, 3.0, 9)
    snaps = [sample_mode(mode, spec, t, 256, 32) for t in times]
    rates = oracle.fd_energy_rate(snaps, spec)
    st = pg.PantographicState.single(mode)
    mid = len(times) // 2
    want = pg.energy_rate(st, spec, float(times[mid]))
    assert rates[mid] == pytest.approx(want, rel=1e-4)
    assert np.all(rates < 0)


def test_grid_convergence_second_order_in_r(deformed_spec):
    # population from a short deformed run converges at 2nd order in dr
    # (theta resolution is spectral and already converged at 32 columns)
    spec = deformed_spec
    initial = sf.mode_make(0, 1, spec)
    target = sf.mode_make(1, 1, spec)

    def population(nr):
        psi = sample_mode(initial, spec, 0.0, nr, 32)
        psi = oracle.propagate(deformed_factory(spec, nr, 32), psi, 5.0, 0.01)
        return abs(oracle.project(psi, target, spec, 5.0)) ** 2

    p48, p96, p384 = population(48), population(96), population(384)
    err48 = abs(p48 - p384)
    err96 = abs(p96 - p384)
    assert err96 < err48
    assert err48 / err96 > 2.5  # ~4 for a clean 2nd-order scheme


def test_fd_energy_rate_validates_grid(unit_spec):
    mode = sf.mode_make(0, 1, unit_spec)
    snaps = [sample_mode(mode, unit_spec, t, 64, 16) for t in (0.0, 0.1, 0.3)]
    with pytest.raises(ValueError, match="5 snapshots"):
        oracle.fd_energy_rate(snaps, unit_spec)
    snaps = [sample_mode(mode, unit_spec, t, 64, 16) for t in (0, 0.1, 0.3, 0.4, 0.5)]
    with pytest.raises(ValueError, match="uniform"):
        oracle.fd_energy_rate(snaps, unit_spec)


@lru_cache(maxsize=None)
def _in_natural_units(mu, hbar, r0):
    """Each solver's results for a box of kappa T = 0.1, gamma T = 0.5 and
    eps 0.05, T = mu r0^2 / hbar, in units of r0, T, hbar and
    E = hbar^2 / (mu r0^2): TDPT populations, the pantographic energy and its
    rate, a short 64x16 deformed CN field (times r0) and the (0,1) -> (1,1)
    element, assembled and brute force."""
    period = mu * r0**2 / hbar
    energy = hbar / period
    spec = DomainSpec(mu=mu, hbar=hbar, r0=r0, kappa=0.1 / period, gamma=0.5 / period,
                      epsilon=0.05)
    initial = sf.mode_make(0, 1, spec)
    targets = [sf.mode_make(1, n, spec) for n in (1, 2)]
    table = pt.amplitudes(initial, targets, spec, np.linspace(0.0, 5.0, 6) * period)
    state = pg.PantographicState.superposition([initial, targets[0]], [0.8, 0.6])
    psi = sample_mode(initial, spec, 0.0, 64, 16)
    psi = oracle.propagate(deformed_factory(spec, 64, 16), psi, 0.5 * period, 0.05 * period)
    pair = pt.ModePair(source=initial, target=targets[0])
    return {
        "populations": np.array([table.population(tg) for tg in targets]),
        "energy": np.array([pg.mean_energy(state, spec, 2.0 * period) / energy,
                            pg.energy_rate(state, spec, 2.0 * period) * period / energy]),
        "cn": psi.values * r0,
        "element": np.array([pt.element(pair, spec, period).total / hbar]),
        "brute": np.array([oracle.brute_element_integrated(pair, spec, period,
                                                           abs_tol=1e-9 * hbar) / hbar]),
    }


@settings(max_examples=5)
@given(log_units=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_results_do_not_depend_on_the_units(log_units):
    # mu, hbar and r0 in [1/e, e]: a misplaced one in any formula shows here
    got = _in_natural_units(*(math.exp(x) for x in log_units))
    want = _in_natural_units(1.0, 1.0, 1.0)
    for key, value in want.items():
        assert np.max(np.abs(got[key] - value)) <= 1e-11 * np.max(np.abs(value)), key
    assert abs(got["element"] - got["brute"]) <= 1e-6 * abs(got["brute"])
