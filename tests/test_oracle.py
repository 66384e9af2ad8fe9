import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from billiard2d import oracle
from billiard2d import pantograph as pg
from billiard2d import perturbation as pt
from billiard2d import specfun as sf
from billiard2d.domain import BoundaryFunction, DomainSpec


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


def test_h3_vanishes_for_pantographic_boundary(dilating_spec):
    op = pantographic_factory(dilating_spec, 64, 16)(3.0)
    assert op.pantographic
    rng = np.random.default_rng(0)
    v = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
    v[-1] = 0.0
    assert np.max(np.abs(op.apply(v, parts="3"))) == 0.0
    # circle through the deformed constructor (epsilon = 0): coefficients
    # vanish to round-off even though the flag is conservative
    circ = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.0)
    opc = deformed_factory(circ, 64, 16)(3.0)
    assert np.max(np.abs(opc.apply(v, parts="3"))) < 1e-12


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
    got = op.apply(v)[:-1]
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
        op_ex.apply(ket.values) - op_p.apply(ket.values), spec.r0, t)
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


def test_propagate_solver_failure_raises(deformed_spec):
    mode = sf.mode_make(0, 1, deformed_spec)
    psi0 = sample_mode(mode, deformed_spec, 0.0, 32, 16)
    with pytest.raises(RuntimeError, match="converge"):
        oracle.propagate(deformed_factory(deformed_spec, 32, 16), psi0,
                         5.0, 5.0, rtol=1e-14, max_iter=1)


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


def test_brute_element_at_release_time(deformed_spec):
    # g(0) = 0 kills H1 and H3; only the dilation-rate term survives
    p = pt.ModePair(source=sf.mode_make(0, 1, deformed_spec),
                    target=sf.mode_make(1, 1, deformed_spec))
    h1, h2, h3 = oracle.brute_element(p, deformed_spec, 0.0, parts=True)
    assert h1 == 0j and h3 == 0j
    assert abs(h2) > 1e-4


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


def test_snapshot_round_trip(tmp_path, dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(1, 2, spec)
    psi = sample_mode(mode, spec, 1.5, 32, 16)
    path = tmp_path / "snap.txt"
    oracle.write_snapshot(psi, path)
    header = path.read_text().splitlines()[0].split()
    assert header[:2] == ["32", "16"]
    back = oracle.read_snapshot(path, r0=spec.r0)
    assert back.time == psi.time
    assert np.array_equal(back.values, psi.values)  # repr round-trip is exact
    with pytest.raises(ValueError, match="header"):
        bad = tmp_path / "bad.txt"
        bad.write_text("32 16 0.0\n1.0 0.0\n")
        oracle.read_snapshot(bad)


def test_fd_energy_rate_validates_grid(unit_spec):
    mode = sf.mode_make(0, 1, unit_spec)
    snaps = [sample_mode(mode, unit_spec, t, 64, 16) for t in (0.0, 0.1, 0.3)]
    with pytest.raises(ValueError, match="5 snapshots"):
        oracle.fd_energy_rate(snaps, unit_spec)
    snaps = [sample_mode(mode, unit_spec, t, 64, 16) for t in (0, 0.1, 0.3, 0.4, 0.5)]
    with pytest.raises(ValueError, match="uniform"):
        oracle.fd_energy_rate(snaps, unit_spec)
