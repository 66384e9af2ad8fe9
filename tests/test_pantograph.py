import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from billiard2d import pantograph as pg
from billiard2d import specfun as sf
from billiard2d.domain import BoundaryFunction, DomainSpec, moving_inner_product
from conftest import simpson


def test_alpha_closed_form():
    spec = DomainSpec(kappa=0.1, gamma=0.5)
    assert pg.alpha(spec, 0.0) == pytest.approx(0.05, abs=1e-15)
    assert pg.alpha(spec, 10.0) == pytest.approx(0.1, abs=1e-15)
    static = DomainSpec(kappa=0.0, gamma=0.5)
    assert pg.alpha(static, 3.0) == 0.0


def test_beta_limits(dilating_spec, unit_spec):
    mode = sf.mode_make(0, 1, dilating_spec)
    assert pg.beta(mode, dilating_spec, 0.0) == 0.0
    mode0 = sf.mode_make(0, 1, unit_spec)
    t = 2.5
    assert pg.beta(mode0, unit_spec, t) == pytest.approx(-mode0.energy * t, rel=1e-14)


def test_beta_against_quadrature_oracle(dilating_spec):
    mode = sf.mode_make(1, 2, dilating_spec)
    spec = dilating_spec
    for t in (0.5, 5.0, 40.0):
        oracle = -mode.energy / spec.hbar * simpson(
            lambda s: 1.0 / (1.0 + spec.kappa * s) ** 2, 0.0, t, 40000)
        assert float(pg.beta(mode, spec, t)) == pytest.approx(oracle, rel=1e-12)


def test_beta_numeric_example(dilating_spec):
    mode = sf.mode_make(0, 1, dilating_spec)
    got = pg.beta(mode, dilating_spec, 5.0)
    assert got == pytest.approx(-mode.energy * 5.0 / 1.5, rel=1e-14)
    assert got == pytest.approx(-9.6386, abs=5e-4)  # E ~= 2.8916


def test_phi_exact_structure(dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(2, 1, spec)
    r = np.linspace(0.05, 0.95, 17)
    th = np.linspace(0.0, 6.2, 17)
    chi = sf.eigenmode_value(mode, r, th)
    # t = 0: pure quadratic phase on top of the eigenmode
    got0 = pg.phi_exact(mode, spec, r, th, 0.0)
    assert np.allclose(got0, chi * np.exp(1j * pg.alpha(spec, 0.0) * r**2), atol=1e-14)
    # modulus never changes
    got = pg.phi_exact(mode, spec, r, th, 7.3)
    assert np.allclose(np.abs(got), np.abs(chi), atol=1e-14)


def test_phi_exact_static_box(unit_spec):
    mode = sf.mode_make(0, 2, unit_spec)
    r, th, t = 0.4, 1.1, 3.0
    got = pg.phi_exact(mode, unit_spec, r, th, t)
    want = sf.eigenmode_value(mode, r, th) * np.exp(-1j * mode.energy * t)
    assert got == pytest.approx(want, abs=1e-14)


def test_psi_exact_boundary_zero(dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(1, 3, spec)
    t = 6.0
    wall = float(spec.lam(t)) * spec.r0
    assert abs(pg.psi_exact(mode, spec, wall, 0.9, t)) < 1e-12
    assert abs(pg.psi_exact(mode, spec, wall * (1 - 1e-9), 0.9, t)) < 1e-7


def test_psi_exact_orthonormal_family(dilating_spec):
    spec = dilating_spec
    bnd = BoundaryFunction.pantographic_from(spec)
    t = 4.0
    modes = [sf.mode_make(m, n, spec) for m, n in [(0, 1), (0, 2), (1, 1), (-1, 1)]]
    for i, a in enumerate(modes):
        for b in modes[i:]:
            val = moving_inner_product(
                lambda r, th, mo=a: pg.psi_exact(mo, spec, r, th, t),
                lambda r, th, mo=b: pg.psi_exact(mo, spec, r, th, t),
                bnd, spec, t)
            want = 1.0 if a is b else 0.0
            assert abs(val - want) < 1e-10


def test_psi_exact_initial_time(dilating_spec):
    spec = dilating_spec
    mode = sf.mode_make(0, 1, spec)
    r, th = 0.37, 2.2
    got = pg.psi_exact(mode, spec, r, th, 0.0)
    want = sf.eigenmode_value(mode, r, th) * np.exp(1j * pg.alpha(spec, 0.0) * r**2)
    assert got == pytest.approx(want, abs=1e-14)


def test_state_normalization_enforced(dilating_spec):
    mode = sf.mode_make(0, 1, dilating_spec)
    with pytest.raises(ValueError, match="normalized"):
        pg.PantographicState((mode,), (0.5,))
    st = pg.PantographicState.superposition((mode,), (0.5,))
    assert abs(abs(st.amplitudes[0]) - 1.0) < 1e-15


@pytest.mark.filterwarnings("error")
def test_state_rejects_non_finite_and_zero_norm_amplitudes(dilating_spec):
    mode = sf.mode_make(0, 1, dilating_spec)
    for amp in (math.nan, complex(math.nan, 0.0), math.inf):
        with pytest.raises(ValueError, match="normalized"):
            pg.PantographicState((mode,), (amp,))
    for amps in ([0.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="norm"):
            pg.PantographicState.superposition([mode], amps)


def test_population_constancy_under_exact_evolution(dilating_spec):
    # project the evolving two-mode state onto each moving-picture solution:
    # |<psi_k(t), Psi(t)>|^2 must not depend on t
    spec = dilating_spec
    bnd = BoundaryFunction.pantographic_from(spec)
    m1 = sf.mode_make(0, 1, spec)
    m2 = sf.mode_make(2, 2, spec)
    st = pg.PantographicState.superposition([m1, m2], [0.8, 0.6])

    def moving_state(t):
        lam = float(spec.lam(t))
        return lambda r, th: st.value(spec, np.asarray(r) / lam, th, t) / lam

    pops = []
    for t in (0.0, 3.0, 11.0):
        ps = moving_state(t)
        pops.append([
            abs(moving_inner_product(
                lambda r, th, mo=mo: pg.psi_exact(mo, spec, r, th, t),
                ps, bnd, spec, t)) ** 2
            for mo in (m1, m2)])
    pops = np.asarray(pops)
    assert np.max(np.abs(pops - pops[0])) < 1e-10
    assert np.allclose(pops[0], [0.64, 0.36], atol=1e-10)


def test_energy_rate_static_box(unit_spec):
    mode = sf.mode_make(0, 1, unit_spec)
    st = pg.PantographicState.single(mode)
    assert pg.energy_rate(st, unit_spec, 2.0) == 0.0


def test_energy_rate_sign(dilating_spec):
    st = pg.PantographicState.single(sf.mode_make(0, 1, dilating_spec))
    for t in (0.0, 5.0, 20.0):
        assert pg.energy_rate(st, dilating_spec, t) < 0.0


def test_energy_rate_warns_on_bad_state(dilating_spec):
    class Bad:
        def fields(self, spec, r, th, t):
            th = np.asarray(th)
            return np.ones_like(th, dtype=complex), np.zeros_like(th, dtype=complex)

    with pytest.warns(UserWarning, match="vanish"):
        pg.energy_rate(Bad(), dilating_spec, 1.0)


@pytest.mark.parametrize("modes,amps", [
    ([(0, 1)], [1.0]),
    ([(1, 1)], [1.0]),
    ([(2, 1)], [1.0]),
    ([(0, 1), (0, 2)], [1.0, 1.0]),
    ([(0, 1), (1, 1)], [0.8, 0.6j]),
])
def test_energy_rate_matches_fd_of_mean_energy(dilating_spec, modes, amps):
    # centered 4th-order finite difference of <H1> along the exact evolution
    spec = dilating_spec
    st = pg.PantographicState.superposition(
        [sf.mode_make(m, n, spec) for m, n in modes], amps)
    t, h = 3.0, 1e-3
    es = [pg.mean_energy(st, spec, t + k * h) for k in (-2, -1, 1, 2)]
    fd = (es[0] - 8 * es[1] + 8 * es[2] - es[3]) / (12 * h)
    rate = pg.energy_rate(st, spec, t)
    assert rate == pytest.approx(fd, rel=1e-6)


def test_mode_built_for_another_radius_rejected(dilating_spec):
    # a (0,1) mode of the r0 = 1 disk read with r0 = 2 used to give 2.909
    state = pg.PantographicState.single(sf.mode_make(0, 1, dilating_spec))
    wider = DomainSpec(mu=1.0, hbar=1.0, r0=2.0, kappa=0.1, gamma=0.5)
    with pytest.raises(ValueError, match="another r0"):
        pg.mean_energy(state, wider, 0.0)
    with pytest.raises(ValueError, match="another r0"):
        pg.energy_rate(state, wider, 0.0)
    assert pg.mean_energy(state, dilating_spec, 0.0) == pytest.approx(2.892683264576623,
                                                                     rel=1e-12)


def test_energies_reject_a_time_the_box_does_not_reach():
    # kappa = -0.1: lambda = 0 at t = 10, where the energies divided by zero,
    # and -0.2 at t = 12, where they read 72.29 and -72.29; kappa = 0.1 at
    # t = -20 (lambda = -1) read 2.89 and +0.578
    shrinking = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=-0.1, gamma=0.5)
    growing = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5)
    mode = sf.mode_make(0, 1, shrinking)
    state = pg.PantographicState.single(mode)
    for spec, t in ((shrinking, 10.0), (shrinking, 12.0), (growing, -20.0)):
        with pytest.raises(ValueError, match="collapses"):
            pg.mean_energy(state, spec, t)
        with pytest.raises(ValueError, match="collapses"):
            pg.energy_rate(state, spec, t)
    # at t = 5 (lambda = 1/2) the box is shrinking, not collapsed: the
    # dressing adds to E / lambda^2, and a shrinking wall feeds energy in
    assert pg.mean_energy(state, shrinking, 5.0) > mode.energy / 0.25
    assert pg.energy_rate(state, shrinking, 5.0) > 0.0


def test_exact_solutions_reject_a_time_the_box_does_not_reach(dilating_spec, monkeypatch):
    # kappa = 0.1: t = -20 (lambda = -1) read 0.303-1.027j, and t = -10
    # (lambda = 0) nan+nanj after two RuntimeWarnings
    mode = sf.mode_make(0, 1, dilating_spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (-20.0, -10.0):
            for solution in (pg.phi_exact, pg.psi_exact):
                with pytest.raises(ValueError, match="collapses"):
                    solution(mode, dilating_spec, 0.1, 0.0, t)
    # inside the span the check changes no bit
    got = [f(mode, dilating_spec, 0.1, 0.3, 5.0) for f in (pg.phi_exact, pg.psi_exact)]
    monkeypatch.setattr(pg, "_check_span", lambda spec, t: None)
    want = [f(mode, dilating_spec, 0.1, 0.3, 5.0) for f in (pg.phi_exact, pg.psi_exact)]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_mean_energy_eigenstate(unit_spec):
    mode = sf.mode_make(0, 1, unit_spec)
    st = pg.PantographicState.single(mode)
    assert pg.mean_energy(st, unit_spec, 0.0) == pytest.approx(mode.energy, abs=1e-10)


def test_mean_energy_exact_mode_scaling(dilating_spec):
    # <H1> along the exact mode = E/lam^2 + (mu kappa^2 / 2) <r^2>_chi: the
    # internal term scales as 1/lam^2 and the dilation-flow term is constant
    spec = dilating_spec
    mode = sf.mode_make(1, 1, spec)
    st = pg.PantographicState.single(mode)
    r2 = simpson(lambda r: r**3 * (mode.norm * sf.bessel_j(1, mode.k * r)) ** 2,
                 0.0, spec.r0, 4000)
    flow = 0.5 * spec.mu * spec.kappa**2 * r2
    for t in (0.0, 4.0, 12.0):
        lam = float(spec.lam(t))
        got = pg.mean_energy(st, spec, t)
        assert got == pytest.approx(mode.energy / lam**2 + flow, abs=1e-8)


def test_mean_energy_superposition(dilating_spec):
    spec = dilating_spec
    m1, m2 = sf.mode_make(0, 1, spec), sf.mode_make(2, 2, spec)
    st = pg.PantographicState.superposition([m1, m2], [1.0, 1.0])

    def r2_of(mode):
        ma = abs(mode.m)
        return simpson(lambda r: r**3 * (mode.norm * sf.bessel_j(ma, mode.k * r)) ** 2,
                       0.0, spec.r0, 4000)

    flow = 0.25 * spec.mu * spec.kappa**2 * (r2_of(m1) + r2_of(m2))
    t = 7.0
    lam = float(spec.lam(t))
    want = 0.5 * (m1.energy + m2.energy) / lam**2 + flow
    assert pg.mean_energy(st, spec, t) == pytest.approx(want, abs=1e-8)


def test_schrodinger_residual_of_exact_solution(dilating_spec):
    # || i hbar dt phi - H_p phi || / || H_p phi || on quadrature nodes,
    # 4th-order dt, analytic spatial application through the state methods
    spec = dilating_spec
    mode = sf.mode_make(1, 1, spec)
    st = pg.PantographicState.single(mode)
    rule = sf.gauss_legendre(64, 0.0, spec.r0)
    th = np.arange(32) * (2 * math.pi / 32)
    rr, tt = np.meshgrid(rule.nodes, th, indexing="ij")

    def h_p(t):
        lam = float(spec.lam(t))
        # nabla^2 phi via analytic pieces: radial from Bessel ODE + phase
        a = pg.alpha(spec, t)
        b = float(pg.beta(mode, spec, t))
        ma = abs(mode.m)
        pref = (2 * math.pi) ** -0.5 * mode.norm
        x = mode.k * rr
        j = sf.bessel_j(ma, x)
        jp = sf.bessel_j_derivative(ma, x)
        u = pref * j
        du = pref * mode.k * jp
        lap_u = -mode.k**2 * u  # eigenfunction of the disk Laplacian
        phase = np.exp(1j * (a * rr**2 + b + mode.m * tt))
        lap_phi = phase * (lap_u + 4j * a * rr * du + (4j * a - 4 * a * a * rr**2) * u)
        dil_phi = phase * (u + rr * du + 2j * a * rr**2 * u)
        return (-spec.hbar**2 / (2 * spec.mu * lam**2) * lap_phi
                + 1j * spec.hbar * spec.kappa / lam * dil_phi)

    w = (rule.weights * rule.nodes)[:, None] * (2 * math.pi / 32)
    for t in (1.0, 10.0, 20.0):
        h = 1e-3
        vals = [st.value(spec, rr, tt, t + k * h) for k in (-2, -1, 1, 2)]
        dtphi = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        resid = 1j * spec.hbar * dtphi - h_p(t)
        num = math.sqrt(float(np.sum(w * np.abs(resid) ** 2)))
        den = math.sqrt(float(np.sum(w * np.abs(h_p(t)) ** 2)))
        assert num / den < 1e-6


def test_basis_completeness_resynthesis(dilating_spec):
    # projecting a smooth test function onto the exact solutions and
    # resynthesizing must converge monotonically as the basis grows
    spec = dilating_spec
    t = 5.0
    rule = sf.gauss_legendre(96, 0.0, spec.r0)
    th = np.arange(32) * (2 * math.pi / 32)
    rr, tt = np.meshgrid(rule.nodes, th, indexing="ij")
    w = (rule.weights * rule.nodes)[:, None] * (2 * math.pi / 32)
    # smooth on the disk (angular components vanish like r^|m| at the
    # origin), vanishes at r0, mixes angular content
    test = ((spec.r0**2 - rr**2) * np.exp(-3 * rr**2)
            * (1.0 + 0.5 * rr * np.exp(1j * tt) + 0.25 * rr**2 * np.exp(-2j * tt)))
    test /= math.sqrt(float(np.sum(w * np.abs(test) ** 2)))
    errs = []
    for nmax in (2, 4, 8):
        recon = np.zeros_like(test)
        for m in (-2, -1, 0, 1, 2):
            for n in range(1, nmax + 1):
                mode = sf.mode_make(m, n, spec)
                phi = pg.phi_exact(mode, spec, rr, tt, t)
                recon += np.sum(w * np.conjugate(phi) * test) * phi
        errs.append(math.sqrt(float(np.sum(w * np.abs(test - recon) ** 2))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


# random 1-3 mode superpositions; the pool holds m = 0 and negative m
random_states = {
    "modes": st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)),
                      min_size=1, max_size=3, unique=True),
    "seed": st.integers(0, 2**32 - 1),
    "kappa": st.floats(0.02, 0.3),
    "r0": st.floats(0.5, 2.0),
}


def _random_state(modes, seed, kappa, r0):
    spec = DomainSpec(r0=r0, kappa=kappa, gamma=5.0 * kappa)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return spec, pg.PantographicState.superposition(
        [sf.mode_make(m, n, spec) for m, n in modes], amps)


@given(frac=st.floats(0.05, 0.95), theta=st.floats(0.0, 2 * math.pi),
       t=st.floats(0.0, 20.0), **random_states)
def test_d_dr_matches_fd_of_value_inside_disk(modes, seed, kappa, r0, frac, theta, t):
    spec, state = _random_state(modes, seed, kappa, r0)
    r, h = frac * r0, 1e-3 * r0
    vals = [state.value(spec, r + k * h, theta, t) for k in (-2, -1, 1, 2)]
    fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    scale = max(mode.k * mode.norm for mode in state.modes)
    assert abs(state.d_dr(spec, r, theta, t) - fd) <= 1e-8 * scale


@given(t=st.floats(0.0, 20.0), **random_states)
def test_mean_energy_mirror_symmetric(modes, seed, kappa, r0, t):
    spec, state = _random_state(modes, seed, kappa, r0)
    _, mirror = _random_state([(-m, n) for m, n in modes], seed, kappa, r0)
    e = pg.mean_energy(state, spec, t)
    assert pg.mean_energy(mirror, spec, t) == pytest.approx(e, rel=1e-13)


def _energy_on_mesh(state, spec, t, nr=128, ntheta=256):
    """hbar^2/(2 mu lam^2) int |grad phi|^2 on a full (r, theta) mesh.

    Gauss-Legendre in r, uniform in theta; d_r from the state, d_theta by FFT
    of the sampled values (exact for the band-limited theta dependence).
    """
    x, w = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * spec.r0 * (x + 1.0)
    theta = np.arange(ntheta) * (2 * math.pi / ntheta)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    dr = state.d_dr(spec, rr, tt, t)
    wavenumbers = np.fft.fftfreq(ntheta, 1.0 / ntheta)
    dth = np.fft.ifft(1j * wavenumbers * np.fft.fft(state.value(spec, rr, tt, t), axis=1),
                      axis=1)
    dens = (np.abs(dr) ** 2 + np.abs(dth / rr) ** 2) * rr
    integral = np.sum(dens * (0.5 * spec.r0 * w)[:, None]) * (2 * math.pi / ntheta)
    return spec.hbar**2 / (2 * spec.mu * float(spec.lam(t)) ** 2) * integral


@given(t=st.floats(0.0, 20.0),
       modes=st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)),
                      min_size=2, max_size=4, unique=True),
       seed=random_states["seed"], kappa=random_states["kappa"], r0=random_states["r0"])
@example(t=3.0, modes=[(1, 1), (1, 2), (-1, 1), (0, 1)], seed=1, kappa=0.1, r0=1.0)
@example(t=0.0, modes=[(2, 1), (-2, 2)], seed=2, kappa=0.3, r0=0.5)
def test_mean_energy_matches_mesh_quadrature(modes, seed, kappa, r0, t):
    # mean_energy keeps only equal-m pairs of the theta integral
    spec, state = _random_state(modes, seed, kappa, r0)
    assert pg.mean_energy(state, spec, t) == pytest.approx(_energy_on_mesh(state, spec, t),
                                                         rel=1e-12)
