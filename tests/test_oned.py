import math

import numpy as np
import pytest

from billiard2d import oned


def mean_h1(spec, phi, t):
    lam = float(spec.lam(t))
    up = np.zeros_like(phi)
    up[:-1] = phi[1:]
    dn = np.zeros_like(phi)
    dn[1:] = phi[:-1]
    lap = (up - 2.0 * phi + dn) / spec.dx**2
    num = np.vdot(phi, -spec.hbar**2 / (2 * spec.mu * lam**2) * lap).real
    return num / np.vdot(phi, phi).real


def test_spec_validation():
    with pytest.raises(ValueError):
        oned.Box1DSpec(nx=8)
    with pytest.raises(ValueError):
        oned.Box1DSpec(x0=-1.0)


def test_static_eigenmode_residual():
    spec = oned.Box1DSpec(x0=1.0, kappa=0.0, nx=400)
    phi = oned.box_eigenmode_1d(spec, 1)
    e1 = spec.hbar**2 * math.pi**2 / (2 * spec.mu * spec.x0**2)
    resid = oned.apply_h1d(spec, phi, 0.0) - e1 * phi
    rel = np.linalg.norm(resid) / np.linalg.norm(e1 * phi)
    assert rel < 2.0 * (math.pi * spec.dx / spec.x0) ** 2 / 12 * 100
    assert rel < 1e-4  # O(dx^2) at nx = 400


def test_dilation_term_on_even_function_at_center():
    # x d_x vanishes at the origin, leaving i hbar (Rdot/R) phi(0) / 2 up to
    # the O(dx^2) stencil error
    def center_error(nx):
        spec = oned.Box1DSpec(x0=2.0, kappa=0.3, nx=nx)  # odd -> node at x = 0
        x = oned.grid_1d(spec)
        i_mid = spec.nx // 2
        assert abs(x[i_mid]) < 1e-14
        phi = np.exp(-4.0 * x**2) * (1.0 - (2 * x / spec.x0) ** 2) + 0j
        t = 1.0
        lam = float(spec.lam(t))
        up = np.zeros_like(phi)
        up[:-1] = phi[1:]
        dn = np.zeros_like(phi)
        dn[1:] = phi[:-1]
        kinetic = (-spec.hbar**2 / (2 * spec.mu * lam**2)
                   * (up - 2 * phi + dn) / spec.dx**2)
        dil = oned.apply_h1d(spec, phi, t) - kinetic
        want = 1j * spec.hbar * (spec.kappa / lam) * phi[i_mid] / 2.0
        return abs(dil[i_mid] - want) / abs(want)

    e255 = center_error(255)
    e511 = center_error(511)
    assert e255 < 1e-3
    assert 3.0 < e255 / e511 < 5.0  # second-order stencil


def test_dilation_generator_anti_hermitian():
    spec = oned.Box1DSpec(nx=64)
    g = oned.dilation_matrix_1d(spec)
    assert np.max(np.abs(g + g.T)) < 1e-10


def test_energy_rate_static_is_zero():
    spec = oned.Box1DSpec(x0=1.0, kappa=0.0, nx=128)
    phi = oned.box_eigenmode_1d(spec, 1)
    assert oned.energy_rate_1d(spec, phi, 0.0) == 0.0


def test_energy_rate_sign():
    spec = oned.Box1DSpec(x0=1.0, kappa=0.2, nx=128)
    phi = oned.box_eigenmode_1d(spec, 1)
    assert oned.energy_rate_1d(spec, phi, 0.5) < 0.0


def test_energy_rate_exact_mode_value():
    # along the exact evolution the rate is -2 Rdot E_n / R^3
    spec = oned.Box1DSpec(x0=1.3, kappa=0.2, nx=2000)
    x = oned.grid_1d(spec)
    alpha0 = spec.mu * spec.kappa / (2 * spec.hbar)  # R(0) = 1
    phi = oned.box_eigenmode_1d(spec, 1) * np.exp(1j * alpha0 * x**2)
    e1 = spec.hbar**2 * math.pi**2 / (2 * spec.mu * spec.x0**2)
    want = -2.0 * spec.kappa * e1
    assert oned.energy_rate_1d(spec, phi, 0.0) == pytest.approx(want, rel=1e-5)


def test_energy_rate_matches_fd_along_cn_trajectory():
    spec = oned.Box1DSpec(x0=1.7, kappa=0.15, nx=300)
    x = oned.grid_1d(spec)
    alpha0 = spec.mu * spec.kappa / (2 * spec.hbar)
    phi0 = oned.box_eigenmode_1d(spec, 1) * np.exp(1j * alpha0 * x**2)
    t_mid, h, dt = 1.5, 0.005, 5e-4
    phi = oned.propagate_1d(spec, phi0, 0.0, t_mid - 2 * h, dt)
    snaps = {-2: phi}
    for k in (-1, 0, 1, 2):
        phi = oned.propagate_1d(spec, phi, t_mid + (k - 1) * h, t_mid + k * h, dt)
        snaps[k] = phi
    es = {k: mean_h1(spec, snaps[k], t_mid + k * h) for k in snaps}
    fd = (es[-2] - 8 * es[-1] + 8 * es[1] - es[2]) / (12 * h)
    rate = oned.energy_rate_1d(spec, snaps[0], t_mid)
    assert rate == pytest.approx(fd, rel=1e-4)


def test_cn_norm_conservation_1d():
    spec = oned.Box1DSpec(x0=1.0, kappa=0.2, nx=200)
    phi0 = oned.box_eigenmode_1d(spec, 2)
    phi = oned.propagate_1d(spec, phi0, 0.0, 2.0, 1e-3)
    n0 = np.vdot(phi0, phi0).real * spec.dx
    n1 = np.vdot(phi, phi).real * spec.dx
    assert abs(n1 - n0) < 1e-8 * 2.0


def test_cn_step_solves_its_own_equation():
    # one step satisfies (I + z H) phi1 = (I - z H) phi0, H at the half step
    spec = oned.Box1DSpec(kappa=0.1, nx=64)
    rng = np.random.default_rng(5)
    phi0 = rng.normal(size=64) + 1j * rng.normal(size=64)
    t0, h = 0.4, 0.01
    phi1 = oned.propagate_1d(spec, phi0, t0, t0 + h, h)
    z = 0.5j * h / spec.hbar
    lhs = phi1 + z * oned.apply_h1d(spec, phi1, t0 + 0.5 * h)
    rhs = phi0 - z * oned.apply_h1d(spec, phi0, t0 + 0.5 * h)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_apply_h1d_rejects_wrong_shape():
    spec = oned.Box1DSpec(nx=64)
    with pytest.raises(ValueError):
        oned.apply_h1d(spec, np.zeros(63, dtype=complex), 0.0)


def test_energy_rate_warns_near_walls():
    spec = oned.Box1DSpec(x0=1.0, kappa=0.1, nx=64)
    phi = np.ones(spec.nx, dtype=complex)
    with pytest.warns(UserWarning, match="walls"):
        oned.energy_rate_1d(spec, phi, 0.0)
