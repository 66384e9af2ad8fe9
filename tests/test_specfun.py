import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from billiard2d import specfun as sf
from conftest import bisect_series_zero, series_bessel_j, simpson


def test_bessel_j_at_origin():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(1, 0.0) == 0.0
    assert sf.bessel_j(7, 0.0) == 0.0


def test_bessel_j_rejects_bad_input():
    with pytest.raises(ValueError):
        sf.bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(0, -0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, np.array([0.5, math.nan, 2.0])],
                         ids=["nan", "inf", "array-with-nan"])
def test_bessel_j_rejects_non_finite_argument(x):
    # the hand-written kernel returned 0.0 at nan and raised OverflowError at inf
    with pytest.raises(ValueError, match="nan|inf"):
        sf.bessel_j(0, x)


def test_bessel_j0_first_root_from_series_bisection():
    root = bisect_series_zero(0, 1)
    assert abs(root - 2.404825557695773) < 1e-12
    assert abs(sf.bessel_j(0, root)) < 1e-12


@pytest.mark.parametrize("m", range(0, 9))
def test_bessel_j_matches_series_oracle(m):
    # direct oracle comparison on [0, 12]
    xs = np.linspace(0.01, 12.0, 160)
    mine = sf.bessel_j(m, xs)
    ref = np.array([series_bessel_j(m, float(x)) for x in xs])
    assert np.max(np.abs(mine - ref)) < 1e-13
    # J'_m = (J_{m-1} - J_{m+1}) / 2 with J_{-1} = -J_1
    lower = [(-1) ** (m == 0) * series_bessel_j(abs(m - 1), float(x)) for x in xs]
    dref = 0.5 * (np.array(lower) - [series_bessel_j(m + 1, float(x)) for x in xs])
    assert np.max(np.abs(sf.bessel_j_derivative(m, xs) - dref)) < 1e-13


def test_bessel_j_recurrence_consistency():
    # three-term recurrence ties orders together
    rng = np.random.default_rng(7)
    xs = 10.0 ** rng.uniform(-1, 2.2, 200)  # up to ~160
    for m in (1, 3, 6, 10):
        lhs = sf.bessel_j(m - 1, xs) + sf.bessel_j(m + 1, xs)
        rhs = 2.0 * m / xs * sf.bessel_j(m, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bessel_zero_examples_against_oracle():
    for (m, n), stated in [((0, 1), 2.404825557695773),
                           ((1, 1), 3.831705970207512),
                           ((0, 2), 5.520078110286311)]:
        oracle = bisect_series_zero(m, n)
        got = sf.bessel_zero(m, n)
        assert abs(got - oracle) < 1e-12
        assert abs(got - stated) < 1e-12


def test_bessel_zero_residual_and_interlacing():
    zeros = {}
    for m in range(0, 8):
        for n in range(1, 9):
            z = sf.bessel_zero(m, n)
            zeros[m, n] = z
            assert abs(sf.bessel_j(m, z)) <= 1e-12
    for m in range(0, 7):
        for n in range(1, 8):
            assert zeros[m, n] < zeros[m + 1, n] < zeros[m, n + 1]


def test_bessel_zero_rejects_bad_index():
    with pytest.raises(ValueError):
        sf.bessel_zero(0, 0)
    with pytest.raises(ValueError):
        sf.bessel_zero(-1, 1)


def test_mode_beyond_scipy_zero_range_raises_every_time(unit_spec):
    # jn_zeros(5000, 1) is nan; the failure is not cached, so it raises again
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\(5000, 1\)"):
            sf.mode_make(5000, 1, unit_spec)
    assert sf.bessel_zero(4000, 1) == pytest.approx(4029.52339, rel=1e-9)


def test_package_import_loads_no_scipy():
    # bessel_zero imports scipy.special lazily; keep `import billiard2d` lean
    src = Path(sf.__file__).resolve().parents[1]
    code = ("import sys, billiard2d; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_library_modules_load_no_scipy():
    # `import billiard2d` loads no submodule, so import the ones that must
    # leave scipy out (the CN oracle and the CLI's validate task need it)
    src = Path(sf.__file__).resolve().parents[1]
    code = ("import sys, billiard2d.specfun, billiard2d.domain, "
            "billiard2d.pantograph, billiard2d.perturbation; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_gauss_legendre_small_rules():
    r1 = sf.gauss_legendre(1, -1.0, 1.0)
    assert r1.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert r1.weights[0] == pytest.approx(2.0, abs=1e-15)
    r2 = sf.gauss_legendre(2, -1.0, 1.0)
    assert np.allclose(sorted(r2.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                       atol=1e-15)
    assert np.allclose(r2.weights, [1.0, 1.0], atol=1e-15)


def test_gauss_legendre_exactness():
    r = sf.gauss_legendre(16, 0.0, 1.0)
    assert abs(np.sum(r.weights * r.nodes**7) - 0.125) < 1e-14
    # degree 2n-1 exactness and weight sum, several orders
    for n in (1, 2, 5, 12, 40):
        rule = sf.gauss_legendre(n, -0.3, 1.7)
        assert abs(np.sum(rule.weights) - 2.0) < 1e-13 * 2.0
        for p in (2 * n - 1, 2 * n - 2):
            exact = (1.7 ** (p + 1) - (-0.3) ** (p + 1)) / (p + 1)
            got = np.sum(rule.weights * rule.nodes**p)
            assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))


def test_gauss_legendre_rejects_bad_interval():
    with pytest.raises(ValueError):
        sf.gauss_legendre(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        sf.gauss_legendre(0, 0.0, 1.0)


def test_mode_make_ground_energy(unit_spec):
    mode = sf.mode_make(0, 1, unit_spec)
    oracle = bisect_series_zero(0, 1)
    assert mode.energy == pytest.approx(oracle**2 / 2.0, abs=1e-11)
    assert mode.energy == pytest.approx(2.891592981, abs=1e-8)


def test_mode_make_negative_m_symmetry(unit_spec):
    a = sf.mode_make(3, 2, unit_spec)
    b = sf.mode_make(-3, 2, unit_spec)
    assert (a.zero, a.k, a.energy, a.norm) == (b.zero, b.k, b.energy, b.norm)


def test_mode_make_radius_scaling(unit_spec):
    from billiard2d.domain import DomainSpec
    spec2 = DomainSpec(mu=unit_spec.mu, hbar=unit_spec.hbar, r0=2.0,
                       kappa=0.0, gamma=0.5, epsilon=0.0)
    m1 = sf.mode_make(0, 1, unit_spec)
    m2 = sf.mode_make(0, 1, spec2)
    assert m2.k == pytest.approx(m1.k / 2.0, rel=1e-14)
    assert m2.energy == pytest.approx(m1.energy / 4.0, rel=1e-14)


def test_mode_norm_closed_form(unit_spec):
    # A^2 = 2 / (r0^2 J_{m+1}(a)^2)
    for m, n in [(0, 1), (1, 1), (2, 3), (5, 8)]:
        mode = sf.mode_make(m, n, unit_spec)
        closed = math.sqrt(2.0) / (unit_spec.r0 * abs(sf.bessel_j(m + 1, mode.zero)))
        assert mode.norm == pytest.approx(closed, rel=1e-12)


def test_mode_norm_quadrature_oracle(unit_spec):
    mode = sf.mode_make(2, 4, unit_spec)
    val = simpson(lambda r: r * sf.bessel_j(2, mode.k * r) ** 2, 0.0, 1.0, 4000)
    assert mode.norm == pytest.approx(1.0 / math.sqrt(val), rel=1e-9)


def test_mode_norm_stable_under_quadrature_doubling(unit_spec):
    # the closed-form norm against Gauss-Legendre quadrature of int r J^2 dr
    # at the radial default order and at twice that order
    for m, n in [(0, 1), (4, 7)]:
        mode = sf.mode_make(m, n, unit_spec)
        for npoints in (128, 256):
            rule = sf.gauss_legendre(npoints, 0.0, unit_spec.r0)
            val = np.sum(rule.weights * rule.nodes
                         * sf.bessel_j(m, mode.k * rule.nodes) ** 2)
            assert abs(mode.norm - 1.0 / math.sqrt(val)) < 1e-10


def test_radial_profile_derivatives_and_read_only(unit_spec):
    for m, n in [(0, 1), (3, 2)]:
        k = sf.mode_make(m, n, unit_spec).k
        rule, j, dj, d2j = sf.radial_profile(m, n, unit_spec.r0, 64)
        x = k * rule.nodes
        assert np.max(np.abs(j - sf.bessel_j(m, x))) < 1e-14
        assert np.max(np.abs(dj - k * sf.bessel_j_derivative(m, x))) < 1e-13
        # second derivative against a central difference of the first
        h = 1e-5
        fd = k * (sf.bessel_j_derivative(m, x + k * h)
                  - sf.bessel_j_derivative(m, x - k * h)) / (2 * h)
        assert np.max(np.abs(d2j - fd)) < 1e-7 * k * k
        for arr in (rule.nodes, rule.weights, j, dj, d2j):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_eigenmode_boundary_and_orthonormality(unit_spec):
    m01 = sf.mode_make(0, 1, unit_spec)
    assert abs(sf.eigenmode_value(m01, unit_spec.r0, 0.3)) < 1e-12
    from billiard2d.domain import disk_inner_product
    m02 = sf.mode_make(0, 2, unit_spec)
    m11 = sf.mode_make(1, 1, unit_spec)
    f1 = lambda r, th: sf.eigenmode_value(m01, r, th)
    f2 = lambda r, th: sf.eigenmode_value(m02, r, th)
    f3 = lambda r, th: sf.eigenmode_value(m11, r, th)
    assert abs(disk_inner_product(f1, f2, unit_spec)) < 1e-10
    assert abs(disk_inner_product(f3, f3, unit_spec) - 1.0) < 1e-10


def test_gram_matrix_small_basis(unit_spec):
    # entrywise identity for |m| <= 2, n <= 3 (full 88-mode set in acceptance)
    modes = sf.modes_upto(2, 3, unit_spec)
    rule = sf.gauss_legendre(128, 0.0, unit_spec.r0)
    ntheta = 64
    theta = np.arange(ntheta) * (2 * math.pi / ntheta)
    rr, tt = np.meshgrid(rule.nodes, theta, indexing="ij")
    w = (rule.weights * rule.nodes)[:, None] * (2 * math.pi / ntheta)
    vecs = np.stack([(sf.eigenmode_value(md, rr, tt) * np.sqrt(w)).ravel()
                     for md in modes])
    gram = vecs @ np.conjugate(vecs.T)
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10


@pytest.mark.filterwarnings("error")
def test_adaptive_quad_vec_polynomial_and_oscillatory():
    val = sf.adaptive_quad_vec(lambda s: np.stack([s**3, np.cos(s)]), 0.0, 2.0, 1e-12)
    assert val[0] == pytest.approx(4.0, abs=1e-11)
    assert val[1] == pytest.approx(math.sin(2.0), abs=1e-11)
    # oscillatory with phase hint
    w = 40.0
    got = sf.adaptive_quad_vec(lambda s: np.exp(1j * w * s)[None, :],
                               0.0, 1.0, 1e-12, phase=lambda s: w * s)
    exact = (np.exp(1j * w) - 1.0) / (1j * w)
    assert abs(got[0] - exact) < 1e-11


def _inverse_sqrt_singularity(s):
    return np.abs(s - math.pi / 10)[None, :] ** -0.5


def test_adaptive_quad_vec_warns_at_depth_limit():
    with np.errstate(divide="ignore"), pytest.warns(UserWarning, match=r"max_depth=10"):
        sf.adaptive_quad_vec(_inverse_sqrt_singularity, 0.0, 1.0, 1e-12, max_depth=10)


def test_adaptive_quad_vec_rejects_non_finite_panels():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"non-finite .* \[-1.0, 1.0\]"):
            sf.adaptive_quad_vec(lambda s: (1.0 / s)[None, :], -1.0, 1.0, 1e-9)
        # refinement reaches a node on the singularity; used to return nan
        with pytest.raises(ValueError, match="non-finite"):
            sf.adaptive_quad_vec(_inverse_sqrt_singularity, 0.0, 1.0, 1e-12)