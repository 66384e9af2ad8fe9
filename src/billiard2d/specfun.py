"""Special-function kernel: integer-order Bessel J, its zeros, disk
eigenmodes and Gauss-Legendre quadrature.

J_m comes from ``scipy.special.jv`` and the zeros from
``scipy.special.jn_zeros``, both imported lazily; the Gauss-Legendre nodes
from ``numpy.polynomial.legendre.leggauss``, and mode norms from their
closed form.  All routines are pure functions; cached tables are read-only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BesselMode",
    "QuadratureRule",
    "bessel_j",
    "bessel_j_all",
    "bessel_j_derivative",
    "bessel_zero",
    "gauss_legendre",
    "mode_make",
    "modes_upto",
    "radial_profile",
    "eigenmode_value",
    "adaptive_quad_vec",
    "RADIAL_QUAD_POINTS",
]

# Default order of the radial Gauss-Legendre rule; doubling it must not move
# any reported integral by more than ~1e-10 (convergence guard in the tests).
RADIAL_QUAD_POINTS = 128
# Bisections of an adaptive_quad_vec panel before it is accepted with a warning.
_QUAD_MAX_DEPTH = 48


@dataclass(frozen=True)
class BesselMode:
    """One Dirichlet eigenmode of the unit-speed particle on a disk.

    ``m`` may be negative; the radial profile uses ``J_{|m|}`` so that
    ``(m, n)`` and ``(-m, n)`` share zero, wavenumber, energy and norm.
    """

    m: int
    n: int
    zero: float    # n-th positive zero of J_{|m|}
    k: float       # zero / r0
    energy: float  # hbar^2 k^2 / (2 mu)
    norm: float    # radial normalization A, 1/sqrt(int r J^2 dr)


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


def bessel_j_all(nmax: int, x) -> np.ndarray:
    """J_0(x) .. J_nmax(x) for finite x >= 0, shape (nmax + 1, *shape(x)).

    One ``scipy.special.jv`` call with the orders broadcast against x (scipy
    imported here, so that importing the package loads no scipy module).
    Callers pass each distinct radius once: fields are a radial factor times
    an angular one.  Raises ValueError naming a negative or non-finite x.
    """
    xarr = np.asarray(x, dtype=float)
    bad = ~((xarr >= 0) & np.isfinite(xarr))
    if np.any(bad):
        raise ValueError(
            f"bessel_j_all requires finite x >= 0, got {float(xarr[bad].flat[0])!r}")
    from scipy.special import jv

    xs = np.atleast_1d(xarr)
    return jv(np.arange(nmax + 1).reshape((-1,) + (1,) * xs.ndim), xs)


def _bessel_j_pair(m_abs: int, x):
    """J_{m_abs}(x) and dJ/dx, shaped like x: J'_0 = -J_1, 2 J'_m = J_{m-1} - J_{m+1}."""
    rows = bessel_j_all(m_abs + 1, x).reshape((m_abs + 2,) + np.shape(x))
    jp = -rows[1] if m_abs == 0 else 0.5 * (rows[m_abs - 1] - rows[m_abs + 1])
    return rows[m_abs], jp


def bessel_j(m: int, x):
    """Bessel function J_m(x) of nonnegative integer order.

    Rejects negative x; callers handle negative orders through
    J_{-m} = (-1)^m J_m.  Returns a scalar for scalar input.
    """
    if m < 0 or m != int(m):
        raise ValueError("order must be a nonnegative integer")
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    vals = bessel_j_all(int(m), x)[int(m)]
    return float(vals[0]) if scalar else vals


def bessel_j_derivative(m: int, x):
    """d/dx J_m(x) of nonnegative integer order; scalar for scalar input."""
    if m < 0 or m != int(m):
        raise ValueError("order must be a nonnegative integer")
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    jp = _bessel_j_pair(int(m), x)[1]
    return float(jp) if scalar else jp


@lru_cache(maxsize=None)
def bessel_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m (n >= 1), from ``scipy.special.jn_zeros``.

    scipy is imported here, not at module level, so that importing the
    package does not pay for loading ``scipy.special``.
    """
    if m < 0 or n < 1:
        raise ValueError("bessel_zero requires m >= 0 and n >= 1")
    from scipy.special import jn_zeros

    zero = float(jn_zeros(m, n)[-1])
    if not math.isfinite(zero):  # scipy returns nan past the orders it resolves
        raise ValueError(f"bessel_zero: scipy finds no finite zero for (m, n) = ({m}, {n})")
    return zero


@lru_cache(maxsize=None)
def _legendre_rule_unit(npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    if npoints < 1:
        raise ValueError("need at least one quadrature point")
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(npoints: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with `npoints` nodes on [a, b]."""
    if not a < b:
        raise ValueError("need a < b")
    xs, ws = _legendre_rule_unit(npoints)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return QuadratureRule(mid + half * xs, half * ws)


def mode_make(m: int, n: int, spec) -> BesselMode:
    """Build the (m, n) disk eigenmode for the given domain parameters.

    The normalization is the closed form A = sqrt(2) / (r0 |J_{|m|+1}(j)|)
    at the zero j; the tests check it against quadrature of ``int r J^2 dr``.
    """
    if n < 1:
        raise ValueError("radial index n must be >= 1")
    m_abs = abs(int(m))
    zero = bessel_zero(m_abs, n)
    k = zero / spec.r0
    energy = (spec.hbar * k) ** 2 / (2.0 * spec.mu)
    norm = math.sqrt(2.0) / (spec.r0 * abs(bessel_j(m_abs + 1, zero)))
    return BesselMode(m=int(m), n=int(n), zero=zero, k=k, energy=energy, norm=norm)


def _check_modes(modes, spec) -> None:
    """Reject a mode built for another disk radius than spec.r0."""
    for mode in modes:
        if abs(mode.k * spec.r0 - mode.zero) > 1e-12 * mode.zero:
            raise ValueError(
                f"mode ({mode.m}, {mode.n}) has k r0 = {mode.k * spec.r0!r}, not its "
                f"Bessel zero {mode.zero!r}: it was built for another r0 than {spec.r0!r}")


@lru_cache(maxsize=512)
def radial_profile(m_abs: int, n: int, r0: float, npoints: int):
    """``(rule, J, J', J'')`` of mode (+-m_abs, n) on the radial Gauss rule.

    J = J_{m_abs}(k r) with k = j_{m_abs,n} / r0, and its first two
    r-derivatives, at the ``npoints`` Gauss-Legendre nodes on [0, r0].  J''
    comes from Bessel's equation, regular since the nodes avoid r = 0.  The
    table is cached and shared, so its arrays are read-only.
    """
    k = bessel_zero(m_abs, n) / r0
    rule = gauss_legendre(npoints, 0.0, r0)
    x = k * rule.nodes
    j, jp = _bessel_j_pair(m_abs, x)
    jpp = -jp / x + (m_abs**2 / x**2 - 1.0) * j
    out = (rule, j, k * jp, k * k * jpp)
    for arr in (rule.nodes, rule.weights, *out[1:]):
        arr.flags.writeable = False
    return out


def modes_upto(m_max: int, n_max: int, spec) -> list[BesselMode]:
    """All modes with |m| <= m_max and 1 <= n <= n_max, ordered by (m, n)."""
    return [
        mode_make(m, n, spec)
        for m in range(-m_max, m_max + 1)
        for n in range(1, n_max + 1)
    ]


def eigenmode_value(mode: BesselMode, r, theta):
    """chi_{mn}(r, theta) = (2 pi)^{-1/2} A J_{|m|}(k r) e^{i m theta}."""
    radial = bessel_j(abs(mode.m), mode.k * np.asarray(r, dtype=float))
    ang = np.exp(1j * mode.m * np.asarray(theta, dtype=float))
    return (2.0 * math.pi) ** -0.5 * mode.norm * radial * ang


def adaptive_quad_vec(f, a: float, b: float, abs_tol: float, phase=None):
    """Adaptive Gauss quadrature of a vector-valued complex integrand.

    ``f(s_array)`` must return an array with the node axis last.  Panels are
    pre-split so the optional ``phase`` function varies by at most pi/4 per
    panel (oscillatory integrands), then refined by comparing 7- and
    15-point Gauss rules (their nodes are disjoint, so each panel costs 22
    integrand evaluations) until the local error estimate is below
    ``abs_tol`` scaled by the panel fraction.  A zero-width interval is one
    panel: ``f`` is evaluated only at ``a``, and the result is zeros.  Panels
    still above the tolerance after the module's ``_QUAD_MAX_DEPTH``
    bisections (read at call time) are accepted with a UserWarning; a
    non-finite panel estimate raises ValueError.
    """
    if not b >= a:  # also rejects a nan bound
        raise ValueError(f"need b >= a, got [{a!r}, {b!r}]")
    x7, w7 = _legendre_rule_unit(7)
    x15, w15 = _legendre_rule_unit(15)
    total_width = b - a

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        v15 = np.asarray(f(mid + half * x15), dtype=complex)
        i15 = half * (v15 @ w15)
        v7 = np.asarray(f(mid + half * x7), dtype=complex)
        i7 = half * (v7 @ w7)
        return i15, np.max(np.abs(i15 - i7))

    # initial panels from a to b, each capped by the phase variation
    stack, lo = [], a
    while not stack or lo < b:
        step = b - lo
        while (phase is not None and abs(phase(lo + step) - phase(lo)) > 0.25 * math.pi
               and step > total_width * 1e-12):
            step *= 0.5
        stack.append((lo, min(lo + step, b), 0))
        lo = stack[-1][1]

    total = 0.0
    unconverged = []
    while stack:
        lo, hi, depth = stack.pop()
        val, err = panel(lo, hi)
        if not math.isfinite(err):  # also catches a non-finite val
            raise ValueError(f"non-finite integrand estimate on [{lo!r}, {hi!r}]")
        # err > 0 first: a zero-width interval has no panel fraction
        if err > 0 and err > abs_tol * max((hi - lo) / total_width, 1e-3):
            if depth < _QUAD_MAX_DEPTH:
                mid = 0.5 * (lo + hi)
                stack.append((lo, mid, depth + 1))
                stack.append((mid, hi, depth + 1))
                continue
            unconverged.append((lo, hi))
        total = total + val
    if unconverged:
        lo = min(p[0] for p in unconverged)
        hi = max(p[1] for p in unconverged)
        warnings.warn(f"adaptive_quad_vec: {len(unconverged)} panel(s) in "
                      f"[{lo!r}, {hi!r}] reached max_depth={_QUAD_MAX_DEPTH} above "
                      "their error tolerance", UserWarning, stacklevel=2)
    return total
