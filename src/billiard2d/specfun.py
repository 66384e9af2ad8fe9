"""Special-function kernel: integer-order Bessel J, its zeros, disk
eigenmodes, Gauss-Legendre quadrature and adaptive Gauss-Kronrod quadrature.

J_m comes from the C math library's ``jn(int, double)`` (POSIX), bound once
with ctypes, and its zeros from a sign-change scan and bisection on the same
``jn``; the Gauss-Legendre nodes from ``numpy.polynomial.legendre.leggauss``,
the Gauss-Kronrod 7/15 pair from QUADPACK's published table, and mode norms
from their closed form.  All routines are pure functions; cached tables are
read-only.
"""

from __future__ import annotations

import ctypes
import math
import numbers
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
# QUADPACK's qk15 (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
# QUADPACK, Springer 1983): the Kronrod nodes x > 0 descending, then 0; their
# K15 weights; and the G7 weights at x[1], x[3], x[5] and 0.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the 15 nodes on [-1, 1] ascending and their weights; the odd-indexed nodes
# are the 7 Gauss nodes
_KRONROD_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
_GAUSS_WEIGHTS = np.array(_WG[:-1] + _WG[::-1])
# Mode indices |m| and n stay below this: jn costs O(m) per call, and the scan
# for the n-th zero takes about n steps.
_MAX_INDEX = 5000


# J_m from the C math library's jn(int, double), which the interpreter has
# already loaded (it links libm; musl and macOS keep it in libc).
try:
    _jn = ctypes.CDLL(None).jn
except AttributeError:
    raise ImportError("billiard2d.specfun needs the C math library's jn(int, double), "
                      "and no loaded library exports the symbol 'jn'") from None
_jn.restype = ctypes.c_double
_jn.argtypes = (ctypes.c_int, ctypes.c_double)
_jn_ufunc = np.frompyfunc(_jn, 2, 1)  # object-dtype result; callers cast to float


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

    Each distinct x is evaluated once.  Raises ValueError naming a negative
    or non-finite x.
    """
    return _bessel_rows(range(nmax + 1), np.atleast_1d(np.asarray(x, dtype=float)))


def _bessel_rows(orders, x) -> np.ndarray:
    """J_k(x) for each k in `orders`, shape (len(orders), *shape(x)), from
    ``jn`` at each distinct x once (a field on an (r, theta) mesh repeats
    every radius); ValueError naming a negative or non-finite x."""
    xarr = np.asarray(x, dtype=float)
    bad = ~((xarr >= 0) & np.isfinite(xarr))
    if np.any(bad):
        raise ValueError(f"J_m requires finite x >= 0, got {float(xarr[bad].flat[0])!r}")
    xs, where = np.unique(xarr, return_inverse=True)
    rows = _jn_ufunc(np.asarray(orders, dtype=int)[:, None], xs).astype(float)
    return rows[:, where.reshape(xarr.shape)]


def _bessel_j_pair(m_abs: int, x):
    """J_{m_abs}(x) and dJ/dx, shaped like x: J'_0 = -J_1, 2 J'_m = J_{m-1} - J_{m+1}."""
    if m_abs == 0:
        j, j1 = _bessel_rows((0, 1), x)
        return j, -j1
    lower, j, upper = _bessel_rows((m_abs - 1, m_abs, m_abs + 1), x)
    return j, 0.5 * (lower - upper)


def bessel_j(m: int, x):
    """Bessel function J_m(x) of nonnegative integer order.

    Rejects negative x; callers handle negative orders through
    J_{-m} = (-1)^m J_m.  Returns a scalar for scalar input.
    """
    if m < 0 or m != int(m):
        raise ValueError("order must be a nonnegative integer")
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    vals = _bessel_rows((int(m),), x)[0]
    return float(vals) if scalar else vals


def bessel_j_derivative(m: int, x):
    """d/dx J_m(x) of nonnegative integer order; scalar for scalar input."""
    if m < 0 or m != int(m):
        raise ValueError("order must be a nonnegative integer")
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    jp = _bessel_j_pair(int(m), x)[1]
    return float(jp) if scalar else jp


def _mode_indices(m, n) -> tuple[int, int]:
    """(m, n) as ints; one ValueError naming (m, n) unless both are integers
    with |m| and n below _MAX_INDEX and n >= 1."""
    if not (isinstance(m, numbers.Integral) and isinstance(n, numbers.Integral)
            and abs(m) < _MAX_INDEX and 1 <= n < _MAX_INDEX):
        raise ValueError(f"no Bessel zero for (m, n) = ({m}, {n}): need integers "
                         f"|m| < {_MAX_INDEX} and 1 <= n < {_MAX_INDEX}")
    return int(m), int(n)


@lru_cache(maxsize=None, typed=True)  # typed: a float index never hits an int's entry
def bessel_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m (m >= 0, n >= 1), both below _MAX_INDEX.

    A scan from x = m (J_m has no positive zero below m) in unit steps,
    below the gap between consecutive zeros (above 3 for every integer
    order), counts the sign changes of ``jn(m, x)``; the n-th bracket is
    bisected down to adjacent doubles, and the end with the smaller |J| is
    returned.  An out-of-range (m, n) raises ValueError, which is not cached.
    """
    m, n = _mode_indices(m, n)
    if m < 0:
        raise ValueError(f"bessel_zero requires m >= 0, got (m, n) = ({m}, {n})")
    lo, f_lo, seen = float(m), _jn(m, float(m)), 0
    while True:
        hi = lo + 1.0
        f_hi = _jn(m, hi)
        if (f_lo > 0) != (f_hi > 0):
            seen += 1
            if seen == n:
                break
        lo, f_lo = hi, f_hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = _jn(m, mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


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
    m, n = _mode_indices(m, n)
    m_abs = abs(m)
    zero = bessel_zero(m_abs, n)
    k = zero / spec.r0
    energy = (spec.hbar * k) ** 2 / (2.0 * spec.mu)
    norm = math.sqrt(2.0) / (spec.r0 * abs(bessel_j(m_abs + 1, zero)))
    return BesselMode(m=m, n=n, zero=zero, k=k, energy=energy, norm=norm)


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


def adaptive_quad_vec(f, a: float, b: float, abs_tol: float):
    """Adaptive Gauss-Kronrod quadrature of a vector-valued complex integrand.

    ``f(s_array)`` must return an array with the node axis last.  The first
    panel is [a, b]; each panel is one ``f`` call on the 15 nodes of
    QUADPACK's nested Kronrod rule, whose value is the K15 sum and whose
    error estimate is |K15 - G7| from the 7 Gauss nodes among them.  A panel
    is bisected until that estimate is below ``abs_tol`` times its fraction
    of b - a, floored at 1e-3.  A zero-width interval is one panel: ``f`` is
    evaluated only at ``a``, and the result is zeros.  Panels still above the
    tolerance after the module's ``_QUAD_MAX_DEPTH`` bisections (read at call
    time) are accepted with a UserWarning; a non-finite panel estimate, or an
    abs_tol that is not finite and > 0, raises ValueError.
    """
    if not b >= a:  # also rejects a nan bound
        raise ValueError(f"need b >= a, got [{a!r}, {b!r}]")
    if not (math.isfinite(abs_tol) and abs_tol > 0):
        raise ValueError(f"abs_tol must be finite and > 0, got {abs_tol!r}")
    total_width = b - a

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        v = np.asarray(f(0.5 * (lo + hi) + half * _KRONROD_NODES), dtype=complex)
        k15 = half * (v @ _KRONROD_WEIGHTS)
        g7 = half * (v[..., 1::2] @ _GAUSS_WEIGHTS)
        return k15, np.max(np.abs(k15 - g7))

    stack = [(a, b, 0)]
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
