"""First-order time-dependent perturbation theory for the circle-to-ellipse
deformation: radial and time integrals, selection rules, assembled matrix
elements and transition amplitudes.

The assembled element follows the direct operator derivation (angular
integral of cos(theta) e^{i(m'-m)theta} giving half the Kronecker pair, the
quadratic phase contributing through its radial gradient).  It reproduces
the brute-force space-time quadrature of the sandwich to machine precision;
see the oracle cross-checks in the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import specfun
from .domain import DomainSpec
from .specfun import BesselMode, _check_modes, radial_profile

__all__ = [
    "ModePair",
    "ElementBreakdown",
    "AmplitudeTable",
    "w_integral",
    "f_integral",
    "element",
    "amplitudes",
]

# first-order leakage into the requested targets above which TDPT is
# suspect; calibrated against the CN oracle (README, Conventions)
REGIME_LIMIT = 0.04
_F_TOL = 1e-10  # absolute error of the F integrals in element and amplitudes


@dataclass(frozen=True)
class ModePair:
    """Matrix-element pair: bra is the target sigma, ket the source sigma'."""

    source: BesselMode
    target: BesselMode

    @property
    def allowed(self) -> bool:
        return abs(self.target.m - self.source.m) == 1

    @property
    def delta_plus(self) -> bool:
        return self.target.m == self.source.m + 1


@dataclass(frozen=True)
class ElementBreakdown:
    """Contributions of the three first-order operators."""

    h1: complex
    h2: complex
    h3: complex

    @property
    def total(self) -> complex:
        return self.h1 + self.h2 + self.h3


def _omega(pair: ModePair, spec: DomainSpec) -> float:
    """Angular frequency Delta E / hbar of the pair's F integrands."""
    _check_modes((pair.source, pair.target), spec)
    return (pair.target.energy - pair.source.energy) / spec.hbar


def _w_values(pair: ModePair, spec: DomainSpec) -> tuple:
    """W^(1)..W^(4) of a pair from the shared radial table (see w_integral)."""
    tgt, src = pair.target, pair.source
    _check_modes((src, tgt), spec)
    rule, jt, _, _ = radial_profile(abs(tgt.m), tgt.n, spec.r0, specfun.RADIAL_QUAD_POINTS)
    _, js, djs, _ = radial_profile(abs(src.m), src.n, spec.r0, specfun.RADIAL_QUAD_POINTS)
    r, w = rule.nodes, rule.weights
    aa = tgt.norm * src.norm
    return (float(aa * np.sum(w * jt * (js / r + djs))),
            float(aa * np.sum(w * r * jt * js)),
            float(aa * np.sum(w * r**3 * jt * js)),
            float(aa * np.sum(w * r**2 * jt * djs)))


def w_integral(k: int, pair: ModePair, spec: DomainSpec) -> float:
    """Radial integral W^(k), k in 1..4, with the analytic Bessel derivative,
    on specfun's RADIAL_QUAD_POINTS-node Gauss rule (read at call time).

    W1 = A A' int J (1/r + d_r) J' dr        (measure dr)
    W2 = A A' int r J J' dr
    W3 = A A' int r^3 J J' dr
    W4 = A A' int r^2 J d_r J' dr

    Gauss-Legendre nodes never touch r = 0, and for selection-allowed pairs
    at least one of |m|, |m'| is >= 1, so the 1/r integrand of W1 has a
    finite limit and direct evaluation is stable; the only genuinely
    divergent case (both orders zero) is annihilated by the selection
    prefactors and is rejected here.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("w_integral index must be 1..4")
    if k == 1 and abs(pair.target.m) == 0 and abs(pair.source.m) == 0:
        raise ValueError("W1 diverges between two m=0 modes (selection-forbidden)")
    return _w_values(pair, spec)[k - 1]


_LEVIN_POINTS = 48      # Chebyshev-Lobatto points per Levin panel
_LEVIN_MAX_DEPTH = 30   # bisections of a panel before it is accepted as is
_LEVIN_TAIL = 4         # trailing Chebyshev coefficients that estimate the error
_ROUNDOFF_TAIL = 64 * 2.0**-52  # tail of an h resolved to rounding (64 ulp of max|h|)


@lru_cache(maxsize=None)
def _levin_table() -> tuple:
    """Chebyshev-Lobatto nodes on [-1, 1] (ascending), their barycentric
    weights, the differentiation matrix and the rows that map values to the
    trailing Chebyshev coefficients (Trefethen, Spectral Methods in MATLAB)."""
    n = _LEVIN_POINTS - 1
    j = np.arange(_LEVIN_POINTS)
    x = np.sin(np.pi * (2 * j - n) / (2 * n))
    w = (-1.0) ** j
    w[[0, n]] *= 0.5
    dx = x[:, None] - x[None, :] + np.eye(_LEVIN_POINTS)
    diff = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    k = np.arange(n + 1 - _LEVIN_TAIL, n + 1)
    tail = (2.0 / n) * np.cos(np.pi * np.outer(k, n - j) / n)
    tail[:, [0, n]] *= 0.5
    tail[k == n] *= 0.5
    for arr in (x, w, diff, tail):
        arr.flags.writeable = False
    return x, w, diff, tail


def _barycentric(x, w, values, y):
    """The polynomial through `values` at the nodes `x`, evaluated at `y`."""
    dy = y[:, None] - x[None, :]
    hit = dy == 0.0
    dy[hit] = 1.0
    k = w / dy
    out = (k @ values) / k.sum(axis=1)[:, None]
    rows, cols = np.nonzero(hit)
    out[rows] = values[cols]
    return out


def _f_values(omegas, spec: DomainSpec, times, tol: float) -> np.ndarray:
    """F^(1)..F^(5) for each angular frequency in `omegas` at each of the
    nondecreasing `times`, shape (len(omegas), len(times), 5).

    In u = s / (1 + kappa s) every integrand is h_k(u) e^{i omega u}, with
    omega = Delta E / hbar and h_k(u) = f_k(s(u)) / (1 - kappa u)^2 smooth.
    Levin collocation: on each panel [a, b] of u, the polynomial p through
    Chebyshev-Lobatto points solving (d/du + i omega) p = h in the least
    squares sense is the non-oscillatory antiderivative factor, so
    F(u) = p(u) e^{i omega u} - p(a) e^{i omega a} plus the panels before,
    read off at every sample of the panel by barycentric interpolation.
    The first panel is [0, u_end], and a panel is bisected while the
    trailing Chebyshev coefficients of h exceed tol / u_end, so the summed
    error stays near `tol`; each panel forms 1 - kappa u from its own left
    end, so near the pole u = 1/kappa h carries the rounding of the panel's
    distance to the pole, not of u.  Panels still above tolerance after
    _LEVIN_MAX_DEPTH bisections are accepted with one UserWarning.  A time
    the box does not reach (DomainSpec.lam) or a non-finite g or gdot
    (DomainSpec.g) raises ValueError.  None of this involves omega, so one
    panel pass serves every frequency: only the solve for p, its read-out
    and the carry are per omega.
    """
    hbar, mu, ld = spec.hbar, spec.mu, spec.kappa
    times = np.asarray(times, dtype=float)
    samples = times / spec.lam(times)
    out = np.zeros((len(omegas), len(times), 5), dtype=complex)
    u_end = float(samples[-1])
    if u_end <= 0.0 or not len(omegas):
        return out

    def s_of(u):
        return u / (1.0 - ld * u)

    def h(lo, half):
        v = half * (x + 1.0)
        lam = 1.0 / ((1.0 - ld * lo) - ld * v)  # the panel's own distance to the pole
        s = (lo + v) * lam
        g, gd = spec.g(s), spec.gdot(s)
        return np.stack([
            hbar**2 / (2.0 * mu) * g,
            1j * hbar * ld * g * lam,
            -mu * ld**2 * g * lam**2,
            0.5j * hbar * gd * lam**2,
            -0.5 * mu * ld * gd * lam**3,
        ], axis=-1)

    x, w, diff, tail = _levin_table()
    eye = np.eye(_LEVIN_POINTS)
    limit = tol / u_end
    carry = np.zeros((len(omegas), 5), dtype=complex)
    first = 0
    unconverged = []
    stack = [(0.0, u_end, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        half = 0.5 * (hi - lo)
        hv = h(lo, half)
        coeffs = np.abs(tail @ hv).max(axis=0)
        if np.any(coeffs > np.maximum(limit, _ROUNDOFF_TAIL * np.abs(hv).max(axis=0))):
            if depth < _LEVIN_MAX_DEPTH:
                mid = lo + half
                stack.append((mid, hi, depth + 1))
                stack.append((lo, mid, depth + 1))
                continue
            unconverged.append((lo, hi))
        last = np.searchsorted(samples, hi, side="right") if stack else len(samples)
        us = samples[first:last]
        y = (us - lo) / half - 1.0
        for i, omega in enumerate(omegas):
            p = np.linalg.lstsq(diff / half + 1j * omega * eye, hv)[0]
            pu = _barycentric(x, w, p, y)
            base = np.exp(1j * omega * lo)
            out[i, first:last] = carry[i] + base * (
                pu * np.exp(1j * omega * (us - lo))[:, None] - p[0])
            carry[i] = carry[i] + base * (p[-1] * np.exp(2j * omega * half) - p[0])
        first = last
    if unconverged:
        lo = min(pan[0] for pan in unconverged)
        hi = max(pan[1] for pan in unconverged)
        # stacklevel 3: the caller of amplitudes, element or f_integral
        warnings.warn(f"F integrals: {len(unconverged)} panel(s) in t in "
                      f"[{s_of(lo)!r}, {s_of(hi)!r}] reached max_depth="
                      f"{_LEVIN_MAX_DEPTH} above their error tolerance",
                      UserWarning, stacklevel=3)
    return out


def f_integral(k: int, pair: ModePair, spec: DomainSpec, t: float) -> complex:
    """Oscillatory time integral F^(k)(t), k in 1..5, to the module's
    absolute error _F_TOL (read at call time, as element and amplitudes do)."""
    if k not in (1, 2, 3, 4, 5):
        raise ValueError("f_integral index must be 1..5")
    return complex(_f_values([_omega(pair, spec)], spec, [t], _F_TOL)[0, 0, k - 1])


def _assemble(pair: ModePair, spec: DomainSpec, fvals, wvals) -> tuple:
    """Combine F and W integrals into the three operator contributions (h1, h2, h3).

    `fvals` is the (n, 5) array of F^(1)..F^(5) at n times; each
    contribution is an array of length n.

    The cos(theta) profile contributes (delta+ + delta-)/2 from the angular
    integral; the H3 operator's 2 sin(theta) d_theta part promotes that to
    the signed prefactor (1/2 + m') delta+ + (1/2 - m') delta-.
    """
    f1, f2, f3, f4, f5 = fvals.T
    w1, w2, w3, w4 = wvals
    eps = spec.epsilon
    ks2 = pair.source.k**2
    sm = pair.source.m
    h1 = eps * (f2 * (w2 + w4) + 0.5 * f3 * w3 - ks2 * f1 * w2)
    h2 = eps * (f4 * (w2 + w4) + f5 * w3)
    mpref = (0.5 + sm) if pair.delta_plus else (0.5 - sm)
    h3 = -eps * mpref * (f1 * w1 + 0.5 * f2 * w2)
    return h1, h2, h3


def element(pair: ModePair, spec: DomainSpec, t: float) -> ElementBreakdown:
    """Time-integrated first-order matrix element int_0^t <phi|H^(1)(s)|phi'> ds,
    with the amplitudes' F tolerance and radial table.

    Exactly zero (selection rule) unless the angular indices differ by one.
    """
    spec.lam(t)  # a forbidden pair computes nothing, but its t must be a time of the box
    if not pair.allowed:
        return ElementBreakdown(0j, 0j, 0j)
    fvals = _f_values([_omega(pair, spec)], spec, [t], _F_TOL)[0]
    h1, h2, h3 = (complex(h[0]) for h in _assemble(pair, spec, fvals, _w_values(pair, spec)))
    return ElementBreakdown(h1, h2, h3)


@dataclass
class AmplitudeTable:
    """First-order amplitudes a_sigma(t) on a time grid, one row per target."""

    times: np.ndarray
    initial: BesselMode
    entries: dict = field(default_factory=dict)  # BesselMode -> complex array
    regime_ok: bool = True

    def population(self, mode: BesselMode) -> np.ndarray:
        return np.abs(self.entries[mode]) ** 2

    def leakage(self) -> np.ndarray:
        """First-order transition probability into the requested targets."""
        tot = np.zeros_like(self.times, dtype=float)
        for m, a in self.entries.items():
            if m != self.initial:
                tot += np.abs(a) ** 2
        return tot


def amplitudes(initial: BesselMode, targets, spec: DomainSpec, times) -> AmplitudeTable:
    """First-order TDPT amplitudes from `initial` to each target mode.

    a_sigma(t) = delta_{sigma,initial} - (i/hbar) * element(sigma <- initial, t);
    the five time integrals of every allowed target come at every grid time
    from one Levin collocation pass (see _f_values).  When the leakage into
    the given targets exceeds REGIME_LIMIT the table's ``regime_ok`` is False
    and one UserWarning says so; targets not asked for do not count.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a nonempty strictly increasing grid")
    pairs = [ModePair(source=initial, target=tg) for tg in dict.fromkeys(targets)]
    allowed = [p for p in pairs if p.allowed]
    fvals = iter(_f_values([_omega(p, spec) for p in allowed], spec, times, _F_TOL))
    table = AmplitudeTable(times=times, initial=initial)
    for p in pairs:
        delta = 1.0 if p.target == initial else 0.0
        if not p.allowed:
            table.entries[p.target] = np.full(len(times), delta, dtype=complex)
            continue
        wvals = _w_values(p, spec)
        table.entries[p.target] = delta - 1j / spec.hbar * sum(
            _assemble(p, spec, next(fvals), wvals))
    leak = table.leakage()
    if leak.max() > REGIME_LIMIT:
        table.regime_ok = False
        warnings.warn(
            f"first-order leakage reaches {leak.max():.3f} > {REGIME_LIMIT}; "
            "outside the perturbative regime", stacklevel=2)
    return table
