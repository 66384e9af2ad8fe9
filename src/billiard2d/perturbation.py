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

import numpy as np

from .domain import DomainSpec, check_deformation_regime
from .pantograph import beta
from .specfun import (
    RADIAL_QUAD_POINTS,
    BesselMode,
    adaptive_quad_vec,
    radial_profile,
)

__all__ = [
    "ModePair",
    "ElementBreakdown",
    "AmplitudeTable",
    "xi",
    "w_integral",
    "f_integral",
    "element",
    "amplitudes",
]

REGIME_LIMIT = 0.25  # total first-order leakage above which TDPT is suspect


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

    @property
    def delta_minus(self) -> bool:
        return self.target.m == self.source.m - 1


@dataclass(frozen=True)
class ElementBreakdown:
    """Contributions of the three first-order operators plus their pieces."""

    h1: complex
    h2: complex
    h3: complex
    fvals: tuple          # F^(1)..F^(5) time integrals
    wvals: tuple | None   # W^(1)..W^(4) radial integrals (None if forbidden)

    @property
    def total(self) -> complex:
        return self.h1 + self.h2 + self.h3


def xi(pair: ModePair, spec: DomainSpec, t) -> float:
    """Relative phase beta_source(t) - beta_target(t).

    Under the beta(0) = 0 convention this is
    (E_target - E_source) t / (hbar (1 + kappa t)).
    """
    return beta(pair.source, spec, t) - beta(pair.target, spec, t)


def _check_span(spec: DomainSpec, t: float) -> None:
    """Reject a time span [0, t] over which the box collapses.

    lambda is linear with lambda(0) = 1, so it stays positive on the span
    exactly when it is positive at t.
    """
    if spec.lam(t) <= 0:
        raise ValueError(
            f"lambda(t) = 1 + kappa t <= 0 by t = {float(t):g}: the box collapses")


def _w_values(pair: ModePair, spec: DomainSpec, npoints: int) -> tuple:
    """W^(1)..W^(4) of a pair from the shared radial table (see w_integral)."""
    tgt, src = pair.target, pair.source
    rule, jt, _, _ = radial_profile(abs(tgt.m), tgt.n, spec.r0, npoints)
    _, js, djs, _ = radial_profile(abs(src.m), src.n, spec.r0, npoints)
    r, w = rule.nodes, rule.weights
    aa = tgt.norm * src.norm
    return (float(aa * np.sum(w * jt * (js / r + djs))),
            float(aa * np.sum(w * r * jt * js)),
            float(aa * np.sum(w * r**3 * jt * js)),
            float(aa * np.sum(w * r**2 * jt * djs)))


def w_integral(k: int, pair: ModePair, spec: DomainSpec,
               npoints: int = RADIAL_QUAD_POINTS) -> float:
    """Radial integral W^(k), k in 1..4, with the analytic Bessel derivative.

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
    return _w_values(pair, spec, npoints)[k - 1]


def _f_values(pair: ModePair, spec: DomainSpec, times, tol: float) -> np.ndarray:
    """F^(1)..F^(5) at each of the increasing `times`, shape (len(times), 5).

    One vector integrand, integrated between consecutive times and summed.
    """
    hbar, mu, ld = spec.hbar, spec.mu, spec.kappa
    de = pair.target.energy - pair.source.energy

    def phase(s):
        return de * s / (hbar * (1.0 + spec.kappa * s))

    def f(svals):
        s = np.atleast_1d(np.asarray(svals, dtype=float))
        lam = spec.lam(s)
        g = spec.g(s)
        gd = spec.gdot(s)
        ph = np.exp(1j * phase(s))
        return np.stack([
            hbar**2 / (2.0 * mu) * g / lam**2 * ph,
            1j * hbar * g * ld / lam * ph,
            -mu * g * ld**2 * ph,
            0.5j * hbar * gd * ph,
            -0.5 * mu * gd * lam * ld * ph,
        ])

    out = np.zeros((len(times), 5), dtype=complex)
    fcum = np.zeros(5, dtype=complex)
    prev = 0.0
    for i, t in enumerate(times):
        if t > prev:
            fcum = fcum + adaptive_quad_vec(f, prev, float(t), tol, phase=phase)
            prev = float(t)
        out[i] = fcum
    return out


def f_integral(k: int, pair: ModePair, spec: DomainSpec, t: float,
               abs_tol: float = 1e-10) -> complex:
    """Oscillatory time integral F^(k)(t), k in 1..5, to abs_tol."""
    if k not in (1, 2, 3, 4, 5):
        raise ValueError("f_integral index must be 1..5")
    _check_span(spec, t)
    return complex(_f_values(pair, spec, [t], abs_tol)[0, k - 1])


def _assemble(pair: ModePair, spec: DomainSpec, fvals, wvals) -> tuple:
    """Combine F and W integrals into the three operator contributions (h1, h2, h3).

    The cos(theta) profile contributes (delta+ + delta-)/2 from the angular
    integral; the H3 operator's 2 sin(theta) d_theta part promotes that to
    the signed prefactor (1/2 + m') delta+ + (1/2 - m') delta-.
    """
    f1, f2, f3, f4, f5 = fvals
    w1, w2, w3, w4 = wvals
    eps = spec.epsilon
    ks2 = pair.source.k**2
    sm = pair.source.m
    h1 = eps * (f2 * (w2 + w4) + 0.5 * f3 * w3 - ks2 * f1 * w2)
    h2 = eps * (f4 * (w2 + w4) + f5 * w3)
    mpref = (0.5 + sm) if pair.delta_plus else (0.5 - sm)
    h3 = -eps * mpref * (f1 * w1 + 0.5 * f2 * w2)
    return complex(h1), complex(h2), complex(h3)


def element(pair: ModePair, spec: DomainSpec, t: float,
            w_points: int = RADIAL_QUAD_POINTS,
            f_tol: float = 1e-10) -> ElementBreakdown:
    """Time-integrated first-order matrix element int_0^t <phi|H^(1)(s)|phi'> ds.

    Exactly zero (selection rule) unless the angular indices differ by one.
    """
    _check_span(spec, t)
    if not pair.allowed:
        return ElementBreakdown(0j, 0j, 0j, fvals=(0j,) * 5, wvals=None)
    fvals = _f_values(pair, spec, [t], f_tol)[0]
    wvals = _w_values(pair, spec, w_points)
    h1, h2, h3 = _assemble(pair, spec, fvals, wvals)
    return ElementBreakdown(h1, h2, h3, fvals=tuple(map(complex, fvals)),
                            wvals=tuple(wvals))


@dataclass
class AmplitudeTable:
    """First-order amplitudes a_sigma(t) on a time grid, one row per target."""

    times: np.ndarray
    initial: BesselMode
    entries: dict = field(default_factory=dict)  # BesselMode -> complex array
    regime_ok: bool = True

    def population(self, mode: BesselMode) -> np.ndarray:
        return np.abs(self.entries[mode]) ** 2

    def populations(self) -> dict:
        return {m: self.population(m) for m in self.entries}

    def leakage(self) -> np.ndarray:
        """Total first-order transition probability out of the initial mode."""
        tot = np.zeros_like(self.times, dtype=float)
        for m, a in self.entries.items():
            if m != self.initial:
                tot += np.abs(a) ** 2
        return tot


def _amplitude_row(initial, target, spec, times, w_points, f_tol):
    pair = ModePair(source=initial, target=target)
    delta = 1.0 if target == initial else 0.0
    out = np.full(len(times), delta, dtype=complex)
    if not pair.allowed:
        return out
    wvals = _w_values(pair, spec, w_points)
    for i, fvals in enumerate(_f_values(pair, spec, times, f_tol)):
        h1, h2, h3 = _assemble(pair, spec, fvals, wvals)
        out[i] = delta - 1j / spec.hbar * (h1 + h2 + h3)
    return out


def amplitudes(initial: BesselMode, targets, spec: DomainSpec, times,
               w_points: int = RADIAL_QUAD_POINTS,
               f_tol: float = 1e-10) -> AmplitudeTable:
    """First-order TDPT amplitudes from `initial` to each target mode.

    a_sigma(t) = delta_{sigma,initial} - (i/hbar) * element(sigma <- initial, t);
    the five time integrals per pair are accumulated panel-by-panel along the
    grid.  Flags the table when total leakage leaves the perturbative regime.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a nonempty strictly increasing grid")
    if times[0] < 0:
        raise ValueError("times must be nonnegative")
    _check_span(spec, times[-1])
    check_deformation_regime(spec, float(times[-1]))
    table = AmplitudeTable(times=times, initial=initial)
    for tg in targets:
        table.entries[tg] = _amplitude_row(initial, tg, spec, times, w_points, f_tol)
    leak = table.leakage()
    if leak.max() > REGIME_LIMIT:
        table.regime_ok = False
        warnings.warn(
            f"first-order leakage reaches {leak.max():.3f} > {REGIME_LIMIT}; "
            "outside the perturbative regime", stacklevel=2)
    return table
