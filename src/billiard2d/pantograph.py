"""Exact dynamics for shape-preserving (pantographic) wall motion at constant
speed: closed-form solutions on the fixed disk, the boundary-contact energy
rate, and mean energy by quadrature.

The closed forms below hold for lambda(t) = 1 + kappa t only (zero wall
acceleration); DomainSpec cannot express accelerating dilations, so there is
no silent wrong-formula path -- general boundaries go through the grid
propagator in :mod:`billiard2d.oracle`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec, _check_span
from .specfun import RADIAL_QUAD_POINTS, BesselMode, _bessel_j_pair, radial_profile

__all__ = [
    "PantographicState",
    "alpha",
    "beta",
    "phi_exact",
    "psi_exact",
    "energy_rate",
    "mean_energy",
]

_RATE_THETA = 512  # angular nodes of the rim integral in energy_rate


def alpha(spec: DomainSpec, t) -> float:
    """Quadratic phase coefficient mu * lam * lamdot / (2 hbar).

    Mode independent: every exact solution carries the same e^{i alpha r^2}
    dressing.
    """
    return spec.mu * spec.lam(t) * spec.kappa / (2.0 * spec.hbar)


def beta(mode: BesselMode, spec: DomainSpec, t) -> float:
    """Accumulated mode phase -(E/hbar) * t / (1 + kappa t), with beta(0) = 0.

    Closed antiderivative of -E / (hbar lam(s)^2); reduces to the static-box
    phase -E t / hbar when kappa = 0.
    """
    t = np.asarray(t, dtype=float)
    # 0.0 - x rather than -x, so that beta(0) is +0.0, not -0.0
    return 0.0 - (mode.energy / spec.hbar) * t / (1.0 + spec.kappa * t)


def phi_exact(mode: BesselMode, spec: DomainSpec, r, theta, t):
    """Fixed-picture exact solution e^{i(alpha r^2 + beta)} chi_{mn}(r, theta)."""
    return PantographicState.single(mode).value(spec, r, theta, t)


def psi_exact(mode: BesselMode, spec: DomainSpec, r, theta, t):
    """Moving-picture solution; vanishes on the moving wall r = lam(t) r0."""
    _check_span(spec, t)  # before dividing by lam
    lam = spec.lam(t)
    return phi_exact(mode, spec, np.asarray(r, dtype=float) / lam, theta, t) / lam


@dataclass(frozen=True)
class PantographicState:
    """Superposition over exact pantographic solutions with fixed weights.

    Amplitudes are constants of motion; only the phases alpha(t), beta_k(t)
    evolve.  Provides pointwise value and analytic radial derivative of the
    fixed-picture wavefunction, which is what the energy diagnostics need.
    """

    modes: tuple
    amplitudes: tuple

    def __post_init__(self):
        if len(self.modes) != len(self.amplitudes):
            raise ValueError("one amplitude per mode")
        total = sum(abs(a) ** 2 for a in self.amplitudes)
        if not abs(total - 1.0) <= 1e-12:  # also rejects nan and inf
            raise ValueError(f"state not normalized: sum |c|^2 = {total!r}")

    @staticmethod
    def single(mode: BesselMode) -> "PantographicState":
        return PantographicState((mode,), (1.0 + 0.0j,))

    @staticmethod
    def superposition(modes, amplitudes) -> "PantographicState":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"amplitudes need a finite nonzero norm, got {norm!r}")
        return PantographicState(tuple(modes), tuple(amps / norm))

    def _angular(self, spec: DomainSpec, theta, t):
        """(mode, c A e^{i(m theta + beta)} / sqrt(2 pi)) for each mode.

        Every field and energy goes through here, so this is where a time the
        box does not reach is rejected (see _check_span).
        """
        _check_span(spec, t)
        theta = np.asarray(theta, dtype=float)
        pref = (2.0 * math.pi) ** -0.5
        return [(mode, c * pref * mode.norm
                 * np.exp(1j * (mode.m * theta + beta(mode, spec, t))))
                for mode, c in zip(self.modes, self.amplitudes)]

    def fields(self, spec: DomainSpec, r, theta, t):
        """(phi, d_r phi); time enters only through alpha and beta.

        Radial J_{|m|}(k r) and k J' times the angular factors, dressed with
        e^{i alpha r^2}, which adds 2 i alpha r phi to d_r phi.
        """
        r = np.asarray(r, dtype=float)
        u = du = 0.0
        for mode, ang in self._angular(spec, theta, t):
            j, jp = _bessel_j_pair(abs(mode.m), mode.k * r)
            u = u + j * ang
            du = du + mode.k * jp * ang
        a = alpha(spec, t)
        dress = np.exp(1j * a * r**2)
        return dress * u, dress * (du + 2j * a * r * u)

    def value(self, spec: DomainSpec, r, theta, t):
        return self.fields(spec, r, theta, t)[0]

    def d_dr(self, spec: DomainSpec, r, theta, t):
        """Radial derivative, analytic: phase term plus k A J' e^{im theta}."""
        return self.fields(spec, r, theta, t)[1]


def _check_modes(state, spec: DomainSpec) -> None:
    """Reject a state whose modes were built for another disk radius than spec.r0."""
    for mode in getattr(state, "modes", ()):
        if abs(mode.k * spec.r0 - mode.zero) > 1e-12 * mode.zero:
            raise ValueError(
                f"mode ({mode.m}, {mode.n}) has k r0 = {mode.k * spec.r0!r}, not its "
                f"Bessel zero {mode.zero!r}: it was built for another r0 than {spec.r0!r}")


def energy_rate(state, spec: DomainSpec, t) -> float:
    """Boundary-contact energy rate for pantographic dilation.

    Edot = -(hbar^2 lamdot / (2 mu lam^3)) * int_0^{2pi} r0^2 |d_r phi|^2 dtheta
    evaluated on the fixed-disk rim.  The gradient at the rim comes from the
    state's analytic radial derivative (one-sided finite differences are
    ill-conditioned exactly where this integrand lives).  Nonpositive for a
    dilating box.  Raises ValueError when a mode of the state does not belong
    to spec.r0 or t is not a time of the box (negative, non-finite or at
    lambda(t) <= 0).
    """
    _check_modes(state, spec)
    _check_span(spec, t)
    theta = np.arange(_RATE_THETA) * (2.0 * math.pi / _RATE_THETA)
    rim, grad = state.fields(spec, spec.r0, theta, t)
    if np.abs(rim).max() > 1e-8:
        warnings.warn(
            "state does not vanish on the fixed boundary; contact-term "
            "energy rate is meaningless", stacklevel=2)
    integral = float(np.sum(np.abs(grad) ** 2) * (2.0 * math.pi / _RATE_THETA)) * spec.r0**2
    lam = float(spec.lam(t))
    pref = -(spec.hbar**2) * spec.kappa / (2.0 * spec.mu * lam**3)
    return pref * integral


def mean_energy(state, spec: DomainSpec, t) -> float:
    """<phi| -hbar^2/(2 mu lam^2) nabla^2 |phi> by quadrature.

    Computed in the integrated-by-parts form hbar^2/(2 mu lam^2) * int
    ||grad phi||^2 so only first derivatives of the state are needed.  The
    unit-modulus dressing e^{i alpha r^2} cancels in |grad phi|^2, and the
    theta integral keeps only pairs of modes with equal m, so the integral
    is 2 pi sum_m int (|d_r u_m|^2 + |m u_m / r|^2) r dr, where u_m sums
    b J over the modes of that m with b = c A e^{i beta} / sqrt(2 pi), on
    the shared radial table.  Raises ValueError when a mode of the state
    does not belong to spec.r0 or t is not a time of the box.
    """
    _check_modes(state, spec)
    a = alpha(spec, t)
    by_m = {}
    for mode, b in state._angular(spec, 0.0, t):
        rule, j, jp, _ = radial_profile(abs(mode.m), mode.n, spec.r0, RADIAL_QUAD_POINTS)
        r = rule.nodes
        du, dth = by_m.get(mode.m, (0.0, 0.0))
        by_m[mode.m] = (du + b * (jp + 2j * a * r * j), dth + b * mode.m * j / r)
    dens = sum(np.abs(du) ** 2 + np.abs(dth) ** 2 for du, dth in by_m.values())
    integral = 2.0 * math.pi * float((dens * r) @ rule.weights)
    lam = float(spec.lam(t))
    return spec.hbar**2 / (2.0 * spec.mu * lam**2) * integral
