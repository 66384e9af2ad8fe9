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

from . import specfun
from .domain import DomainSpec
from .specfun import BesselMode, _bessel_j_pair, _bessel_rows, _check_modes, radial_profile

__all__ = [
    "PantographicState",
    "alpha",
    "beta",
    "phi_exact",
    "psi_exact",
    "energy_rate",
    "mean_energy",
]


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
    return 0.0 - (mode.energy / spec.hbar) * t / spec.lam(t)


def phi_exact(mode: BesselMode, spec: DomainSpec, r, theta, t):
    """Fixed-picture exact solution e^{i(alpha r^2 + beta)} chi_{mn}(r, theta)."""
    return PantographicState.single(mode).value(spec, r, theta, t)


def psi_exact(mode: BesselMode, spec: DomainSpec, r, theta, t):
    """Moving-picture solution; vanishes on the moving wall r = lam(t) r0."""
    lam = spec.lam(t)
    return phi_exact(mode, spec, np.asarray(r, dtype=float) / lam, theta, t) / lam


@dataclass(frozen=True)
class PantographicState:
    """Superposition over exact pantographic solutions with fixed weights.

    Amplitudes are constants of motion; only the phases alpha(t), beta_k(t)
    evolve.  Provides pointwise value and analytic radial derivative of the
    fixed-picture wavefunction; the energies sum over m from its _angular.
    """

    modes: tuple
    amplitudes: tuple

    def __post_init__(self):
        if len(self.modes) != len(self.amplitudes):
            raise ValueError("one amplitude per mode")
        keys = [(mode.m, mode.n) for mode in self.modes]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"mode (m, n) = {key} is listed twice")
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

        Every field and energy goes through here, so this is where a mode
        built for another disk radius is rejected; beta rejects a time the box
        does not reach (see DomainSpec.lam).
        """
        _check_modes(self.modes, spec)
        theta = np.asarray(theta, dtype=float)
        pref = (2.0 * math.pi) ** -0.5
        return [(mode, c * pref * mode.norm
                 * np.exp(1j * (mode.m * theta + beta(mode, spec, t))))
                for mode, c in zip(self.modes, self.amplitudes)]

    def value(self, spec: DomainSpec, r, theta, t):
        """phi: J_{|m|}(k r) times the angular factors, dressed with
        e^{i alpha r^2}; time enters only through alpha and beta."""
        r = np.asarray(r, dtype=float)
        u = 0.0
        for mode, ang in self._angular(spec, theta, t):
            u = u + _bessel_rows((abs(mode.m),), mode.k * r)[0] * ang
        return np.exp(1j * alpha(spec, t) * r**2) * u

    def d_dr(self, spec: DomainSpec, r, theta, t):
        """Radial derivative, analytic: k A J' e^{im theta} per mode; the
        dressing e^{i alpha r^2} adds 2 i alpha r phi."""
        r = np.asarray(r, dtype=float)
        u = du = 0.0
        for mode, ang in self._angular(spec, theta, t):
            j, jp = _bessel_j_pair(abs(mode.m), mode.k * r)
            u = u + j * ang
            du = du + mode.k * jp * ang
        a = alpha(spec, t)
        return np.exp(1j * a * r**2) * (du + 2j * a * r * u)


def energy_rate(state, spec: DomainSpec, t) -> float:
    """Boundary-contact energy rate for pantographic dilation.

    Edot = -(hbar^2 lamdot / (2 mu lam^3)) * int_0^{2pi} r0^2 |d_r phi|^2 dtheta
    on the fixed-disk rim, summed over m exactly as in mean_energy, from each
    mode's J and J' at its own zero; warns when sum_m |u_m|, which bounds |phi|
    on the rim, exceeds 1e-8.  Nonpositive for a dilating box.  Raises
    ValueError when a mode of the state does not belong to spec.r0 or t is
    not a time of the box.
    """
    a = alpha(spec, t)
    by_m = {}
    for mode, b in state._angular(spec, 0.0, t):
        j, jp = _bessel_j_pair(abs(mode.m), mode.zero)
        u, du = by_m.get(mode.m, (0.0, 0.0))
        by_m[mode.m] = (u + b * j, du + b * (mode.k * jp + 2j * a * spec.r0 * j))
    if sum(abs(u) for u, _ in by_m.values()) > 1e-8:
        warnings.warn("state does not vanish on the fixed boundary; contact-term "
                      "energy rate is meaningless", stacklevel=2)
    integral = 2.0 * math.pi * spec.r0**2 * float(sum(abs(du) ** 2 for _, du in by_m.values()))
    return -(spec.hbar**2) * spec.kappa / (2.0 * spec.mu * float(spec.lam(t)) ** 3) * integral


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
    a = alpha(spec, t)
    by_m = {}
    for mode, b in state._angular(spec, 0.0, t):
        rule, j, jp, _ = radial_profile(abs(mode.m), mode.n, spec.r0, specfun.RADIAL_QUAD_POINTS)
        r = rule.nodes
        du, dth = by_m.get(mode.m, (0.0, 0.0))
        by_m[mode.m] = (du + b * (jp + 2j * a * r * j), dth + b * mode.m * j / r)
    dens = sum(np.abs(du) ** 2 + np.abs(dth) ** 2 for du, dth in by_m.values())
    integral = 2.0 * math.pi * float((dens * r) @ rule.weights)
    lam = float(spec.lam(t))
    return spec.hbar**2 / (2.0 * spec.mu * lam**2) * integral
