"""Moving star-shaped boundary and the unitary map between the moving-domain
and fixed-disk pictures of the wavefunction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .specfun import gauss_legendre

__all__ = [
    "DomainSpec",
    "ExponentialSchedule",
    "BoundaryFunction",
    "radius",
    "radius_linearized",
    "to_fixed",
    "to_moving",
    "disk_inner_product",
    "moving_inner_product",
]


class ExponentialSchedule:
    """Default deformation schedule g(t) = 1 - exp(-gamma t)."""

    def __init__(self, gamma: float):
        self.gamma = float(gamma)

    def g(self, t):
        return 1.0 - np.exp(-self.gamma * np.asarray(t, dtype=float))

    def gdot(self, t):
        return self.gamma * np.exp(-self.gamma * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class DomainSpec:
    """Physical parameters of the dilating, deforming disk.

    The dilation is always uniform, lambda(t) = 1 + kappa t; the deformation
    profile is eps * g(t) * cos(theta) with g pluggable through ``schedule``
    (exponential approach to 1 by default).
    """

    mu: float = 1.0
    hbar: float = 1.0
    r0: float = 1.0
    kappa: float = 0.0
    gamma: float = 0.0
    epsilon: float = 0.0
    schedule: object | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("mu", "hbar", "r0", "kappa", "gamma", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.mu <= 0 or self.hbar <= 0 or self.r0 <= 0:
            raise ValueError("mu, hbar and r0 must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    def _sched(self):
        return self.schedule if self.schedule is not None else ExponentialSchedule(self.gamma)

    def lam(self, t):
        return 1.0 + self.kappa * np.asarray(t, dtype=float)

    def lamdot(self, t):
        return self.kappa * np.ones_like(np.asarray(t, dtype=float))

    def g(self, t):
        return self._sched().g(t)

    def gdot(self, t):
        return self._sched().gdot(t)


def _check_span(spec: DomainSpec, t) -> None:
    """Reject any time t outside the span [0, t_c) on which the box exists
    (t_c = -1/kappa when kappa < 0, infinite otherwise).

    Each t must be finite and nonnegative with lambda(t) > 0.  lambda is
    linear with lambda(0) = 1, so it stays positive on all of [0, t] exactly
    when it is positive at t.
    """
    t = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0) & (spec.lam(t) > 0))
    if bad.any():
        tb = float(t[bad][0])
        raise ValueError(
            f"t = {tb!r} is outside the box's span: t must be finite and >= 0, "
            f"and lambda(t) = 1 + kappa t = {float(spec.lam(tb))!r} > 0 "
            f"(the box collapses at lambda <= 0)")


def radius(spec: DomainSpec, theta, t):
    """Exact (unexpanded) boundary ratio R(theta, t) = lam / (1 - eps g cos theta).

    The physical wall sits at r = R(theta, t) * r0.  Raises if the domain
    stops being star-shaped (denominator <= 0) or if t is not a time of the
    box (see _check_span).
    """
    _check_span(spec, t)
    lam = spec.lam(t)
    den = 1.0 - spec.epsilon * spec.g(t) * np.cos(np.asarray(theta, dtype=float))
    if np.any(den <= 0):
        raise ValueError("boundary not star-shaped: 1 - eps*g*cos(theta) <= 0")
    return lam / den


def radius_linearized(spec: DomainSpec, theta, t):
    """First-order boundary lam * (1 + eps g cos theta); perturbative use only."""
    return spec.lam(t) * (1.0 + spec.epsilon * spec.g(t) * np.cos(np.asarray(theta, dtype=float)))


@dataclass(frozen=True)
class BoundaryFunction:
    """Evaluator bundle for R(theta, t) and its time derivative."""

    value: Callable
    dt: Callable

    @staticmethod
    def pantographic_from(spec: DomainSpec) -> "BoundaryFunction":
        """R = lam: the eps = 0 ellipse, its schedule reset so no NaN g enters."""
        return BoundaryFunction.deformed_from(
            replace(spec, epsilon=0.0, gamma=0.0, schedule=None))

    @staticmethod
    def deformed_from(spec: DomainSpec) -> "BoundaryFunction":
        """Exact elliptical deformation R = lam / (1 - eps g cos theta).

        Valid for any amplitude that keeps the domain star-shaped (``radius``
        raises past that); whether first-order perturbation theory still
        holds is judged by ``perturbation.amplitudes``, not here.
        """

        def val(theta, t):
            return radius(spec, theta, t)

        def dtt(theta, t):
            th = np.asarray(theta, dtype=float)
            eg = spec.epsilon * spec.g(t)
            den = 1.0 - eg * np.cos(th)
            return (spec.lamdot(t) / den
                    + spec.lam(t) * spec.epsilon * spec.gdot(t) * np.cos(th) / den**2)

        return BoundaryFunction(val, dtt)


def to_fixed(psi: Callable, boundary: BoundaryFunction, t: float) -> Callable:
    """Map a moving-domain sampler to the fixed disk: phi(s, th) = R psi(s R, th)."""

    def phi(s, theta):
        r_ratio = boundary.value(theta, t)
        return r_ratio * psi(np.asarray(s, dtype=float) * r_ratio, theta)

    return phi


def to_moving(phi: Callable, boundary: BoundaryFunction, t: float) -> Callable:
    """Inverse map: psi(r, th) = phi(r / R, th) / R; vanishes at r = R r0."""

    def psi(r, theta):
        r_ratio = boundary.value(theta, t)
        return phi(np.asarray(r, dtype=float) / r_ratio, theta) / r_ratio

    return psi


def disk_inner_product(f: Callable, g: Callable, spec: DomainSpec,
                       nr: int = 128, ntheta: int = 256) -> complex:
    """<f, g> over the fixed disk, Gauss-Legendre in r, uniform rule in theta.

    f and g get the open grid ``r[:, None]``, ``theta[None, :]``, so a
    separable field evaluates its radial factor once per radius; a product
    that does not depend on theta is broadcast to all ntheta columns.
    """
    rule = gauss_legendre(nr, 0.0, spec.r0)
    r = rule.nodes[:, None]
    theta = np.arange(ntheta)[None, :] * (2.0 * math.pi / ntheta)
    vals = np.broadcast_to(np.conjugate(f(r, theta)) * g(r, theta) * r, (nr, ntheta))
    return complex((vals * rule.weights[:, None]).sum() * (2.0 * math.pi / ntheta))


def moving_inner_product(f: Callable, g: Callable, boundary: BoundaryFunction,
                         spec: DomainSpec, t: float,
                         nr: int = 128, ntheta: int = 256) -> complex:
    """<f, g> over the moving star domain r <= R(theta, t) r0.

    The radial rule is rescaled per theta node so the outer limit follows
    the boundary exactly.
    """
    rule = gauss_legendre(nr, 0.0, 1.0)
    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    rmax = boundary.value(theta, t) * spec.r0          # (ntheta,)
    rr = rule.nodes[:, None] * rmax[None, :]           # (nr, ntheta)
    ww = rule.weights[:, None] * rmax[None, :]
    tt = np.broadcast_to(theta[None, :], rr.shape)
    vals = np.conjugate(f(rr, tt)) * g(rr, tt) * rr * ww
    return complex(vals.sum() * (2.0 * math.pi / ntheta))
