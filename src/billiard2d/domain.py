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
    "BoundaryFunction",
    "radius",
    "radius_linearized",
    "to_fixed",
    "to_moving",
    "disk_inner_product",
    "moving_inner_product",
]


def _check_fields(spec, positive: tuple, nonnegative: tuple = (), signed: tuple = ()) -> None:
    """ValueError naming the field unless each field named is finite, those in
    ``positive`` > 0 and those in ``nonnegative`` >= 0 (DomainSpec and
    oned.Box1DSpec)."""
    for name in positive + nonnegative + signed:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if min(getattr(spec, name) for name in positive) <= 0:
        raise ValueError(f"{', '.join(positive[:-1])} and {positive[-1]} must be positive")
    for name in nonnegative:
        if getattr(spec, name) < 0:
            raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class DomainSpec:
    """Physical parameters of the dilating, deforming disk.

    The dilation is always uniform, lambda(t) = 1 + kappa t; the deformation
    profile is eps * g(t) * cos(theta) with g pluggable through ``schedule``
    (an object with methods g and gdot), g(t) = 1 - exp(-gamma t) without one.
    """

    mu: float = 1.0
    hbar: float = 1.0
    r0: float = 1.0
    kappa: float = 0.0
    gamma: float = 0.0
    epsilon: float = 0.0
    schedule: object | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_fields(self, ("mu", "hbar", "r0"), ("epsilon", "gamma"), ("kappa",))

    def lam(self, t):
        return _lam(self.kappa, t)

    def lamdot(self, t):
        return self.kappa * np.ones_like(np.asarray(t, dtype=float))

    def g(self, t):
        if self.schedule is not None:
            return _finite_schedule(self.schedule.g(t), t)
        return 1.0 - np.exp(-self.gamma * np.asarray(t, dtype=float))

    def gdot(self, t):
        if self.schedule is not None:
            return _finite_schedule(self.schedule.gdot(t), t)
        return self.gamma * np.exp(-self.gamma * np.asarray(t, dtype=float))


def _lam(kappa: float, t):
    """lambda(t) = 1 + kappa t of DomainSpec and oned.Box1DSpec, after a
    ValueError naming the first t outside the span [0, t_c) on which the box
    exists (t_c = -1/kappa when kappa < 0, infinite otherwise).

    Each t must be finite and nonnegative with lambda(t) > 0.  lambda is
    linear with lambda(0) = 1, so it stays positive on all of [0, t] exactly
    when it is positive at t.
    """
    t = np.asarray(t, dtype=float)
    lam = 1.0 + kappa * t
    bad = ~(np.isfinite(t) & (t >= 0) & (lam > 0))
    if bad.any():
        tb = float(t[bad][0])
        raise ValueError(
            f"t = {tb!r} is outside the box's span: t must be finite and >= 0, "
            f"and lambda(t) = 1 + kappa t = {1.0 + kappa * tb!r} > 0 "
            f"(the box collapses at lambda <= 0)")
    return lam


def _finite_schedule(values, t):
    """A schedule's g or gdot at t; ValueError naming the first t where it is not finite."""
    t, bad = np.broadcast_arrays(np.asarray(t, dtype=float), ~np.isfinite(values))
    if bad.any():
        raise ValueError(f"non-finite boundary eps g or eps gdot at t = {float(t[bad][0])!r}")
    return values


def _box(spec: DomainSpec, t):
    """(lambda, lambda dot, eps g, eps gdot) of the ellipse ``spec`` at t, as
    Python floats for a scalar t.  ValueError naming the first bad t if it is
    not a time of the box (see DomainSpec.lam and DomainSpec.g) or if the
    domain is not star-shaped (|eps g| >= 1)."""
    box = (spec.lam(t), spec.lamdot(t), spec.epsilon * spec.g(t), spec.epsilon * spec.gdot(t))
    scalar = not isinstance(box[0], np.ndarray)  # lam of a 0-d t is a numpy scalar
    if scalar:
        box = tuple(map(float, box))
    valid = abs(box[2]) < 1.0
    if not (valid if scalar else np.all(valid)):
        t, eg = np.broadcast_arrays(t, box[2])
        bad = np.abs(eg) >= 1.0
        raise ValueError(f"boundary not star-shaped at t = {float(t[bad][0])!r}: "
                         f"|eps g| = {float(abs(eg[bad][0]))!r} >= 1")
    return box


def radius(spec: DomainSpec, theta, t):
    """Exact (unexpanded) boundary ratio R(theta, t) = lam / (1 - eps g cos theta).

    The physical wall sits at r = R(theta, t) * r0.  ValueError naming t if
    the box is not valid at t (see _box), whatever the theta values given.
    """
    lam, _, eg, _ = _box(spec, t)
    return lam / (1.0 - eg * np.cos(np.asarray(theta, dtype=float)))


def radius_linearized(spec: DomainSpec, theta, t):
    """First-order boundary lam * (1 + eps g cos theta); perturbative use only."""
    return spec.lam(t) * (1.0 + spec.epsilon * spec.g(t) * np.cos(np.asarray(theta, dtype=float)))


@dataclass(frozen=True)
class BoundaryFunction:
    """The boundary ratio R(theta, t) of the ellipse ``spec`` describes."""

    spec: DomainSpec

    def value(self, theta, t):
        return radius(self.spec, theta, t)

    @staticmethod
    def pantographic_from(spec: DomainSpec) -> "BoundaryFunction":
        """R = lam: the eps = 0 ellipse, its schedule reset so no NaN g enters."""
        return BoundaryFunction(replace(spec, epsilon=0.0, gamma=0.0, schedule=None))

    @staticmethod
    def deformed_from(spec: DomainSpec) -> "BoundaryFunction":
        """Exact elliptical deformation R = lam / (1 - eps g cos theta).

        Valid for any amplitude that keeps the domain star-shaped (``radius``
        raises past that); whether first-order perturbation theory still
        holds is judged by ``perturbation.amplitudes``, not here.
        """
        return BoundaryFunction(spec)


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


def _check_ntheta(ntheta: int) -> None:
    """The uniform angular rule needs at least one node."""
    if not ntheta >= 1:
        raise ValueError(f"ntheta must be >= 1, got {ntheta!r}")


def disk_inner_product(f: Callable, g: Callable, spec: DomainSpec,
                       nr: int = 128, ntheta: int = 256) -> complex:
    """<f, g> over the fixed disk, Gauss-Legendre in r, uniform rule in theta.

    f and g get the open grid ``r[:, None]``, ``theta[None, :]``, so a
    separable field evaluates its radial factor once per radius; a product
    that does not depend on theta is broadcast to all ntheta columns.
    ValueError unless ntheta >= 1.
    """
    _check_ntheta(ntheta)
    rule = gauss_legendre(nr, 0.0, spec.r0)
    r = rule.nodes[:, None]
    theta = np.arange(ntheta)[None, :] * (2.0 * math.pi / ntheta)
    vals = np.broadcast_to(np.conjugate(f(r, theta)) * g(r, theta) * r, (nr, ntheta))
    return complex((vals * rule.weights[:, None]).sum() * (2.0 * math.pi / ntheta))


def moving_inner_product(f: Callable, g: Callable, boundary: BoundaryFunction, t: float,
                         nr: int = 128, ntheta: int = 256) -> complex:
    """<f, g> over the moving star domain r <= R(theta, t) r0, r0 of ``boundary.spec``.

    The radial rule is rescaled per theta node so the outer limit follows
    the boundary exactly.  ValueError unless ntheta >= 1.
    """
    _check_ntheta(ntheta)
    rule = gauss_legendre(nr, 0.0, 1.0)
    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    rmax = boundary.value(theta, t) * boundary.spec.r0  # (ntheta,)
    rr = rule.nodes[:, None] * rmax[None, :]           # (nr, ntheta)
    ww = rule.weights[:, None] * rmax[None, :]
    tt = np.broadcast_to(theta[None, :], rr.shape)
    vals = np.conjugate(f(rr, tt)) * g(rr, tt) * rr * ww
    return complex(vals.sum() * (2.0 * math.pi / ntheta))
