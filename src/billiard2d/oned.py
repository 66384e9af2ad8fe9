"""One-dimensional reference problem: a symmetric box dilating at constant
speed, transformed to fixed walls with a time-dependent generator, plus its
boundary-contact energy rate.

Serves as the structural check on the 2D machinery: same dilation-generator
pattern (coefficient i hbar Rdot/R, symmetric ordering), same contact-term
sign structure.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lapack as lapack
from .domain import _check_fields, _lam
from .oracle import _half_steps, _shifted, _tridiag_apply

__all__ = [
    "Box1DSpec",
    "grid_1d",
    "apply_h1d",
    "dilation_matrix_1d",
    "energy_rate_1d",
    "propagate_1d",
    "box_eigenmode_1d",
]

MIN_POINTS = 16
_LAPLACE = np.array([[1.0], [-2.0], [1.0]])  # the d_xx stencil times dx^2


@dataclass(frozen=True)
class Box1DSpec:
    """Box [-x0/2, x0/2] dilating as R(t) = 1 + kappa t, Dirichlet ends."""

    mu: float = 1.0
    hbar: float = 1.0
    x0: float = 1.0
    kappa: float = 0.0
    nx: int = 256

    def __post_init__(self):
        _check_fields(self, ("mu", "hbar", "x0"), signed=("kappa",))
        if not isinstance(self.nx, numbers.Integral):
            raise ValueError(f"nx must be an integer number of grid points, got {self.nx!r}")
        if self.nx < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} grid points")

    def lam(self, t):
        return _lam(self.kappa, t)

    @property
    def dx(self) -> float:
        return self.x0 / (self.nx + 1)


def grid_1d(spec: Box1DSpec) -> np.ndarray:
    """Interior nodes; the Dirichlet endpoints +-x0/2 are implicit zeros."""
    return -0.5 * spec.x0 + spec.dx * np.arange(1, spec.nx + 1)


def _dilation_1d(spec: Box1DSpec) -> np.ndarray:
    """(1/2 + x d_x) = (x D + D x)/2 as a flat (lower, diag, upper) stack:
    zero diagonal, lower the negative of upper, so exactly anti-Hermitian."""
    x = grid_1d(spec)
    upper = np.append((x[:-1] + x[1:]) / (4.0 * spec.dx), 0.0)
    return np.array([-np.roll(upper, 1), np.zeros_like(upper), upper])


def _generator_1d(spec: Box1DSpec, t: float) -> np.ndarray:
    """The transformed generator at time t as a flat tridiagonal stack."""
    lam = float(spec.lam(t))
    c = -spec.hbar**2 / (2.0 * spec.mu * lam**2)
    return c / spec.dx**2 * _LAPLACE + 1j * spec.hbar * spec.kappa / lam * _dilation_1d(spec)


def _interior(spec: Box1DSpec, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (spec.nx,):
        raise ValueError("phi must be sampled on the interior grid")
    return phi


def apply_h1d(spec: Box1DSpec, phi, t: float) -> np.ndarray:
    """[-hbar^2/(2 mu R^2) d_xx + i hbar (Rdot/R)(1/2 + x d_x)] phi.

    ValueError if t is not a time of the box (see domain.DomainSpec.lam)."""
    return _tridiag_apply(_generator_1d(spec, t), _interior(spec, phi))


def dilation_matrix_1d(spec: Box1DSpec) -> np.ndarray:
    """Dense matrix of the (1/2 + x d_x) generator (anti-Hermiticity checks)."""
    lower, _, upper = _dilation_1d(spec)
    return np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)


def energy_rate_1d(spec: Box1DSpec, phi, t: float) -> float:
    """Two-wall contact rate -(hbar^2 Rdot / (2 mu R^3)) (x0/2) sum |phi'(wall)|^2.

    Wall derivatives use one-sided 4th-order stencils anchored on the
    Dirichlet zeros.  The x0/2 factor makes the formula agree with the
    finite-difference derivative of <H1> on a box of any width (exact-mode
    check: both sides give -2 Rdot E_n / R^3).  ValueError if t is not a
    time of the box.
    """
    lam = float(spec.lam(t))
    phi = _interior(spec, phi)
    edge = max(abs(phi[0]), abs(phi[-1]))
    if edge / (np.abs(phi).max() + 1e-300) > 0.2:
        warnings.warn("state large near the walls; contact formula suspect",
                      stacklevel=2)
    h = spec.dx
    # f'(b) with f(b) = 0, nodes marching inward from the wall
    dright = (-48.0 * phi[-1] + 36.0 * phi[-2] - 16.0 * phi[-3] + 3.0 * phi[-4]) / (-12.0 * h)
    dleft = (-48.0 * phi[0] + 36.0 * phi[1] - 16.0 * phi[2] + 3.0 * phi[3]) / (12.0 * h)
    pref = -spec.hbar**2 * spec.kappa / (2.0 * spec.mu * lam**3)
    return pref * 0.5 * spec.x0 * float(abs(dright) ** 2 + abs(dleft) ** 2)


def box_eigenmode_1d(spec: Box1DSpec, n: int) -> np.ndarray:
    """n-th Dirichlet eigenmode sqrt(2/x0) sin(n pi (x/x0 + 1/2)), n >= 1."""
    x = grid_1d(spec)
    return np.sqrt(2.0 / spec.x0) * np.sin(n * math.pi * (x / spec.x0 + 0.5)) + 0j


def propagate_1d(spec: Box1DSpec, phi, t0: float, t1: float, dt: float) -> np.ndarray:
    """Crank-Nicolson propagation of the transformed 1D generator: the
    tridiagonal step of oracle.propagate's theta-constant case, operator
    frozen at the half step.  ValueError unless dt is finite and > 0, t1 is
    not before t0, both are times of the box and phi is finite."""
    h, steps = _half_steps(t0, t1, dt)
    spec.lam((t0, t1))  # the steps check only their half-step times
    phi = _interior(spec, phi).copy()
    if not np.isfinite(phi).all():
        raise ValueError("phi must be finite")
    z = 0.5j * h / spec.hbar
    for t_half, _ in steps:
        bands = _generator_1d(spec, t_half)
        phi = lapack.gtsv(*_shifted(bands, z), phi - z * _tridiag_apply(bands, phi))
    return phi
