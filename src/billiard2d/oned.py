"""One-dimensional reference problem: a symmetric box dilating at constant
speed, transformed to fixed walls with a time-dependent generator, plus its
boundary-contact energy rate.

Serves as the structural check on the 2D machinery: same dilation-generator
pattern (coefficient i hbar Rdot/R, symmetric ordering), same contact-term
sign structure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class Box1DSpec:
    """Box [-x0/2, x0/2] dilating as R(t) = 1 + kappa t, Dirichlet ends."""

    mu: float = 1.0
    hbar: float = 1.0
    x0: float = 1.0
    kappa: float = 0.0
    nx: int = 256

    def __post_init__(self):
        if self.mu <= 0 or self.hbar <= 0 or self.x0 <= 0:
            raise ValueError("mu, hbar and x0 must be positive")
        if self.nx < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} grid points")

    def lam(self, t):
        return 1.0 + self.kappa * np.asarray(t, dtype=float)

    @property
    def dx(self) -> float:
        return self.x0 / (self.nx + 1)


def grid_1d(spec: Box1DSpec) -> np.ndarray:
    """Interior nodes; the Dirichlet endpoints +-x0/2 are implicit zeros."""
    return -0.5 * spec.x0 + spec.dx * np.arange(1, spec.nx + 1)


def _dilation_offdiag_1d(spec: Box1DSpec) -> np.ndarray:
    """Upper off-diagonal of (1/2 + x d_x) = (x D + D x)/2; the lower is its
    negative and the diagonal zero: exactly anti-Hermitian on the grid."""
    x = grid_1d(spec)
    return (x[:-1] + x[1:]) / (4.0 * spec.dx)


def _h_tridiag_1d(spec: Box1DSpec, t: float):
    """(lower, diag, upper) of the transformed generator at time t."""
    lam = float(spec.lam(t))
    c = -spec.hbar**2 / (2.0 * spec.mu * lam**2)
    off_gen = 1j * spec.hbar * spec.kappa / lam * _dilation_offdiag_1d(spec)
    diag = np.full(spec.nx, -2.0 * c / spec.dx**2, dtype=complex)
    return c / spec.dx**2 - off_gen, diag, c / spec.dx**2 + off_gen


def _tridiag_matvec(lower, diag, upper, phi) -> np.ndarray:
    out = diag * phi
    out[:-1] += upper * phi[1:]
    out[1:] += lower * phi[:-1]
    return out


def apply_h1d(spec: Box1DSpec, phi, t: float) -> np.ndarray:
    """[-hbar^2/(2 mu R^2) d_xx + i hbar (Rdot/R)(1/2 + x d_x)] phi."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (spec.nx,):
        raise ValueError("phi must be sampled on the interior grid")
    return _tridiag_matvec(*_h_tridiag_1d(spec, t), phi)


def dilation_matrix_1d(spec: Box1DSpec) -> np.ndarray:
    """Dense matrix of the (1/2 + x d_x) generator (anti-Hermiticity checks)."""
    off = _dilation_offdiag_1d(spec)
    return np.diag(off, 1) - np.diag(off, -1)


def energy_rate_1d(spec: Box1DSpec, phi, t: float) -> float:
    """Two-wall contact rate -(hbar^2 Rdot / (2 mu R^3)) (x0/2) sum |phi'(wall)|^2.

    Wall derivatives use one-sided 4th-order stencils anchored on the
    Dirichlet zeros.  The x0/2 factor makes the formula agree with the
    finite-difference derivative of <H1> on a box of any width (exact-mode
    check: both sides give -2 Rdot E_n / R^3).
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (spec.nx,):
        raise ValueError("phi must be sampled on the interior grid")
    edge = max(abs(phi[0]), abs(phi[-1]))
    if edge / (np.abs(phi).max() + 1e-300) > 0.2:
        warnings.warn("state large near the walls; contact formula suspect",
                      stacklevel=2)
    h = spec.dx
    # f'(b) with f(b) = 0, nodes marching inward from the wall
    dright = (-48.0 * phi[-1] + 36.0 * phi[-2] - 16.0 * phi[-3] + 3.0 * phi[-4]) / (-12.0 * h)
    dleft = (-48.0 * phi[0] + 36.0 * phi[1] - 16.0 * phi[2] + 3.0 * phi[3]) / (12.0 * h)
    lam = float(spec.lam(t))
    pref = -spec.hbar**2 * spec.kappa / (2.0 * spec.mu * lam**3)
    return pref * 0.5 * spec.x0 * float(abs(dright) ** 2 + abs(dleft) ** 2)


def box_eigenmode_1d(spec: Box1DSpec, n: int) -> np.ndarray:
    """n-th Dirichlet eigenmode sqrt(2/x0) sin(n pi (x/x0 + 1/2)), n >= 1."""
    x = grid_1d(spec)
    return np.sqrt(2.0 / spec.x0) * np.sin(n * math.pi * (x / spec.x0 + 0.5)) + 0j


def propagate_1d(spec: Box1DSpec, phi, t0: float, t1: float, dt: float) -> np.ndarray:
    """Crank-Nicolson propagation of the transformed 1D generator.

    Tridiagonal solves; operator frozen at the half step.
    """
    from scipy.linalg import solve_banded

    phi = np.asarray(phi, dtype=complex).copy()
    total = t1 - t0
    nsteps = max(1, round(total / dt))
    h = total / nsteps
    t = t0
    z = 0.5j * h / spec.hbar
    for _ in range(nsteps):
        lower, diag, upper = _h_tridiag_1d(spec, t + 0.5 * h)
        rhs = phi - z * _tridiag_matvec(lower, diag, upper, phi)  # (I - z H) phi
        ab = np.zeros((3, spec.nx), dtype=complex)
        ab[0, 1:] = z * upper
        ab[1, :] = 1.0 + z * diag
        ab[2, :-1] = z * lower
        phi = solve_banded((1, 1), ab, rhs)
        t += h
    return phi
