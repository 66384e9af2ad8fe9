"""Independent numerical ground truth: a polar-grid Crank-Nicolson
propagator for the full effective Hamiltonian on the fixed disk (arbitrary
smooth boundary ratio R(theta, t)), brute-force matrix-element quadrature,
and finite-difference energy rates.

Grid layout: radial nodes r_j = (j + 1/2) dr with dr = r0 / (nr - 1/2), so
the first node sits at dr/2 (no coordinate-singularity row) and the last
node sits exactly on r = r0 and is pinned to zero (Dirichlet row).  The
polar origin is handled by parity ghosts: the point (-r, theta) is
(r, theta + pi), i.e. a half-turn roll of the first row.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import lapack

from .domain import BoundaryFunction, DomainSpec
from .pantograph import alpha, beta, phi_exact
from .specfun import BesselMode, adaptive_quad_vec, radial_profile

__all__ = [
    "GridWavefunction",
    "EffectiveOperator",
    "effective_operator",
    "apply_heff",
    "propagate",
    "brute_element",
    "brute_element_integrated",
    "project",
    "fd_energy_rate",
    "grid_from_sampler",
    "write_snapshot",
    "read_snapshot",
]

MIN_GRID = 16
_BRUTE_NR = 160  # Gauss-Legendre radial nodes of the brute-force sandwich
_BRUTE_NTHETA = 64  # angular nodes of the brute-force sandwich


def _grid_radii(nr: int, r0: float) -> np.ndarray:
    """Radial nodes r_j = (j + 1/2) dr with dr = r0 / (nr - 1/2)."""
    return (np.arange(nr) + 0.5) * (r0 / (nr - 0.5))


@lru_cache(maxsize=32)
def _radial_stencils(nr: int, r0: float) -> dict:
    """Each radial three-point stencil of H_eff as read-only (lower, diag,
    upper) arrays of length nr; lower[0] multiplies the parity ghost
    (r_0, theta + pi)."""
    dr = r0 / (nr - 0.5)
    r = _grid_radii(nr, r0)
    rm = r - 0.5 * dr
    rm[0] = 0.0  # flux through the origin vanishes exactly
    # The dilation (1 + r d_r) = (1/2r) d_r(r^2 .) + (r/2) d_r drops the
    # origin ghost: the parity self-coupling it would induce at the first row
    # is w-symmetric, i.e. pure Hermitian contamination of an anti-Hermitian
    # generator, and anti-symmetrizing removes it exactly.  The ghost-free
    # tridiagonal satisfies w_j U_j = -w_{j+1} L_{j+1} identically, which is
    # what makes CN norm-conserving to round-off.
    dil_dn = (r - dr) ** 2 / (4.0 * dr * r) + r / (4.0 * dr)
    dil_dn[0] = 0.0
    d1, d2, zero = 1.0 / (2.0 * dr * r), np.full(nr, 1.0 / (dr * dr)), np.zeros(nr)
    stencils = {  # lap is (1/r) d_r (r d_r) in flux form
        "lap": (rm / (r * dr * dr), -2.0 * d2, (r + 0.5 * dr) / (r * dr * dr)),
        "dil": (-dil_dn, zero, (r + dr) ** 2 / (4.0 * dr * r) + r / (4.0 * dr)),
        "inv_r2": (zero, 1.0 / r**2, zero),
        "dr_r": (-d1, zero, d1),  # (1/r) d_r, centred
        "drr": (d2, -2.0 * d2, d2),
    }
    for band in (b for bands in stencils.values() for b in bands):
        band.setflags(write=False)
    return stencils


@lru_cache(maxsize=32)
def _spectral_multipliers(ntheta: int) -> np.ndarray:
    """Read-only (i m)^p, p = 0, 1, 2, in FFT order; no Nyquist in p = 1."""
    m = np.fft.fftfreq(ntheta, d=1.0 / ntheta)
    mult = np.array([np.ones(ntheta), 1j * m, -(m**2)])
    mult[1, ntheta // 2] = 0.0
    mult.setflags(write=False)
    return mult


@dataclass
class GridWavefunction:
    """Complex field on the tensor grid (0, r0] x [0, 2 pi)."""

    values: np.ndarray  # (nr, ntheta) complex
    r0: float
    time: float = 0.0

    def __post_init__(self):
        # a copy, so that zeroing the Dirichlet row leaves the caller's array alone
        self.values = np.array(self.values, dtype=complex)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d (nr, ntheta) array")
        if self.ntheta % 2:
            raise ValueError("ntheta must be even (parity ghosts across the origin)")
        self.values[-1, :] = 0.0  # Dirichlet row at r = r0

    @property
    def nr(self) -> int:
        return self.values.shape[0]

    @property
    def ntheta(self) -> int:
        return self.values.shape[1]

    @property
    def dr(self) -> float:
        return self.r0 / (self.nr - 0.5)

    def radii(self) -> np.ndarray:
        return _grid_radii(self.nr, self.r0)

    def thetas(self) -> np.ndarray:
        return np.arange(self.ntheta) * (2.0 * math.pi / self.ntheta)

    def inner(self, other: "GridWavefunction") -> complex:
        w = self.radii() * self.dr * (2.0 * math.pi / self.ntheta)
        return complex(np.sum(np.conjugate(self.values) * other.values * w[:, None]))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def copy(self) -> "GridWavefunction":
        return GridWavefunction(self.values, self.r0, self.time)


def grid_from_sampler(sampler, r0: float, nr: int, ntheta: int,
                      time: float = 0.0) -> GridWavefunction:
    """Sample a callable psi(r, theta) onto the grid (boundary row zeroed)."""
    g = GridWavefunction(np.zeros((nr, ntheta), dtype=complex), r0, time)
    g.values[:] = sampler(g.radii()[:, None], g.thetas()[None, :])
    g.values[-1, :] = 0.0
    return g


@dataclass
class EffectiveOperator:
    """H1 + H2 + H3 at one time as a list of stencil terms.

    H1 = -hbar^2/(2 mu R^2) lap,  H2 = i hbar (Rdot/R)(1 + r d_r),  and H3
    carries the five deformation terms built from q = 1/R and its theta
    derivatives.  When q is the same at every theta node H3 is left out of
    ``terms`` and the operator is its block-diagonal :meth:`mean_blocks`.
    """

    nr: int
    ntheta: int
    r0: float
    hbar: float
    terms: list  # (coefficient(theta), radial stencil, p): acts on d_theta^p

    def radii(self) -> np.ndarray:
        return _grid_radii(self.nr, self.r0)

    @cached_property
    def _split(self):
        """(blocks, rest) of the terms on the interior rows.

        Each coefficient c(theta) splits into cbar, c[0] if c is exactly
        constant and its mean otherwise, and c - cbar.  ``blocks`` is
        :meth:`mean_blocks` from the cbar; ``rest`` is None if every c is
        constant, else (ps, bands): the real-space (lower, diag, upper) of
        the c - cbar summed per derivative order p in ``ps``.
        """
        ni, nth = self.nr - 1, self.ntheta
        stencils = _radial_stencils(self.nr, self.r0)
        coeffs = np.array([c for c, _, _ in self.terms], dtype=complex).reshape(-1, nth)
        const = (coeffs == coeffs[:, :1]).all(axis=1)
        cbar = np.where(const, coeffs[:, 0], coeffs.mean(axis=1))
        ps = np.array([p for *_, p in self.terms], dtype=int)
        # (3 (nr - 1), terms), real: every band of every stencil, one column a term
        radial = np.array([stencils[name] for _, name, _ in self.terms]).reshape(
            -1, 3, self.nr)[:, :, :ni].reshape(-1, 3 * ni).T

        def summed(cols, fields):  # sum of stencil x field over the terms in cols
            # a real matmul on (re, im) pairs: a complex one cost ~1 ms on 2 cores
            return (radial[:, cols] @ fields.view(float)).view(complex).reshape(3, ni, nth)

        blocks = summed(slice(None), cbar[:, None] * _spectral_multipliers(nth)[ps])
        # the ghost (r_0, theta + pi) is a half-turn roll: (-1)^m per wavenumber
        blocks[1, 0] += blocks[0, 0] * (-1.0) ** np.arange(nth)
        blocks[0, 0] = 0.0
        blocks.setflags(write=False)
        rest = coeffs - cbar[:, None]
        varying = sorted(set(ps[~const].tolist()))
        return blocks, (varying, np.stack(
            [summed(ps == p, rest[ps == p]) for p in varying], axis=1)) if varying else None

    def apply(self, xhat: np.ndarray) -> np.ndarray:
        """H_eff applied to xhat = fft(v[:-1], axis=1), the angular spectrum
        of a grid field's interior rows, (nr - 1, ntheta): the form
        :func:`propagate` carries.  Grid fields go through :func:`apply_heff`.
        """
        if xhat.shape != (self.nr - 1, self.ntheta):
            raise ValueError(
                f"apply takes the ({self.nr - 1}, {self.ntheta}) angular spectrum of the "
                f"interior rows, got {xhat.shape}; apply_heff takes ({self.nr}, "
                f"{self.ntheta}) grid fields")
        (lower, diag, upper), rest = self._split
        out = diag * xhat
        out[:-1] += upper[:-1] * xhat[1:]
        out[1:] += lower[1:] * xhat[:-1]
        if rest is not None:
            ps, (lower, diag, upper) = rest
            w = np.fft.ifft(xhat * _spectral_multipliers(self.ntheta)[ps, None, :], axis=-1)
            acc = (diag * w).sum(axis=0)
            acc[:-1] += (upper[:, :-1] * w[:, 1:]).sum(axis=0)
            acc[1:] += (lower[:, 1:] * w[:, :-1]).sum(axis=0)
            acc[0] += (lower[:, 0] * np.roll(w[:, 0], self.ntheta // 2, axis=-1)).sum(axis=0)
            out += np.fft.fft(acc, axis=1)
        return out

    def mean_blocks(self):
        """Read-only (lower, diag, upper), each (nr - 1, ntheta) over the
        interior rows with the Fourier index along axis 1: the theta-constant
        part of every term times (i m)^p, parity ghost in row 0's diagonal as
        (-1)^m.  When every coefficient is theta-constant they ARE the operator.
        """
        return tuple(self._split[0])


def effective_operator(boundary: BoundaryFunction, spec: DomainSpec, t: float,
                       nr: int, ntheta: int) -> EffectiveOperator:
    """Assemble the coefficient fields from the exact boundary at time t.

    H3's five terms enter only if q = 1/R differs between theta nodes (the
    spectral derivative of a constant q can round to nonzero); its theta
    derivatives are spectral, exact for the trigonometric-polynomial
    boundaries here.  ValueError if R or dR/dt is non-finite at a theta node.
    """
    if nr < MIN_GRID or ntheta < MIN_GRID:
        raise ValueError(f"grid too coarse for the stencils (need >= {MIN_GRID})")
    if ntheta % 2:
        raise ValueError("ntheta must be even")
    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    r_ratio, r_dot = boundary.value(theta, t), boundary.dt(theta, t)
    if not (np.isfinite(r_ratio).all() and np.isfinite(r_dot).all()):
        raise ValueError(f"non-finite boundary R or dR/dt at t = {t!r}")
    q = 1.0 / r_ratio
    pref = -spec.hbar**2 / (2.0 * spec.mu)
    c_lap = pref * q * q
    terms = [(c_lap, "lap", 0), (c_lap, "inv_r2", 2),
             (1j * spec.hbar * (r_dot * q), "dil", 0)]
    if (q != q[0]).any():
        qth, qthth = np.fft.ifft(np.fft.fft(q) * _spectral_multipliers(ntheta)[1:]).real
        c_mixed = pref * 2.0 * q * qth
        terms += [(pref * q * qthth, "inv_r2", 0),
                  (pref * (2.0 * qth**2 + q * qthth), "dr_r", 0),
                  (c_mixed, "inv_r2", 1), (pref * qth**2, "drr", 0),
                  (c_mixed, "dr_r", 1)]
    return EffectiveOperator(nr=nr, ntheta=ntheta, r0=spec.r0, hbar=spec.hbar, terms=terms)


def apply_heff(op: EffectiveOperator, psi: GridWavefunction) -> GridWavefunction:
    """H_eff applied on the grid; Dirichlet row re-imposed on the result."""
    if (psi.nr, psi.ntheta) != (op.nr, op.ntheta) or psi.r0 != op.r0:
        raise ValueError("grid mismatch between operator and wavefunction")
    if psi.nr < MIN_GRID or psi.ntheta < MIN_GRID:
        raise ValueError(f"grid too coarse for the stencils (need >= {MIN_GRID})")
    values = np.zeros(psi.values.shape, dtype=complex)
    values[:-1] = np.fft.ifft(op.apply(np.fft.fft(psi.values[:-1], axis=1)), axis=1)
    return GridWavefunction(values, psi.r0, psi.time)


class _BlockFactor:
    """LU factorization of (I + scale * T_m) for every Fourier block at once.

    The independent tridiagonal blocks are stacked into one big tridiagonal
    system (couplings at block joints zeroed) and factored once per time
    step; solves against many right-hand sides reuse the factorization.
    """

    def __init__(self, lower, diag, upper, scale: complex):
        ni, nth = diag.shape
        self.ni, self.nth = ni, nth
        n = ni * nth
        d = 1.0 + scale * diag.T.reshape(n)
        du = (scale * upper).T.reshape(n)[:-1].copy()
        dl = (scale * lower).T.reshape(n)[1:].copy()
        joints = np.arange(1, nth) * ni
        du[joints - 1] = 0.0
        dl[joints - 1] = 0.0
        dl_f, d_f, du_f, du2, ipiv, info = lapack.zgttrf(dl, d, du)
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")
        self._fact = (dl_f, d_f, du_f, du2, ipiv)

    def solve(self, rhs_hat: np.ndarray) -> np.ndarray:
        x, info = lapack.zgttrs(*self._fact, rhs_hat.T.reshape(self.ni * self.nth))
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        return x.reshape(self.nth, self.ni).T


_RESTART = 20  # inner iterations per GMRES cycle


def _dot(u: np.ndarray, w: np.ndarray) -> complex:
    """<u, w> as a ufunc sum: a BLAS dot or gemv on vectors this long wakes
    OpenBLAS's worker threads, which then spin on the other cores."""
    return complex((u.conj() * w).sum())


def _norm(u: np.ndarray) -> float:
    return math.sqrt(_dot(u, u).real)


def _gmres(matvec, psolve, b: np.ndarray, x0: np.ndarray, rtol: float,
           max_iter: int):
    """Left-preconditioned restarted GMRES (Saad & Schultz 1986) for
    matvec(x) = b from x0, preconditioner psolve ~ matvec^-1.

    scipy's ``gmres`` iteration, with every reduction and update on the
    (nr - 1, ntheta) fields done by ufuncs.  Each cycle of at most
    ``_RESTART`` inner iterations stops early once the preconditioned
    residual estimate passes an inner tolerance, which starts from ||psolve(b)||
    and adapts to how well the last estimate predicted the true residual
    (scipy gh-8400).  It ends after ``max_iter`` inner iterations in all, or
    once the true residual ||b - matvec(x)|| <= rtol ||b||.  Returns
    (x, inner iterations, ||b - matvec(x)|| / ||b||).
    """
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    atol = rtol * bnorm
    eps = np.finfo(float).eps
    ptol_max_factor = 1.0
    ptol = _norm(psolve(b)) * min(1.0, rtol)
    x = np.array(x0, order="C")
    r = b - matvec(x)
    rnorm = _norm(r)
    if rnorm / bnorm <= rtol:  # the test propagate applies to the result
        return x, 0, rnorm / bnorm
    v = np.empty((_RESTART + 1,) + b.shape, dtype=complex)  # Krylov basis
    h = np.zeros((_RESTART, _RESTART + 1), dtype=complex)  # Hessenberg, by column
    givens = np.zeros((_RESTART, 2), dtype=complex)
    inner = 0
    while True:
        v[0] = psolve(r)
        s = np.zeros(_RESTART + 1, dtype=complex)  # rotated ||M r|| e_1
        s[0] = _norm(v[0])
        v[0] *= 1.0 / s[0]
        breakdown = False
        for col in range(_RESTART):
            w = psolve(matvec(v[col]))
            h0 = _norm(w)
            for k in range(col + 1):  # modified Gram-Schmidt
                h[col, k] = _dot(v[k], w)
                w -= h[col, k] * v[k]
            h1 = _norm(w)
            v[col + 1] = w
            if h1 <= eps * h0:  # the Krylov space holds the solution
                h[col, col + 1] = 0.0
                breakdown = True
            else:
                h[col, col + 1] = h1
                v[col + 1] *= 1.0 / h1
            for k in range(col):
                c, sn = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + sn * n1, -sn.conjugate() * n0 + c * n1
            c, sn, mag = lapack.zlartg(h[col, col], h[col, col + 1])
            givens[col] = c, sn
            h[col, col], h[col, col + 1] = mag, 0.0
            s[col], s[col + 1] = c * s[col], -sn.conjugate() * s[col]
            presid = abs(s[col + 1])
            inner += 1
            if inner == max_iter or presid <= ptol or breakdown:
                break
        # back substitution; a zero pivot (exact breakdown) drops its direction
        if h[col, col] == 0:
            s[col] = 0
        y = s[:col + 1].copy()
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        for k in range(col + 1):
            x += y[k] * v[k]
        r = b - matvec(x)
        rnorm = _norm(r)
        if rnorm / bnorm <= rtol or breakdown or inner == max_iter:
            return x, inner, rnorm / bnorm
        if presid <= ptol:  # inner estimate met, true residual not: tighten
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)


def propagate(op_factory, psi0: GridWavefunction, t1: float, dt: float,
              rtol: float = 1e-11, max_iter: int = 60) -> GridWavefunction:
    """Crank-Nicolson propagation from psi0.time to t1 (not before it; dt
    finite and > 0, else ValueError).

    The state is carried as the angular spectrum of its interior rows; the
    operator is frozen at the half-step time.  Its theta-constant part, the
    cached :meth:`EffectiveOperator.mean_blocks`, is factored once per step.
    An operator without theta-varying rest (pantographic) is its blocks, and
    the step is one block solve with no FFT.  Otherwise each application
    costs one inverse and one forward FFT, and restarted GMRES (cycles of 20)
    preconditioned by the blocks, started from the block solve and then from
    2 x_n - x_{n-1}, iterates until the true residual is within ``rtol`` of
    the right-hand side, in at most ``max_iter`` inner iterations in all
    (these two govern only such operators).  Its reductions are ufunc sums,
    so a step makes no threaded BLAS call.  RuntimeError naming the
    half-step time, the iterations and the residual reached if that does not
    converge (dt too large).

    The pantographic operator is Hermitian under the grid weights r_j, so
    the step conserves the grid norm to round-off.  The H3 stencil of a
    deformed boundary is not, so there the norm drifts: slowly for smooth
    states, faster for rough ones.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not t1 >= psi0.time:
        raise ValueError(f"t1 = {t1} is before the start time {psi0.time}")
    total = t1 - psi0.time
    if total == 0:
        return psi0.copy()
    nsteps = max(1, round(total / dt))
    h = total / nsteps
    t = psi0.time
    x = np.fft.fft(psi0.values[:-1], axis=1)
    prev = None
    for _ in range(nsteps):
        t_half = t + 0.5 * h
        op = op_factory(t_half)
        scale = 1j * h / (2.0 * op.hbar)
        factor = _BlockFactor(*op.mean_blocks(), scale)
        b = x - scale * op.apply(x)
        if op._split[1] is None:
            step = factor.solve(b)
        else:
            start = factor.solve(b) if prev is None else 2.0 * x - prev
            step, inner, resid = _gmres(lambda f: f + scale * op.apply(f), factor.solve,
                                        b, start, rtol, max_iter)
            if not resid <= rtol:
                raise RuntimeError(
                    f"Crank-Nicolson step at t = {t_half!r} did not converge (GMRES inner "
                    f"iterations: {inner}, relative residual: {resid:.3e}, rtol: {rtol!r}); "
                    "reduce dt or the deformation amplitude")
        prev, x = x, step
        t += h
    values = np.zeros(psi0.values.shape, dtype=complex)
    values[:-1] = np.fft.ifft(x, axis=1)
    return GridWavefunction(values, psi0.r0, t)


# -- brute-force first-order matrix elements --------------------------------

def brute_element(pair, spec: DomainSpec, s, dressed: bool = True,
                  parts: bool = False):
    """<phi_target(s)| H_eff^(1)(s) |phi_source(s)> by direct 2-d quadrature.

    The exact solutions are built explicitly (phases included) and the
    first-order operator is applied by analytic differentiation of the
    integrand; no radial/time factorization or selection algebra is used,
    which is what makes this an independent check of the assembled elements.
    With ``dressed=False`` the sandwich is taken between bare eigenmodes.
    ``s`` may be an array of times: the result (each of the three parts with
    ``parts=True``) is then an array of its shape, and a scalar ``s`` gives
    a ``complex``.
    """
    tgt, src = pair.target, pair.source
    s = np.asarray(s, dtype=float)
    # one row of radial samples per time
    a = (alpha(spec, s) if dressed else np.zeros_like(s))[..., None]
    rel = (np.exp(1j * (beta(src, spec, s) - beta(tgt, spec, s)))
           if dressed else 1.0)
    g = spec.g(s)
    gd = spec.gdot(s)
    lam = spec.lam(s)

    rule, ut, _, _ = radial_profile(abs(tgt.m), tgt.n, spec.r0, _BRUTE_NR)
    _, us, dus, d2us = radial_profile(abs(src.m), src.n, spec.r0, _BRUTE_NR)
    r = rule.nodes
    # measure r dr times both radial normalizations (2 pi)^{-1/2} A
    wr = rule.weights * r * (tgt.norm * src.norm / (2.0 * math.pi))

    # radial pieces of the dressed source, common phase e^{i a r^2} times...
    w0 = us.astype(complex)
    w1 = dus + 2j * a * r * us
    w2 = d2us + 4j * a * r * dus + (2j * a - 4.0 * a * a * r * r) * us
    lap_r = w2 + w1 / r - (src.m**2) * w0 / r**2
    dil_r = w0 + r * w1
    x_r = w0 / r**2 + w1 / r

    # the e^{+- i a r^2} factors cancel between bra and ket; radial integrals
    i_lap = np.sum(wr * ut * lap_r, axis=-1)
    i_dil = np.sum(wr * ut * dil_r, axis=-1)
    i_x = np.sum(wr * ut * x_r, axis=-1)

    dtheta = 2.0 * math.pi / _BRUTE_NTHETA
    theta = np.arange(_BRUTE_NTHETA) * dtheta
    eang = np.exp(1j * (src.m - tgt.m) * theta)
    ang_cos = np.sum(np.cos(theta) * eang) * dtheta
    ang_h3 = np.sum((np.cos(theta) + 2j * src.m * np.sin(theta)) * eang) * dtheta

    pref1 = spec.hbar**2 / spec.mu * g / lam**2
    pref3 = -spec.hbar**2 / (2.0 * spec.mu) * g / lam**2
    h = (spec.epsilon * rel * pref1 * i_lap * ang_cos,
         spec.epsilon * rel * 1j * spec.hbar * gd * i_dil * ang_cos,
         spec.epsilon * rel * pref3 * i_x * ang_h3)
    if s.ndim == 0:
        h = tuple(complex(x) for x in h)
    return h if parts else h[0] + h[1] + h[2]


def brute_element_integrated(pair, spec: DomainSpec, t: float,
                             abs_tol: float = 1e-9) -> complex:
    """int_0^t <phi|H^(1)(s)|phi'> ds by adaptive quadrature of the sandwich."""
    de = pair.target.energy - pair.source.energy

    def phase(s):
        return de * s / (spec.hbar * (1.0 + spec.kappa * s))

    def f(svals):
        return brute_element(pair, spec, svals)

    return complex(adaptive_quad_vec(f, 0.0, t, abs_tol, phase=phase))


def project(psi: GridWavefunction, mode: BesselMode, spec: DomainSpec,
            t: float) -> complex:
    """<phi_mode_exact(t), psi> under grid quadrature.

    Projection onto the co-moving exact solution, so pantographic evolution
    keeps |project|^2 constant and the square is the mode population.
    """
    ref = phi_exact(mode, spec, psi.radii()[:, None], psi.thetas()[None, :], t)
    return GridWavefunction(np.broadcast_to(ref, psi.values.shape), psi.r0, t).inner(psi)


def write_snapshot(psi: GridWavefunction, path) -> None:
    """Line-oriented text dump: header ``nr ntheta t``, one value per line.

    Values are written row-major (theta fastest) as ``re im`` pairs; the
    format is binary-free so snapshots diff cleanly.  The disk radius is not
    part of the header and must be supplied again on read.
    """
    lines = [f"{psi.nr} {psi.ntheta} {float(psi.time)!r}"]
    flat = psi.values.ravel()
    lines.extend(f"{float(v.real)!r} {float(v.imag)!r}" for v in flat)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path, r0: float = 1.0) -> GridWavefunction:
    """Inverse of :func:`write_snapshot`."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        nr, ntheta, t = int(header[0]), int(header[1]), float(header[2])
        vals = np.loadtxt(fh, dtype=float)
    if vals.shape != (nr * ntheta, 2):
        raise ValueError("snapshot payload does not match its header")
    field = (vals[:, 0] + 1j * vals[:, 1]).reshape(nr, ntheta)
    return GridWavefunction(field, r0, t)


def _h1_mean_energy(psi: GridWavefunction, spec: DomainSpec) -> float:
    """<psi|H1|psi>/<psi|psi> on the grid with the pantographic 1/lam^2.

    H1 is H_eff of the static box (kappa = 0: R = 1, no H2) over lam(t)^2.
    """
    static = dataclasses.replace(spec, kappa=0.0)
    op = effective_operator(BoundaryFunction.pantographic_from(static), static,
                            psi.time, psi.nr, psi.ntheta)
    h1 = psi.inner(apply_heff(op, psi)).real / psi.inner(psi).real
    return float(h1 / spec.lam(psi.time) ** 2)


def fd_energy_rate(trajectory, spec: DomainSpec) -> np.ndarray:
    """4th-order finite-difference d<H1>/dt along a grid trajectory.

    Needs a uniform time grid with at least 5 snapshots; endpoints use
    one-sided 4th-order stencils.
    """
    snaps = list(trajectory)
    if len(snaps) < 5:
        raise ValueError("need at least 5 snapshots")
    times = np.array([s.time for s in snaps])
    hsteps = np.diff(times)
    h = hsteps[0]
    if not np.allclose(hsteps, h, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform")
    e = np.array([_h1_mean_energy(s, spec) for s in snaps])
    n = len(e)
    out = np.empty(n)
    out[2:-2] = (e[:-4] - 8 * e[1:-3] + 8 * e[3:-1] - e[4:]) / (12 * h)
    out[0] = (-25 * e[0] + 48 * e[1] - 36 * e[2] + 16 * e[3] - 3 * e[4]) / (12 * h)
    out[1] = (-3 * e[0] - 10 * e[1] + 18 * e[2] - 6 * e[3] + e[4]) / (12 * h)
    out[-2] = -(-3 * e[-1] - 10 * e[-2] + 18 * e[-3] - 6 * e[-4] + e[-5]) / (12 * h)
    out[-1] = -(-25 * e[-1] + 48 * e[-2] - 36 * e[-3] + 16 * e[-4] - 3 * e[-5]) / (12 * h)
    return out
