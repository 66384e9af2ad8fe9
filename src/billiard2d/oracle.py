"""Independent numerical ground truth: a polar-grid Crank-Nicolson
propagator for the full effective Hamiltonian on the fixed disk (the ellipse
R(theta, t) = lam / (1 - eps g cos theta), pantographic at eps = 0),
brute-force matrix-element quadrature, and finite-difference energy rates.

Grid layout: radial nodes r_j = (j + 1/2) dr with dr = r0 / (nr - 1/2), so
the first node sits at dr/2 (no coordinate-singularity row) and the last
node sits exactly on r = r0 and is pinned to zero (Dirichlet row).  The
polar origin is handled by parity ghosts: the point (-r, theta) is
(r, theta + pi), i.e. a half-turn roll of the first row.

LAPACK's routines come through ``_lapack.gtsv`` and ``_lapack.Factor`` alone;
this module imports nothing from scipy.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import _lapack as lapack
from .domain import BoundaryFunction, DomainSpec, _box
from .pantograph import alpha, beta, phi_exact
from .specfun import BesselMode, _check_modes, adaptive_quad_vec, radial_profile

__all__ = [
    "GridWavefunction",
    "EffectiveOperator",
    "effective_operator",
    "apply_heff",
    "propagate",
    "brute_element",
    "brute_element_integrated",
    "project",
    "grid_energy",
    "fd_energy_rate",
    "grid_from_sampler",
]

MIN_GRID = 16
_BRUTE_NR = 160  # Gauss-Legendre radial nodes of the brute-force sandwich


def _grid_radii(nr: int, r0: float) -> np.ndarray:
    """Radial nodes r_j = (j + 1/2) dr with dr = r0 / (nr - 1/2)."""
    return (np.arange(nr) + 0.5) * (r0 / (nr - 0.5))


def _grid_thetas(ntheta: int) -> np.ndarray:
    """Angular nodes 2 pi k / ntheta."""
    return np.arange(ntheta) * (2.0 * math.pi / ntheta)


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


# Each H1 and H3 term, coefficient x stencil x d_theta^p, as (stencil, p,
# profiles).  On the ellipse q = 1/R = (1 - a cos theta)/lam, a = eps g, its
# coefficient is -hbar^2/(2 mu lam^2) sum_k a^k P_k(theta); ``profiles`` has
# P_0, P_1, P_2 as Fourier coefficients {d: c_d} of e^{i d theta} (' = d_theta).
_Q2 = ({0: 1.0}, {-1: -1.0, 1: -1.0}, {-2: 0.25, 0: 0.5, 2: 0.25})  # q^2
_2QQ1 = ({}, {-1: 1j, 1: -1j}, {-2: -0.5j, 2: 0.5j})  # 2 q q'
_PROFILE_TERMS = (
    ("lap", 0, _Q2), ("inv_r2", 2, _Q2), ("inv_r2", 1, _2QQ1), ("dr_r", 1, _2QQ1),
    ("inv_r2", 0, ({}, {-1: 0.5, 1: 0.5}, {-2: -0.25, 0: -0.5, 2: -0.25})),  # q q''
    ("dr_r", 0, ({}, {-1: 0.5, 1: 0.5}, {-2: -0.75, 0: 0.5, 2: -0.75})),  # 2 q'^2 + q q''
    ("drr", 0, ({}, {}, {-2: -0.25, 0: 0.5, 2: -0.25})),  # q'^2
)


@lru_cache(maxsize=32)
def _fourier_table(nr: int, ntheta: int, r0: float) -> dict:
    """H1 + H3 of the ellipse per profile, in the angular Fourier basis.

    Entry (k, d) sums over the terms c_d of P_k times the stencil times
    (i m)^p of the source mode m (no Nyquist in p = 1): it takes m to m + d
    and is stored at row m + d; the Laplacian's Delta m = 0 part is left out.
    Entries "lap" and "dil" are those stencils for every m.  Each is a
    read-only flat m-major (lower, diag, upper) stack, (3, ntheta (nr - 1)),
    as ``_shifted`` takes it: the parity ghost (r_0, theta + pi) is folded into
    row 0's diagonal as (-1)^m, and the joints between wavenumbers are zero.
    """
    ni = nr - 1
    stencils = _radial_stencils(nr, r0)
    m = np.fft.fftfreq(ntheta, d=1.0 / ntheta)
    mult = (np.ones(ntheta), 1j * np.where(m == -ntheta // 2, 0.0, m), -(m**2))
    parity = (-1.0) ** np.arange(ntheta)

    def m_major(name, w):  # the stencil times w[m], source-indexed
        lower, diag, upper = (w[:, None] * band[:ni] for band in stencils[name])
        diag[:, 0] += lower[:, 0] * parity
        lower[:, 0], upper[:, -1] = 0.0, 0.0
        return np.array([lower, diag, upper], dtype=complex).reshape(3, -1)

    table = {name: m_major(name, np.ones(ntheta)) for name in ("dil", "lap")}
    for name, p, profiles in _PROFILE_TERMS:
        for k, profile in enumerate(profiles):
            for d, c in profile.items():
                if name != "lap" or d != 0:
                    bands = np.roll(m_major(name, c * mult[p]), d * ni, axis=1)
                    table[k, d] = table.get((k, d), 0.0) + bands
    for bands in table.values():
        bands.setflags(write=False)
    return table


def _tridiag_apply(bands: np.ndarray, x: np.ndarray, out=None, diag: bool = True):
    """T x, or out += T x in place (diagonal first, unless not ``diag``), for
    T a flat (lower, diag, upper) stack (3, n) as _fourier_table stores it."""
    if out is None:
        out = bands[1] * x
    elif diag:
        out += bands[1] * x
    out[:-1] += bands[2, :-1] * x[1:]
    out[1:] += bands[0, 1:] * x[:-1]
    return out


def _shifted(bands: np.ndarray, scale: complex):
    """I + scale T as LAPACK's (dl, d, du), without the unused lower[0], upper[-1]."""
    lower, diag, upper = scale * bands
    diag += 1.0
    return lower[1:], diag, upper[:-1]


def _check_r0(r0) -> None:
    if not (math.isfinite(r0) and r0 > 0):
        raise ValueError(f"r0 must be finite and > 0, got {r0!r}")


def _half_steps(t0: float, t1: float, dt: float):
    """h and each (half-step time, end time) of the CN grid from t0 to t1:
    max(1, round(span / dt)) steps, none if t1 == t0, times accumulated as
    t + h/2, t += h, except that the last step ends at t1 itself.  ValueError
    unless dt is finite and > 0, t1 is finite and t1 >= t0."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not math.isfinite(t1):
        raise ValueError(f"t1 must be finite, got {t1}")
    if not t1 >= t0:
        raise ValueError(f"t1 = {t1} is before the start time {t0}")
    nsteps = max(1, round((t1 - t0) / dt)) if t1 > t0 else 0
    h = (t1 - t0) / max(nsteps, 1)
    ends = list(accumulate([h] * nsteps, initial=t0))
    ends[-1] = t1
    return h, [(t + 0.5 * h, end) for t, end in zip(ends, ends[1:])]


@dataclass
class GridWavefunction:
    """Complex field on the tensor grid (0, r0] x [0, 2 pi); ValueError unless
    r0 is finite and > 0."""

    values: np.ndarray  # (nr, ntheta) complex
    r0: float
    time: float = 0.0

    def __post_init__(self):
        _check_r0(self.r0)
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
    def grid(self) -> tuple:
        """(nr, ntheta, r0): fields and operators combine only on one grid."""
        return self.nr, self.ntheta, self.r0

    @property
    def dr(self) -> float:
        return self.r0 / (self.nr - 0.5)

    def radii(self) -> np.ndarray:
        return _grid_radii(self.nr, self.r0)

    def inner(self, other: "GridWavefunction") -> complex:
        if other.grid != self.grid:
            raise ValueError(f"inner product across grids: (nr, ntheta, r0) = {self.grid} "
                             f"and {other.grid}")
        w = self.radii() * self.dr * (2.0 * math.pi / self.ntheta)
        return complex(np.sum(np.conjugate(self.values) * other.values * w[:, None]))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def copy(self) -> "GridWavefunction":
        return GridWavefunction(self.values, self.r0, self.time)


def grid_from_sampler(sampler, r0: float, nr: int, ntheta: int,
                      time: float = 0.0) -> GridWavefunction:
    """Sample a callable psi(r, theta) onto the grid (boundary row zeroed)."""
    values = sampler(_grid_radii(nr, r0)[:, None], _grid_thetas(ntheta)[None, :])
    return GridWavefunction(np.broadcast_to(values, (nr, ntheta)), r0, time)


@dataclass(eq=False)
class EffectiveOperator:
    """H1 + H2 + H3 at one time, in the angular Fourier basis.

    H1 = -hbar^2/(2 mu R^2) lap,  H2 = i hbar (Rdot/R)(1 + r d_r),  and H3
    the five deformation terms of q = 1/R.  On the ellipse each H1 and H3
    coefficient is sum_k scales[k] P_k(theta), so the grid's one
    :func:`_fourier_table` is combined, once per operator, with ``scales``
    and ``dil`` = i hbar Rdot/R (a number, or its theta-node samples) into
    the Fourier blocks (every Delta m = 0 part, dil's mean included), the
    Delta m = +-1, +-2 bands (none if scales[1] = scales[2] = 0) and dil's rest.
    ValueError unless r0 is finite and > 0, ``scales`` holds three numbers
    and ``dil`` is a number or has shape (ntheta,).
    """

    nr: int
    ntheta: int
    r0: float
    hbar: float
    scales: tuple  # -hbar^2/(2 mu lam^2) (1, eps g, (eps g)^2)
    dil: complex | np.ndarray

    def __post_init__(self):
        if self.nr < MIN_GRID or self.ntheta < MIN_GRID:
            raise ValueError(f"grid too coarse for the stencils (need >= {MIN_GRID})")
        if self.ntheta % 2:
            raise ValueError("ntheta must be even")
        _check_r0(self.r0)
        if np.shape(self.scales) != (3,):
            raise ValueError(f"scales must hold three numbers, got {self.scales!r}")
        dil = np.asarray(self.dil, dtype=complex)
        if dil.shape not in ((), (self.ntheta,)):
            raise ValueError(f"dil must be a number or its samples on the {self.ntheta} "
                             f"theta nodes, got shape {dil.shape}")
        table = _fourier_table(self.nr, self.ntheta, self.r0)
        s0, s1, s2 = self.scales
        mean = dil.mean()
        blocks = s0 * table[0, 0]
        if s2:
            blocks += s2 * table[2, 0]
        # the Laplacian is scaled alone: its diagonal and off-diagonals cancel
        # to ~1e-4 of their size, so rounding their sum first drifts phases
        lap = sum(s * profile.get(0, 0.0) for s, profile in zip(self.scales, _Q2))
        ni = self.nr - 1
        blocks.reshape(3, self.ntheta, ni)[...] += (
            lap * table["lap"][:, None, :ni] + mean * table["dil"][:, None, :ni])
        blocks.setflags(write=False)
        self._blocks = blocks
        self._couplings = [(s, [(d, table[k, d]) for d in (-k, k)])
                           for k, s in ((1, s1), (2, s2)) if s]
        self._rest = ((dil - mean)[:, None], table["dil"]) if dil.ndim else None
        # no Delta m coupling and no dil rest: the blocks are the operator
        self.theta_constant = not self._couplings and self._rest is None

    @property
    def grid(self) -> tuple:
        return self.nr, self.ntheta, self.r0

    def apply(self, xhat: np.ndarray) -> np.ndarray:
        """H_eff applied to xhat = fft(v[:-1], axis=1), the angular spectrum
        of a grid field's interior rows, (nr - 1, ntheta): the form
        :func:`propagate` carries.  Grid fields go through :func:`apply_heff`.
        The blocks act per wavenumber, then the off-block part is added.
        """
        if xhat.shape != (self.nr - 1, self.ntheta):
            raise ValueError(
                f"apply takes the ({self.nr - 1}, {self.ntheta}) angular spectrum of the "
                f"interior rows, got {xhat.shape}; apply_heff takes ({self.nr}, "
                f"{self.ntheta}) grid fields")
        x = xhat.T  # m-major, as the bands are stored
        return self._off_block(x, _tridiag_apply(self._blocks, x.reshape(-1))).T

    def _off_block(self, x: np.ndarray, out=None) -> np.ndarray:
        """C x, or C x added to the flat ``out``, shaped like x: C = H_eff
        minus its blocks, on an m-major spectrum x, (ntheta, nr - 1).  The
        Delta m bands act on the spectrum rolled by Delta m, and dil's rest
        through one inverse/forward FFT pair.  Needs C != 0 or an ``out``."""
        flat = x.reshape(-1)
        n, ni = flat.size, self.nr - 1
        if self._couplings:  # wrapped[(m + 2) ni + j] = x[m mod ntheta, j]
            wrapped = np.concatenate((flat[-2 * ni:], flat, flat[:2 * ni]))
            for scale, shifts in self._couplings:
                source = scale * wrapped
                for d, bands in shifts:
                    out = _tridiag_apply(bands, source[(2 - d) * ni:(2 - d) * ni + n], out)
        if self._rest is not None:  # the dilation stencil has no diagonal
            field, bands = self._rest
            out = _tridiag_apply(bands, np.fft.fft(field * np.fft.ifft(x, axis=0), axis=0)
                                 .reshape(-1), out, diag=False)
        return out.reshape(x.shape)

    def mean_blocks(self):
        """Read-only (lower, diag, upper), each (nr - 1, ntheta), Fourier index
        along axis 1 (views of m-major arrays): the Delta m = 0 part of every
        term, parity ghost in row 0's diagonal as (-1)^m.  When
        ``theta_constant`` they ARE the operator."""
        return tuple(bands.reshape(self.ntheta, -1).T for bands in self._blocks)


def effective_operator(boundary: BoundaryFunction, spec: DomainSpec, t: float,
                       nr: int, ntheta: int) -> EffectiveOperator:
    """H_eff at time t from lambda, eps g and eps gdot of the boundary's own
    ellipse (``boundary.spec``) and hbar, mu and r0 of ``spec``.

    dil = i hbar (lamdot/lam + eps gdot cos/(1 - eps g cos)) is sampled on
    the theta nodes only if eps gdot != 0: at eps g = eps gdot = 0 the
    operator is theta-constant.  ValueError naming t if the box is not
    valid at t (see domain._box), and naming the field unless the two specs
    agree on mu, hbar, r0 and kappa (the ellipse's epsilon, gamma and
    schedule are its own: ``pantographic_from`` resets them).
    """
    for name in ("mu", "hbar", "r0", "kappa"):
        if getattr(boundary.spec, name) != getattr(spec, name):
            raise ValueError(f"boundary.spec and spec disagree on {name}: "
                             f"{getattr(boundary.spec, name)!r} and {getattr(spec, name)!r}")
    lam, lamdot, eg, egdot = _box(boundary.spec, t)
    q = 1.0 / lam  # q = 1/R where eps g cos(theta) = 0
    pref = -spec.hbar**2 / (2.0 * spec.mu) * q * q
    cos = np.cos(_grid_thetas(ntheta)) if egdot else 0.0
    dil = 1j * spec.hbar * (lamdot * q + egdot * cos / (1.0 - eg * cos))
    return EffectiveOperator(nr=nr, ntheta=ntheta, r0=spec.r0, hbar=spec.hbar,
                             scales=(pref, pref * eg, pref * eg * eg), dil=dil)


def apply_heff(op: EffectiveOperator, psi: GridWavefunction) -> GridWavefunction:
    """H_eff applied on the grid; Dirichlet row re-imposed on the result."""
    if psi.grid != op.grid:
        raise ValueError("grid mismatch between operator and wavefunction")
    values = np.zeros(psi.values.shape, dtype=complex)
    values[:-1] = np.fft.ifft(op.apply(np.fft.fft(psi.values[:-1], axis=1)), axis=1)
    return GridWavefunction(values, psi.r0, psi.time)


_RESTART = 20  # inner iterations per GMRES cycle
# propagate's GMRES stopping rule, read at each call: the true residual within
# _GMRES_RTOL of the right-hand side, in at most _GMRES_MAX_ITER inner iterations
_GMRES_RTOL = 1e-11
_GMRES_MAX_ITER = 60


def _dot(u: np.ndarray, w: np.ndarray) -> complex:
    """<u, w> as a ufunc sum: a BLAS dot or gemv on vectors this long wakes
    OpenBLAS's worker threads, which then spin on the other cores."""
    return complex((u.conj() * w).sum())


def _norm(u: np.ndarray) -> float:
    return math.sqrt(_dot(u, u).real)


def _givens(f: complex, g: float):
    """(c, s, r) with [[c, s], [-conj(s), c]] (f, g) = (r, 0), c real, for f
    a Python complex and g real and >= 0: zlartg's unscaled formulas, bit
    for bit.  Its quotients and product are Python's complex ones, as zlartg
    forms them, so that even the signs of zero parts agree (a numpy complex
    quotient multiplies by a reciprocal).  zlartg takes other branches only
    for |f| or g outside about [1e-77, 1e77]; GMRES's entries are norms and
    inner products of unit Krylov vectors under an operator of order one, so
    they never get there."""
    if g == 0:
        return 1.0, 0j, f
    if f == 0:
        return 0.0, complex(1.0, -0.0), complex(g)
    f2 = f.real * f.real + f.imag * f.imag
    h2 = f2 + g * g
    c, d = math.sqrt(f2 / h2), math.sqrt(f2 * h2)
    return c, complex(g, -0.0) * (f / complex(d)), f / complex(c)


def _gmres(matvec, psolve, pmatvec, b: np.ndarray, x0: np.ndarray, rtol: float,
           max_iter: int):
    """Left-preconditioned restarted GMRES (Saad & Schultz 1986) for
    matvec(x) = b from x0, preconditioner psolve ~ matvec^-1: psolve of each
    true residual starts a cycle, and pmatvec(v), which is psolve(matvec(v))
    in exact arithmetic, is its operator.

    Every reduction and update on the (nr - 1, ntheta) fields is a ufunc, and
    each plane rotation is :func:`_givens`.  A cycle of at most ``_RESTART``
    inner iterations stops early once the preconditioned residual estimate
    has fallen by the factor rtol ||b|| / ||r|| that the true residual r still
    has to fall.  It ends after ``max_iter`` inner iterations in all, or once
    the true residual ||b - matvec(x)|| <= rtol ||b||.  Returns (x, inner
    iterations, ||b - matvec(x)|| / ||b||).
    """
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    atol = rtol * bnorm
    eps = np.finfo(float).eps
    x = np.array(x0, order="C")
    r = b - matvec(x)
    rnorm = _norm(r)
    if rnorm / bnorm <= rtol:  # the test propagate applies to the result
        return x, 0, rnorm / bnorm
    v = np.empty((_RESTART + 1,) + b.shape, dtype=complex)  # Krylov basis
    h = np.zeros((_RESTART, _RESTART), dtype=complex)  # rotated Hessenberg, by column
    givens = np.zeros((_RESTART, 2), dtype=complex)
    inner = 0
    while True:
        v[0] = psolve(r)
        s = np.zeros(_RESTART + 1, dtype=complex)  # rotated ||M r|| e_1
        s[0] = _norm(v[0])
        v[0] *= 1.0 / s[0]
        ptol = s[0].real * atol / rnorm
        for col in range(_RESTART):
            w = pmatvec(v[col])
            h0 = _norm(w)
            for k in range(col + 1):  # modified Gram-Schmidt
                h[col, k] = _dot(v[k], w)
                w -= h[col, k] * v[k]
            h1 = _norm(w)
            v[col + 1] = w
            breakdown = h1 <= eps * h0  # the Krylov space holds the solution
            if breakdown:
                h1 = 0.0
            else:
                v[col + 1] *= 1.0 / h1
            for k in range(col):
                c, sn = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + sn * n1, -sn.conjugate() * n0 + c * n1
            c, sn, h[col, col] = _givens(complex(h[col, col]), h1)
            givens[col] = c, sn
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


def _operator(op_factory, t: float, grid: tuple) -> EffectiveOperator:
    op = op_factory(t)
    if op.grid != grid:
        raise ValueError(f"operator grid (nr, ntheta, r0) = {op.grid} "
                         f"is not the wavefunction's {grid}")
    return op


def _solve_pairs(blocks: np.ndarray, scale: complex, x: np.ndarray) -> np.ndarray:
    """(I + scale T)^-1 x for T theta-constant blocks, a flat m-major stack as
    ``_fourier_table`` stores it, and x m-major (ntheta, nr - 1).  The blocks
    of m and -m are equal, so one zgtsv solves |m| = 0 .. ntheta/2 for both
    signs, m and -m as its two columns."""
    half = x.shape[0] // 2 + 1
    mirror = -np.arange(half) % x.shape[0]  # the rows of -m
    y = np.empty_like(x)
    y[mirror], y[:half] = lapack.gtsv(*_shifted(blocks[:, :half * x.shape[1]], scale),
                                      np.stack((x[mirror], x[:half])))
    return y


def propagate(op_factory, psi0: GridWavefunction, t1: float, dt: float) -> GridWavefunction:
    """Crank-Nicolson propagation from psi0.time to t1 (not before it; dt
    finite and > 0, psi0 finite, the operator at t1 built without error, and
    every operator on psi0's grid, else ValueError before any step).

    The state is carried m-major as the angular spectrum x of its interior
    rows, and each step builds the operator H at the half-step time.  A step
    takes the Cayley form: y = (I + sH)^-1 x, then x' = 2y - x, which is
    (I + sH)^-1 (I - sH) x with s = i h / (2 hbar), and H is never applied to
    build a right-hand side.  A theta-constant (pantographic) operator is its
    blocks: the step is one ``_lapack.gtsv`` of the |m| = 0 .. ntheta/2
    blocks, each solved once for both m and -m, with no FFT.  Otherwise H is
    its blocks B plus an off-block part C, and restarted GMRES (cycles of 20)
    solves for y, preconditioned by M = I + sB (one ``_lapack.Factor``):
    each cycle starts from M^-1 of the true residual x - (I + sH) y, and
    iterates v -> v + M^-1 (s C v).  The first start is M^-1 x plus the
    coupling correction e = y - M^-1 x of the earlier steps of this call,
    extrapolated as 2 e_n - e_{n-1} (e_n on the second step).  GMRES
    iterates until the true residual is within the module's ``_GMRES_RTOL``
    of ||x||, in at most ``_GMRES_MAX_ITER`` inner iterations; its
    reductions are ufunc sums, no threaded BLAS call.  RuntimeError naming the half-step time, the
    iterations and the residual if it does not converge.

    The pantographic operator is Hermitian under the grid weights r_j, so
    the step conserves the grid norm to round-off.  The H3 stencil of a
    deformed boundary is not, so there the norm drifts: slowly for smooth
    states, faster for rough ones.
    """
    if not np.isfinite(psi0.values).all():
        raise ValueError("psi0 must be finite")
    h, steps = _half_steps(psi0.time, t1, dt)
    if not steps:
        return psi0.copy()
    _operator(op_factory, t1, psi0.grid)  # the half steps stop short of t1
    rtol, max_iter = _GMRES_RTOL, _GMRES_MAX_ITER
    x = np.fft.fft(psi0.values[:-1].T, axis=0)  # (ntheta, nr - 1)
    guess = last = None  # the extrapolated and the last coupling correction e
    for t_half, t in steps:
        op = _operator(op_factory, t_half, psi0.grid)
        scale = 1j * h / (2.0 * op.hbar)
        if op.theta_constant:
            y = _solve_pairs(op._blocks, scale, x)
        else:
            factor = lapack.Factor(*_shifted(op._blocks, scale))
            base = factor.solve(x)
            y, inner, resid = _gmres(
                lambda f: f + scale * op.apply(f.T).T, factor.solve,
                lambda v: v + factor.solve(scale * op._off_block(v)),
                x, base if guess is None else base + guess, rtol, max_iter)
            if not resid <= rtol:
                raise RuntimeError(
                    f"Crank-Nicolson step at t = {t_half!r} did not converge (GMRES inner "
                    f"iterations: {inner}, relative residual: {resid:.3e}, rtol: {rtol!r}); "
                    "reduce dt or the deformation amplitude")
            e = y - base
            guess, last = e if last is None else 2.0 * e - last, e
        x = 2.0 * y - x
    values = np.zeros(psi0.values.shape, dtype=complex)
    values[:-1] = np.fft.ifft(x, axis=0).T
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
    a ``complex``.  ValueError if a mode was built for another r0 or a time
    is not one of the box (see DomainSpec.lam and DomainSpec.g).
    """
    tgt, src = pair.target, pair.source
    _check_modes((src, tgt), spec)
    s = np.asarray(s, dtype=float)
    lam = spec.lam(s)
    g = spec.g(s)
    gd = spec.gdot(s)
    # one row of radial samples per time
    a = (alpha(spec, s) if dressed else np.zeros_like(s))[..., None]
    rel = (np.exp(1j * (beta(src, spec, s) - beta(tgt, spec, s)))
           if dressed else 1.0)

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

    ntheta = abs(src.m - tgt.m) + 2  # fewest nodes exact for frequencies m_s - m_t +- 1
    theta, dtheta = _grid_thetas(ntheta), 2.0 * math.pi / ntheta
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
    """int_0^t <phi|H^(1)(s)|phi'> ds by adaptive Gauss-Kronrod quadrature of the
    sandwich, bisecting from the one panel [0, t]; lambda(t) is read first, so a
    t past the collapse raises ValueError before any panel."""
    spec.lam(t)
    return complex(adaptive_quad_vec(lambda s: brute_element(pair, spec, s), 0.0, t, abs_tol))


def project(psi: GridWavefunction, mode: BesselMode, spec: DomainSpec,
            t: float) -> complex:
    """<phi_mode_exact(t), psi> under grid quadrature.

    Projection onto the co-moving exact solution, so pantographic evolution
    keeps |project|^2 constant and the square is the mode population.  The
    reference is sampled on spec.r0's grid at t, so psi on another disk, or
    a t other than psi.time, raises ValueError naming both.
    """
    if t != psi.time:
        raise ValueError(f"project at t = {t!r} of a field at time {psi.time!r}")
    return grid_from_sampler(lambda r, theta: phi_exact(mode, spec, r, theta, t),
                             spec.r0, psi.nr, psi.ntheta, t).inner(psi)


def grid_energy(psi: GridWavefunction, spec: DomainSpec) -> float:
    """Re<psi|H1 + H3|psi>/<psi|psi> on the grid at psi.time, for the ellipse
    of ``spec``: H_eff of that ellipse with its dilation term (H2) dropped.

    At eps > 0 this carries the origin row's parity-ghost bias (the field
    R(theta) psi(0) at s = 0 is not a regular polar field).  ValueError if
    psi.time is not a time of the box (see domain._box).
    """
    op = effective_operator(BoundaryFunction.deformed_from(spec), spec, psi.time,
                            psi.nr, psi.ntheta)
    h = apply_heff(dataclasses.replace(op, dil=0.0), psi)
    return float(psi.inner(h).real / psi.inner(psi).real)


def fd_energy_rate(trajectory, spec: DomainSpec) -> np.ndarray:
    """4th-order finite-difference d<H1 + H3>/dt of :func:`grid_energy` along
    a grid trajectory.

    At eps = 0 that is the pantographic <H1>; at eps > 0 it is the ellipse's
    energy, not the circle's H1.  Needs at least 5 snapshots on a uniform,
    strictly increasing time grid, each at a time of the box (see
    DomainSpec.lam); endpoints use one-sided 4th-order stencils.
    """
    snaps = list(trajectory)
    if len(snaps) < 5:
        raise ValueError("need at least 5 snapshots")
    times = np.array([s.time for s in snaps])
    spec.lam(times)  # before any snapshot's energy
    hsteps = np.diff(times)
    h = hsteps[0]
    if not np.all(hsteps > 0):
        raise ValueError(f"snapshot times must be strictly increasing, got {times.tolist()}")
    if not np.allclose(hsteps, h, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform")
    e = np.array([grid_energy(s, spec) for s in snaps])
    n = len(e)
    out = np.empty(n)
    out[2:-2] = (e[:-4] - 8 * e[1:-3] + 8 * e[3:-1] - e[4:]) / (12 * h)
    out[0] = (-25 * e[0] + 48 * e[1] - 36 * e[2] + 16 * e[3] - 3 * e[4]) / (12 * h)
    out[1] = (-3 * e[0] - 10 * e[1] + 18 * e[2] - 6 * e[3] + e[4]) / (12 * h)
    out[-2] = -(-3 * e[-1] - 10 * e[-2] + 18 * e[-3] - 6 * e[-4] + e[-5]) / (12 * h)
    out[-1] = -(-25 * e[-1] + 48 * e[-2] - 36 * e[-3] + 16 * e[-4] - 3 * e[-5]) / (12 * h)
    return out
