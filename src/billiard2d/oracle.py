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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, gmres

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
    """Coefficient fields and stencil data for H1 + H2 + H3 at one time.

    H1 = -hbar^2/(2 mu R^2) lap,  H2 = i hbar (Rdot/R)(1 + r d_r),  and H3
    carries the five deformation terms built from q = 1/R and its theta
    derivatives.  With R independent of theta all H3 coefficients vanish
    identically and the operator block-diagonalizes over angular wavenumbers.
    """

    nr: int
    ntheta: int
    r0: float
    t: float
    hbar: float
    mu: float
    c_lap: np.ndarray   # -hbar^2/(2 mu R^2), shape (ntheta,)
    c_dil: np.ndarray   # Rdot / R
    c31: np.ndarray     # x 1/r^2
    c32: np.ndarray     # x (1/r) d_r
    c33: np.ndarray     # x (1/r^2) d_theta
    c34: np.ndarray     # x d_rr
    c35: np.ndarray     # x (1/r) d_r d_theta
    pantographic: bool
    _band_cache: dict = field(default_factory=dict, init=False, repr=False)

    def radii(self) -> np.ndarray:
        return _grid_radii(self.nr, self.r0)

    @property
    def terms(self) -> list:
        """H_eff as (part, coefficient(theta), radial stencil, p) terms, each
        coefficient x stencil acting on d_theta^p."""
        terms = [("1", self.c_lap, "lap", 0), ("1", self.c_lap, "inv_r2", 2),
                 ("2", 1j * self.hbar * self.c_dil, "dil", 0)]
        if not self.pantographic:
            terms += [("3", self.c31, "inv_r2", 0), ("3", self.c32, "dr_r", 0),
                      ("3", self.c33, "inv_r2", 1), ("3", self.c34, "drr", 0),
                      ("3", self.c35, "dr_r", 1)]
        return terms

    def _bands(self, parts: str) -> dict:
        """{p: (lower, diag, upper)} of the ``parts`` terms summed per p, each
        band (nr, ntheta) or None where all zero; cached per ``parts``."""
        if parts not in self._band_cache:
            stencils = _radial_stencils(self.nr, self.r0)
            sums: dict = {}
            for part, coeff, name, p in self.terms:
                if part in parts:
                    acc = sums.setdefault(p, [None] * 3)
                    for k, band in enumerate(stencils[name]):
                        if band.any():  # 1/r^2 is diagonal only
                            term = band[:, None] * coeff
                            acc[k] = term if acc[k] is None else acc[k] + term
            self._band_cache[parts] = dict(sorted(sums.items()))
        return self._band_cache[parts]

    def apply(self, v: np.ndarray, parts: str = "123") -> np.ndarray:
        out = np.zeros_like(v, dtype=complex)
        mult = _spectral_multipliers(self.ntheta)
        vhat = None
        for p, (lower, diag, upper) in self._bands(parts).items():
            if p and vhat is None:
                vhat = np.fft.fft(v, axis=1)  # shared by p = 1 and p = 2
            w = np.fft.ifft(vhat * mult[p], axis=1) if p else v
            if diag is not None:
                out += diag * w
            if upper is not None:
                out[:-1] += upper[:-1] * w[1:]
            if lower is not None:
                out[1:] += lower[1:] * w[:-1]
                out[0] += lower[0] * np.roll(w[0], self.ntheta // 2)
        out[-1, :] = 0.0
        return out

    # -- angular-mean tridiagonal blocks (preconditioner / exact pantographic CN)

    def mean_blocks(self):
        """Per-angular-wavenumber tridiagonals of the theta-averaged operator.

        Returns (lower, diag, upper) arrays of shape (nr - 1, ntheta) over the
        interior radial rows, Fourier index along axis 1: the theta means of
        the H1 and H2 terms times (i m)^p.  For a pantographic boundary these
        blocks ARE the operator.
        """
        ni = self.nr - 1
        stencils = _radial_stencils(self.nr, self.r0)
        mult = _spectral_multipliers(self.ntheta)
        radial: dict = {}
        for part, coeff, name, p in self.terms:
            if part in "12":
                radial[p] = radial.get(p, 0) + np.mean(coeff) * np.array(stencils[name])[:, :ni]
        return tuple(sum(bands[:, :, None] * mult[p] for p, bands in radial.items()))


def effective_operator(boundary: BoundaryFunction, spec: DomainSpec, t: float,
                       nr: int, ntheta: int) -> EffectiveOperator:
    """Assemble the coefficient fields from the exact boundary at time t.

    Theta derivatives of q = 1/R are taken spectrally from the sampled
    values, which is exact for the trigonometric-polynomial boundaries used
    here and spectrally accurate otherwise.
    """
    if nr < MIN_GRID or ntheta < MIN_GRID:
        raise ValueError(f"grid too coarse for the stencils (need >= {MIN_GRID})")
    if ntheta % 2:
        raise ValueError("ntheta must be even")
    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    rv = boundary.value(theta, t)
    rt = boundary.dt(theta, t)
    q = 1.0 / rv
    qth, qthth = np.fft.ifft(np.fft.fft(q) * _spectral_multipliers(ntheta)[1:]).real
    pref = -spec.hbar**2 / (2.0 * spec.mu)
    pan = bool(boundary.pantographic)
    zeros = np.zeros(ntheta)
    return EffectiveOperator(
        nr=nr, ntheta=ntheta, r0=spec.r0, t=t, hbar=spec.hbar, mu=spec.mu,
        c_lap=pref * q * q,
        c_dil=rt * q,
        c31=zeros if pan else pref * q * qthth,
        c32=zeros if pan else pref * (2.0 * qth**2 + q * qthth),
        c33=zeros if pan else pref * 2.0 * q * qth,
        c34=zeros if pan else pref * qth**2,
        c35=zeros if pan else pref * 2.0 * q * qth,
        pantographic=pan,
    )


def apply_heff(op: EffectiveOperator, psi: GridWavefunction) -> GridWavefunction:
    """H_eff applied on the grid; Dirichlet row re-imposed on the result."""
    if (psi.nr, psi.ntheta) != (op.nr, op.ntheta) or psi.r0 != op.r0:
        raise ValueError("grid mismatch between operator and wavefunction")
    if psi.nr < MIN_GRID or psi.ntheta < MIN_GRID:
        raise ValueError(f"grid too coarse for the stencils (need >= {MIN_GRID})")
    return GridWavefunction(op.apply(psi.values), psi.r0, psi.time)


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


def propagate(op_factory, psi0: GridWavefunction, t1: float, dt: float,
              rtol: float = 1e-11, max_iter: int = 60) -> GridWavefunction:
    """Crank-Nicolson propagation from psi0.time to t1.

    The operator is frozen at the half-step time.  Each implicit solve uses
    the theta-averaged blocks as preconditioner and iterates the O(epsilon)
    angular coupling to convergence; for a pantographic boundary the
    preconditioner is the exact operator and a single sweep suffices.
    Raises RuntimeError if a step's linear solve stalls (dt too large).

    The pantographic operator is Hermitian under the grid weights r_j, so
    the step conserves the grid norm to round-off.  The H3 stencil of a
    deformed boundary is not, so there the norm drifts: slowly for smooth
    states, faster for rough ones.
    """
    psi = psi0.copy()
    total = t1 - psi.time
    if total <= 0:
        return psi
    nsteps = max(1, round(total / dt))
    h = total / nsteps
    ni = psi.nr - 1
    shape = psi.values.shape
    for _ in range(nsteps):
        t_half = psi.time + 0.5 * h
        op = op_factory(t_half)
        scale = 1j * h / (2.0 * op.hbar)
        b = psi.values - scale * op.apply(psi.values)
        factor = _BlockFactor(*op.mean_blocks(), scale)

        def precond_solve(res):
            xhat = factor.solve(np.fft.fft(res[:ni], axis=1))
            out = np.zeros_like(res)
            out[:ni] = np.fft.ifft(xhat, axis=1)
            return out

        x = precond_solve(b)
        bnorm = np.linalg.norm(b)
        resid = b - (x + scale * op.apply(x))
        resid[-1, :] = 0.0
        if np.linalg.norm(resid) > rtol * bnorm:
            # O(epsilon) angular coupling left out of the blocks: polish with
            # preconditioned GMRES

            def matvec(flat):
                v = flat.reshape(shape)
                out = v + scale * op.apply(v)
                out[-1, :] = v[-1, :]  # keep the Dirichlet row trivial
                return out.ravel()

            lin = LinearOperator((psi.values.size,) * 2, matvec=matvec,
                                 dtype=complex)
            pre = LinearOperator((psi.values.size,) * 2,
                                 matvec=lambda f: precond_solve(
                                     f.reshape(shape)).ravel(),
                                 dtype=complex)
            x_flat, info = gmres(lin, b.ravel(), x0=x.ravel(), M=pre,
                                 rtol=rtol, atol=0.0, maxiter=max_iter)
            if info != 0:
                raise RuntimeError(
                    "Crank-Nicolson step linear solve did not converge; "
                    "reduce dt or the deformation amplitude")
            x = x_flat.reshape(shape)
        x[-1, :] = 0.0
        psi = GridWavefunction(x, psi.r0, psi.time + h)
    return psi


# -- brute-force first-order matrix elements --------------------------------

def brute_element(pair, spec: DomainSpec, s: float, nr: int = 160,
                  ntheta: int = 64, dressed: bool = True, parts: bool = False):
    """<phi_target(s)| H_eff^(1)(s) |phi_source(s)> by direct 2-d quadrature.

    The exact solutions are built explicitly (phases included) and the
    first-order operator is applied by analytic differentiation of the
    integrand; no radial/time factorization or selection algebra is used,
    which is what makes this an independent check of the assembled elements.
    With ``dressed=False`` the sandwich is taken between bare eigenmodes.
    """
    tgt, src = pair.target, pair.source
    a = alpha(spec, s) if dressed else 0.0
    rel = (np.exp(1j * (beta(src, spec, s) - beta(tgt, spec, s)))
           if dressed else 1.0)
    g = float(spec.g(s))
    gd = float(spec.gdot(s))
    lam = float(spec.lam(s))

    rule, ut, _, _ = radial_profile(abs(tgt.m), tgt.n, spec.r0, nr)
    _, us, dus, d2us = radial_profile(abs(src.m), src.n, spec.r0, nr)
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
    i_lap = np.sum(wr * ut * lap_r)
    i_dil = np.sum(wr * ut * dil_r)
    i_x = np.sum(wr * ut * x_r)

    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    dtheta = 2.0 * math.pi / ntheta
    eang = np.exp(1j * (src.m - tgt.m) * theta)
    ang_cos = np.sum(np.cos(theta) * eang) * dtheta
    ang_h3 = np.sum((np.cos(theta) + 2j * src.m * np.sin(theta)) * eang) * dtheta

    pref1 = spec.hbar**2 / spec.mu * g / lam**2
    pref3 = -spec.hbar**2 / (2.0 * spec.mu) * g / lam**2
    h1 = spec.epsilon * rel * pref1 * i_lap * ang_cos
    h2 = spec.epsilon * rel * 1j * spec.hbar * gd * i_dil * ang_cos
    h3 = spec.epsilon * rel * pref3 * i_x * ang_h3
    if parts:
        return complex(h1), complex(h2), complex(h3)
    return complex(h1 + h2 + h3)


def brute_element_integrated(pair, spec: DomainSpec, t: float,
                             abs_tol: float = 1e-9, nr: int = 160,
                             ntheta: int = 64) -> complex:
    """int_0^t <phi|H^(1)(s)|phi'> ds by adaptive quadrature of the sandwich."""
    de = pair.target.energy - pair.source.energy

    def phase(s):
        return de * s / (spec.hbar * (1.0 + spec.kappa * s))

    def f(svals):
        return np.array([brute_element(pair, spec, float(s), nr, ntheta)
                         for s in np.atleast_1d(svals)])

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
    """<psi|H1|psi>/<psi|psi> on the grid with the pantographic 1/lam^2."""
    bnd = BoundaryFunction.pantographic_from(spec)
    op = effective_operator(bnd, spec, psi.time, psi.nr, psi.ntheta)
    h1 = GridWavefunction(op.apply(psi.values, parts="1"), psi.r0, psi.time)
    return float((psi.inner(h1)).real / psi.inner(psi).real)


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
