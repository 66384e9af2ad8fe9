"""The four LAPACK routines the CN oracle calls -- zgtsv, zgttrf, zgttrs and
zlartg -- bound once with ctypes from the OpenBLAS that numpy's wheel ships
(``numpy.libs/libscipy_openblas64_*``, which numpy has already loaded).

That build prefixes each symbol with ``scipy_`` and suffixes it ``64_``, and
its integers are 64-bit (ILP64).  Each wrapper keeps scipy.linalg.lapack's
call signature and return tuple for one right-hand side, without the
``overwrite_*`` flags or ``zgttrs``'s ``trans``: the bands and right-hand
sides are copied, as scipy copies them by default, and the factor's arrays
are passed to ``zgttrs`` as they are.  ``zgttrf`` returns its pivots as
int64, so ``zgttrs`` converts nothing per solve.  A numpy without that
library or symbol makes importing this module an ImportError; there is no
scipy fallback.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

_LIB_DIR = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
_LIB = "libscipy_openblas64_"
# Every argument is a pointer (Fortran passes by reference):
#   zgtsv(N, NRHS, DL, D, DU, B, LDB, INFO)
#   zgttrf(N, DL, D, DU, DU2, IPIV, INFO)
#   zgttrs(TRANS, N, NRHS, DL, D, DU, DU2, IPIV, B, LDB, INFO), then TRANS's length
#   zlartg(F, G, C, S, R)
_NAMES = ("zgtsv", "zgttrf", "zgttrs", "zlartg")
_NARGS = (8, 7, 11, 5)


def _bind():
    paths = sorted(glob.glob(os.path.join(_LIB_DIR, _LIB + "*")))
    symbols = [f"scipy_{name}_64_" for name in _NAMES]
    try:
        lib = ctypes.CDLL(paths[0])  # numpy loaded it: this returns its handle
        routines = [getattr(lib, symbol) for symbol in symbols]
    except (IndexError, OSError, AttributeError):
        raise ImportError(f"billiard2d's CN oracle needs {', '.join(symbols)} from "
                          f"numpy's OpenBLAS, {_LIB}* in {_LIB_DIR}, and no such "
                          "library exports them") from None
    for routine, nargs in zip(routines, _NARGS):
        routine.restype = None
        routine.argtypes = (ctypes.c_void_p,) * nargs
    routines[2].argtypes += (ctypes.c_size_t,)  # gfortran's hidden length of TRANS
    return routines


_zgtsv, _zgttrf, _zgttrs, _zlartg = _bind()
_ONE = ctypes.c_int64(1)
_TRANS_LEN = ctypes.c_size_t(1)
_ZLARTG_BUF = ctypes.c_double * 9  # f, g, cs, sn, r
# A pointer to a writable array's data: ctypes.c_void_p takes a ctypes array,
# and a zero-length one views any buffer, an empty band too, at a third of
# the cost of ``a.ctypes.data``.
_at = (ctypes.c_char * 0).from_buffer


def _copy(a) -> np.ndarray:
    return np.array(a, dtype=np.complex128)


def _view(a, dtype=np.complex128) -> np.ndarray:
    """a itself where it is a writable C-contiguous array of dtype, else a copy."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return a if a.flags.writeable else a.copy()


def _bands(dl, d, du, take):
    """take(dl), take(d), take(du) and n; ValueError unless they are the bands
    of one n x n matrix, n >= 1."""
    dl, d, du = take(dl), take(d), take(du)
    n = d.shape[0] if d.ndim == 1 else 0
    if n < 1 or dl.shape != (n - 1,) or du.shape != (n - 1,):
        raise ValueError(f"tridiagonal bands of shapes {dl.shape}, {d.shape}, {du.shape} "
                         "are not (n - 1,), (n,), (n - 1,) with n >= 1")
    return dl, d, du, n


def _rhs(b, n: int) -> np.ndarray:
    """A copy of b, one right-hand side of length n, for LAPACK to overwrite."""
    b = _copy(b)
    if b.shape != (n,):
        raise ValueError(f"right-hand side of shape {b.shape} is not ({n},)")
    return b


def zgtsv(dl, d, du, b):
    """Solve the tridiagonal system with bands (dl, d, du) for b:
    (du2, d, du, x, info), as scipy.linalg.lapack.zgtsv."""
    dl, d, du, n = _bands(dl, d, du, _copy)
    b = _rhs(b, n)
    nn, info = ctypes.c_int64(n), ctypes.c_int64()
    _zgtsv(ctypes.byref(nn), ctypes.byref(_ONE), _at(dl), _at(d), _at(du), _at(b),
           ctypes.byref(nn), ctypes.byref(info))
    return dl, d, du, b, info.value


def zgttrf(dl, d, du):
    """LU factorization of the tridiagonal matrix with bands (dl, d, du):
    (dl, d, du, du2, ipiv, info), as scipy.linalg.lapack.zgttrf, but with
    int64 pivots."""
    dl, d, du, n = _bands(dl, d, du, _copy)
    du2 = np.empty(max(n - 2, 0), dtype=np.complex128)
    ipiv = np.empty(n, dtype=np.int64)
    nn, info = ctypes.c_int64(n), ctypes.c_int64()
    _zgttrf(ctypes.byref(nn), _at(dl), _at(d), _at(du), _at(du2), _at(ipiv),
            ctypes.byref(info))
    return dl, d, du, du2, ipiv, info.value


def zgttrs(dl, d, du, du2, ipiv, b):
    """Solve with zgttrf's factor for b: (x, info), as
    scipy.linalg.lapack.zgttrs with its default trans="N"."""
    dl, d, du, n = _bands(dl, d, du, _view)
    du2, ipiv = _view(du2), _view(ipiv, np.int64)
    if du2.shape != (max(n - 2, 0),) or ipiv.shape != (n,):
        raise ValueError(f"du2 of shape {du2.shape} and ipiv of shape {ipiv.shape} "
                         f"are not a factor of order n = {n}")
    b = _rhs(b, n)
    nn, info = ctypes.c_int64(n), ctypes.c_int64()
    _zgttrs(b"N", ctypes.byref(nn), ctypes.byref(_ONE), _at(dl), _at(d), _at(du),
            _at(du2), _at(ipiv), _at(b), ctypes.byref(nn), ctypes.byref(info), _TRANS_LEN)
    return b, info.value


def zlartg(f, g):
    """The plane rotation taking (f, g) to (r, 0): (cs, sn, r), as
    scipy.linalg.lapack.zlartg (a float and two complex numbers)."""
    z = _ZLARTG_BUF(f.real, f.imag, g.real, g.imag)
    at = ctypes.addressof(z)
    _zlartg(at, at + 16, at + 32, at + 40, at + 56)
    cs, sn_re, sn_im, r_re, r_im = z[4:]
    return cs, complex(sn_re, sn_im), complex(r_re, r_im)
