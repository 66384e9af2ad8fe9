"""The CN oracle's only way to LAPACK: zgtsv, zgttrf and zgttrs, bound once
with ctypes from the OpenBLAS that numpy's wheel ships
(``numpy.libs/libscipy_openblas64_*``, which numpy has already loaded; its
symbols are ``scipy_<name>_64_`` and its integers 64-bit).

``gtsv(dl, d, du, b)`` is one zgtsv, ``Factor(dl, d, du)`` one zgttrf and its
``solve(b)`` one zgttrs.  A solve copies the bands and b, reads b (any shape
holding n values) C-order, returns x shaped like b, and raises RuntimeError
where LAPACK's info != 0.  A numpy without that library or symbol makes
importing this module an ImportError; there is no scipy fallback.
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
_NAMES = ("zgtsv", "zgttrf", "zgttrs")
_NARGS = (8, 7, 11)


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


_zgtsv, _zgttrf, _zgttrs = _bind()
_ONE = ctypes.byref(ctypes.c_int64(1))
_TRANS_LEN = ctypes.c_size_t(1)
# A pointer to a writable array's data: ctypes.c_void_p takes a ctypes array,
# and a zero-length one views any buffer, an empty band too, at a third of
# the cost of ``a.ctypes.data``.
_at = (ctypes.c_char * 0).from_buffer


def _copy(a) -> np.ndarray:
    return np.array(a, dtype=np.complex128, order="C")


def _bands(dl, d, du):
    """Copies of dl, d and du, and n; ValueError unless they are the bands of
    one n x n matrix, n >= 1."""
    dl, d, du = _copy(dl), _copy(d), _copy(du)
    n = d.shape[0] if d.ndim == 1 else 0
    if n < 1 or dl.shape != (n - 1,) or du.shape != (n - 1,):
        raise ValueError(f"tridiagonal bands of shapes {dl.shape}, {d.shape}, {du.shape} "
                         "are not (n - 1,), (n,), (n - 1,) with n >= 1")
    return dl, d, du, n


def _rhs(b, n: int) -> np.ndarray:
    """A copy of b, one right-hand side of n values, for LAPACK to overwrite."""
    b = _copy(b)
    if b.size != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not hold n = {n} values")
    return b


def _check(info: ctypes.c_int64, what: str) -> None:
    if info.value != 0:
        raise RuntimeError(f"tridiagonal {what} failed (info={info.value})")


def gtsv(dl, d, du, b) -> np.ndarray:
    """x with T x = b, T the tridiagonal matrix with bands (dl, d, du): one zgtsv."""
    dl, d, du, n = _bands(dl, d, du)
    x = _rhs(b, n)
    nn, info = ctypes.byref(ctypes.c_int64(n)), ctypes.c_int64()
    _zgtsv(nn, _ONE, _at(dl), _at(d), _at(du), _at(x), nn, ctypes.byref(info))
    _check(info, "solve")
    return x


class Factor:
    """The LU factorization of the tridiagonal matrix with bands (dl, d, du):
    one zgttrf, kept for the many solves of one matrix."""

    def __init__(self, dl, d, du):
        dl, d, du, n = _bands(dl, d, du)
        du2 = np.empty(max(n - 2, 0), dtype=np.complex128)
        ipiv = np.empty(n, dtype=np.int64)
        self._n, self._nn = n, ctypes.byref(ctypes.c_int64(n))
        # the factor's arrays, viewed once: each solve passes them as they are
        self._lu = tuple(_at(a) for a in (dl, d, du, du2, ipiv))
        info = ctypes.c_int64()
        _zgttrf(self._nn, *self._lu, ctypes.byref(info))
        _check(info, "factorization")

    def solve(self, b) -> np.ndarray:
        """x with T x = b: one zgttrs."""
        x = _rhs(b, self._n)
        info = ctypes.c_int64()
        _zgttrs(b"N", self._nn, _ONE, *self._lu, _at(x), self._nn, ctypes.byref(info),
                _TRANS_LEN)
        _check(info, "solve")
        return x

