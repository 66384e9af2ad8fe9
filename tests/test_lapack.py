"""The ctypes binding of numpy's OpenBLAS LAPACK against scipy.linalg.lapack,
which the tests keep as an independent reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack as reference

from billiard2d import _lapack, oracle


def _system(n, seed):
    """Random complex bands (dl, d, du) of order n and one right-hand side."""
    rng = np.random.default_rng(seed)

    def z(k):
        return rng.normal(size=k) + 1j * rng.normal(size=k)

    return z(n - 1), z(n), z(n - 1), z(n)


def _assert_bits(got, want):
    # every returned array, shape and bytes, and info
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        else:
            assert repr(g) == repr(w) and type(g) is type(w)  # repr shows -0.0


# scipy's wrappers reject zero-length arrays (the bands at n = 1, zgttrf's
# du2 at n = 2), so n = 1 and 2 are checked against a dense solve below
@pytest.mark.parametrize("n", [2, 6112])
def test_zgtsv_matches_scipy_bit_for_bit(n):
    dl, d, du, b = _system(n, n)
    _assert_bits(_lapack.zgtsv(dl, d, du, b), reference.zgtsv(dl, d, du, b))


@pytest.mark.parametrize("n", [3, 6112])
def test_zgttrf_and_zgttrs_match_scipy_bit_for_bit(n):
    dl, d, du, b = _system(n, n)
    got = _lapack.zgttrf(dl, d, du)
    want = reference.zgttrf(dl, d, du)
    assert got[4].dtype == np.int64  # the pivots zgttrs takes as they are
    _assert_bits(got[:4] + got[5:], want[:4] + want[5:])
    assert np.array_equal(got[4], want[4])
    x = reference.zgttrs(*want[:5], b)
    _assert_bits(_lapack.zgttrs(*got[:5], b), x)
    _assert_bits(_lapack.zgttrs(*want[:5], b), x)  # scipy's int32 pivots


def test_zlartg_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(1000)
    f = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    g = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    pairs = list(zip(f, g)) + [(f[0], 0j), (0j, g[0]), (0j, 0j)]
    for fk, gk in pairs:
        _assert_bits(_lapack.zlartg(fk, gk), reference.zlartg(fk, gk))


@pytest.mark.parametrize("n", [1, 2])
def test_smallest_systems_match_a_dense_solve(n):
    dl, d, du, b = _system(n, 10 + n)
    dense = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    want = np.linalg.solve(dense, b)
    *_, x, info = _lapack.zgtsv(dl, d, du, b)
    assert info == 0 and np.allclose(x, want, rtol=1e-14, atol=0)
    *fact, info = _lapack.zgttrf(dl, d, du)
    assert info == 0 and fact[3].shape == (0,) and fact[4].shape == (n,)
    x, info = _lapack.zgttrs(*fact, b)
    assert info == 0 and np.allclose(x, want, rtol=1e-14, atol=0)


def test_wrappers_leave_their_inputs_alone():
    dl, d, du, b = _system(8, 0)
    inputs = [a.copy() for a in (dl, d, du, b)]
    bands = _lapack.zgtsv(dl, d, du, b)[:3]
    _lapack.zgttrf(dl, d, du)
    _lapack.zgttrs(*_lapack.zgttrf(dl, d, du)[:5], b)
    assert all(np.array_equal(a, a0) for a, a0 in zip((dl, d, du, b), inputs))
    assert not any(np.shares_memory(f, a) for f, a in zip(bands, (dl, d, du)))


def test_wrappers_reject_mismatched_shapes():
    dl, d, du, b = _system(5, 0)
    with pytest.raises(ValueError, match="bands"):
        _lapack.zgtsv(dl[1:], d, du, b)
    with pytest.raises(ValueError, match="right-hand side"):
        _lapack.zgtsv(dl, d, du, b[1:])
    fact = _lapack.zgttrf(dl, d, du)[:5]
    with pytest.raises(ValueError, match="ipiv"):
        _lapack.zgttrs(*fact[:4], fact[4][1:], b)


def test_singular_system_reports_info_as_scipy_does():
    # no pivot in the first column: d[0] = dl[0] = 0
    dl, d, du, b = _system(6, 3)
    dl[0] = d[0] = 0.0
    info = _lapack.zgtsv(dl, d, du, b)[-1]
    assert info > 0 and info == reference.zgtsv(dl, d, du, b)[-1]
    info = _lapack.zgttrf(dl, d, du)[-1]
    assert info > 0 and info == reference.zgttrf(dl, d, du)[-1]
    # the same system as I + scale T of a band stack (lower[0], upper[-1] unused)
    bands = np.stack([np.r_[0.0, dl], d - 1.0, np.r_[du, 0.0]])
    with pytest.raises(RuntimeError, match=rf"tridiagonal solve failed \(info={info}\)"):
        oracle._tridiag_solve(bands, 1.0, b)
    with pytest.raises(RuntimeError, match=rf"factorization failed \(info={info}\)"):
        oracle._BlockFactor(bands, 1.0)


# A numpy whose install has no libscipy_openblas64_, and one whose library
# lacks the symbols.
MISSING_LIBRARY = "import glob; glob.glob = lambda *a, **k: []\n"
MISSING_SYMBOL = ("import ctypes; cdll = ctypes.CDLL\n"
                  "ctypes.CDLL = lambda name: cdll(name) if name is None else object()\n")


@pytest.mark.parametrize("patch", [MISSING_LIBRARY, MISSING_SYMBOL])
def test_missing_openblas_is_an_import_error(patch):
    # no scipy fallback: without numpy's OpenBLAS the oracle does not load
    src = Path(oracle.__file__).resolve().parents[1]
    code = ("import numpy\n" + patch +
            "try:\n    import billiard2d.oracle\n"
            "except ImportError as exc:\n    print(exc)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert "libscipy_openblas64_" in out.stdout and "scipy_zgtsv_64_" in out.stdout
