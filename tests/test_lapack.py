"""The ctypes wrappers of numpy's OpenBLAS LAPACK (gtsv, Factor), and the CN
oracle's plane rotation, against scipy.linalg.lapack, which the tests keep
as an independent reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack as reference

from billiard2d import _lapack, oracle
from billiard2d.domain import BoundaryFunction, DomainSpec


def _system(n, seed):
    """Random complex bands (dl, d, du) of order n and one right-hand side."""
    rng = np.random.default_rng(seed)

    def z(k):
        return rng.normal(size=k) + 1j * rng.normal(size=k)

    return z(n - 1), z(n), z(n - 1), z(n)


def _assert_bits(got, want):
    # every returned array, shape and bytes, and each number
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
    *_, x, info = reference.zgtsv(dl, d, du, b)
    assert info == 0
    _assert_bits([_lapack.gtsv(dl, d, du, b)], [x])


@pytest.mark.parametrize("n", [3, 6112])
def test_zgttrf_and_zgttrs_match_scipy_bit_for_bit(n):
    dl, d, du, b = _system(n, n)
    *fact, info = reference.zgttrf(dl, d, du)
    assert info == 0
    x, info = reference.zgttrs(*fact, b)
    assert info == 0
    _assert_bits([_lapack.Factor(dl, d, du).solve(b)], [x])


def test_givens_matches_scipy_zlartg_bit_for_bit():
    # GMRES's plane rotation, f complex and g = h1 a norm; |f| and g spread
    # over 1e-15 to 1e4, and the exact zeros of either sign
    rng = np.random.default_rng(1000)
    f = (rng.normal(size=1000) + 1j * rng.normal(size=1000)) * 10.0 ** rng.uniform(-15, 4, 1000)
    g = np.abs(rng.normal(size=1000)) * 10.0 ** rng.uniform(-15, 4, 1000)
    pairs = list(zip(f.tolist(), g.tolist()))
    for z in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        pairs += [(z, 2.0), (z, 0.0), (z, -0.0)]
    for fk in (1.5 + 2j, complex(-1.0, -0.0), complex(1.0, -0.0), complex(-0.0, -1.0),
               complex(-1.0, 0.0), -3j):
        pairs += [(fk, 0.0), (fk, -0.0), (fk, 2.0)]
    pairs += [(0j, 3.0), (0j, 0.0)]
    for fk, gk in pairs:
        _assert_bits(oracle._givens(fk, gk), reference.zlartg(fk, gk))


@pytest.mark.parametrize("n", [1, 2])
def test_smallest_systems_match_a_dense_solve(n):
    dl, d, du, b = _system(n, 10 + n)
    dense = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    want = np.linalg.solve(dense, b)
    assert np.allclose(_lapack.gtsv(dl, d, du, b), want, rtol=1e-14, atol=0)
    assert np.allclose(_lapack.Factor(dl, d, du).solve(b), want, rtol=1e-14, atol=0)


def test_solves_return_x_shaped_like_b():
    # b of any shape holding n values is one right-hand side, read C-order
    dl, d, du, b = _system(12, 5)
    want = _lapack.gtsv(dl, d, du, b)
    factor = _lapack.Factor(dl, d, du)
    for rhs in (b.reshape(3, 4), np.asfortranarray(b.reshape(3, 4))):
        for x in (_lapack.gtsv(dl, d, du, rhs), factor.solve(rhs)):
            assert x.shape == (3, 4) and x.reshape(-1).tobytes() == want.tobytes()


@given(n=st.integers(1, 64), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       diag_scale=st.floats(1e-3, 1.0))
def test_gtsv_of_a_stack_is_one_solve_per_row(n, k, seed, diag_scale):
    # a (k, n) b is k right-hand sides, each solved as it would be alone
    dl, d, du, _ = _system(n, seed)
    d *= diag_scale
    b = np.array([_system(n, seed + 1 + j)[3] for j in range(k)])
    x = _lapack.gtsv(dl, d, du, b)
    assert x.shape == (k, n)
    assert all(x[j].tobytes() == _lapack.gtsv(dl, d, du, b[j]).tobytes() for j in range(k))


def test_gtsv_takes_only_whole_right_hand_sides():
    dl, d, du, b = _system(5, 0)
    for rhs in (b[:0], b[1:], np.r_[b, b[:1]], np.r_[b, b, b[:4]]):
        with pytest.raises(ValueError, match="whole number >= 1 of n = 5"):
            _lapack.gtsv(dl, d, du, rhs)
    assert _lapack.gtsv(dl, d, du, np.r_[b, b, b]).shape == (15,)


def test_wrappers_leave_their_inputs_alone():
    dl, d, du, b = _system(8, 0)
    inputs = [a.copy() for a in (dl, d, du, b)]
    x = _lapack.gtsv(dl, d, du, b)
    factor = _lapack.Factor(dl, d, du)
    y = factor.solve(b)
    assert all(np.array_equal(a, a0) for a, a0 in zip((dl, d, du, b), inputs))
    assert not np.shares_memory(x, b) and not np.shares_memory(y, b)
    # the factor is its own: changing the bands afterwards changes no solve
    dl[:], d[:], du[:] = 1.0, 3.0, 1.0
    assert factor.solve(b).tobytes() == y.tobytes()


def test_wrappers_reject_mismatched_shapes():
    dl, d, du, b = _system(5, 0)
    with pytest.raises(ValueError, match="bands"):
        _lapack.gtsv(dl[1:], d, du, b)
    with pytest.raises(ValueError, match="bands"):
        _lapack.Factor(dl, d, du[1:])
    with pytest.raises(ValueError, match="bands"):
        _lapack.Factor(dl[:0], d[:0], du[:0])  # n = 0
    with pytest.raises(ValueError, match="right-hand side"):
        _lapack.gtsv(dl, d, du, b[1:])
    with pytest.raises(ValueError, match="right-hand side"):
        _lapack.Factor(dl, d, du).solve(np.r_[b, b])


def test_singular_system_reports_info_as_scipy_does():
    # no pivot in the first column: d[0] = dl[0] = 0
    dl, d, du, b = _system(6, 3)
    dl[0] = d[0] = 0.0
    info = reference.zgtsv(dl, d, du, b)[-1]
    assert info > 0 and info == reference.zgttrf(dl, d, du)[-1]
    with pytest.raises(RuntimeError, match=rf"tridiagonal solve failed \(info={info}\)"):
        _lapack.gtsv(dl, d, du, b)
    with pytest.raises(RuntimeError, match=rf"factorization failed \(info={info}\)"):
        _lapack.Factor(dl, d, du)


def test_one_shot_and_factored_solves_agree_on_cn_blocks():
    # the two paths of a CN step, on the shifted blocks of a pantographic
    # 192 x 32 operator at the benchmark's dt
    spec = DomainSpec(kappa=0.1, gamma=0.5, epsilon=0.05)
    op = oracle.effective_operator(BoundaryFunction.pantographic_from(spec), spec, 0.5,
                                   192, 32)
    bands = oracle._shifted(op._blocks, 1j * 0.005 / (2.0 * spec.hbar))
    b = _system(op._blocks.shape[1], 7)[3].reshape(32, 191)
    assert _lapack.gtsv(*bands, b).tobytes() == _lapack.Factor(*bands).solve(b).tobytes()


@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       diag_scale=st.floats(1e-3, 1.0))
def test_one_shot_and_factored_solves_agree_bit_for_bit(n, seed, diag_scale):
    # a small diagonal makes partial pivoting swap rows
    dl, d, du, b = _system(n, seed)
    d *= diag_scale
    assert _lapack.gtsv(dl, d, du, b).tobytes() == _lapack.Factor(dl, d, du).solve(b).tobytes()


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
