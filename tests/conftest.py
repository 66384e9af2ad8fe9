"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here deliberately avoid the package's own evaluation paths:
Bessel values come from an exact-rational alternating series, zeros from
bisection on that series, integrals from composite Simpson or dense
trapezoid sums.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from billiard2d.domain import DomainSpec

# every hypothesis property: 20 examples, no deadline, no example database
settings.register_profile("billiard2d", max_examples=20, deadline=None, database=None)
settings.load_profile("billiard2d")


@pytest.fixture(scope="session")
def unit_spec():
    """Static unit disk (kappa = 0)."""
    return DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.0, gamma=0.5, epsilon=0.0)


@pytest.fixture(scope="session")
def dilating_spec():
    """Uniformly dilating disk, the standard test configuration."""
    return DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=0.0)


@pytest.fixture(scope="session")
def deformed_spec():
    return DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=0.05)


# -- independent oracles -----------------------------------------------------

def series_bessel_j(m: int, x: float, terms: int = 40) -> float:
    """40-term alternating power series for J_m, summed in exact rationals.

    The float x is converted exactly, every term is an exact rational and
    only the final sum is rounded, so for x <= 12 the result is correct to
    well below 1e-15 absolute.
    """
    xf = Fraction(x)
    term = Fraction(1)
    for k in range(1, m + 1):
        term = term * xf / (2 * k)
    total = term
    quarter = xf * xf / 4
    for k in range(1, terms):
        term = -term * quarter / (k * (m + k))
        total += term
    return float(total)


def bisect_series_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m located by bisection on the series oracle."""
    xs = np.arange(0.05, 14.0, 0.25)
    vals = [series_bessel_j(m, float(x)) for x in xs]
    crossings = 0
    lo = hi = None
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            crossings += 1
            if crossings == n:
                lo, hi, flo = float(a), float(b), fa
                break
    assert lo is not None, "oracle bracketing failed"
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = series_bessel_j(m, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def simpson(f, a: float, b: float, n: int = 2000) -> float:
    """Composite Simpson rule with n (even) panels."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * n) * np.sum(w * y))


def trapezoid_complex(f, a: float, b: float, n: int = 10000) -> complex:
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=complex)
    return complex(np.trapezoid(y, x))
