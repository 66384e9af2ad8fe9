import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from billiard2d import cli, oracle
from billiard2d import perturbation as pt
from billiard2d import specfun as sf
from billiard2d.domain import DomainSpec
from conftest import simpson, trapezoid_complex


@pytest.fixture(scope="module")
def spec():
    return DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=0.05)


def pair_of(spec, tgt, src):
    return pt.ModePair(source=sf.mode_make(*src, spec),
                       target=sf.mode_make(*tgt, spec))


def test_selection_flags(spec):
    assert pair_of(spec, (1, 1), (0, 1)).allowed
    assert pair_of(spec, (-1, 4), (0, 1)).allowed
    assert not pair_of(spec, (2, 1), (0, 1)).allowed
    assert not pair_of(spec, (0, 3), (0, 1)).allowed
    p = pair_of(spec, (3, 2), (2, 2))
    assert p.delta_plus


def test_w2_diagonal_is_normalization(spec):
    p = pair_of(spec, (1, 1), (1, 1))
    assert pt.w_integral(2, p, spec) == pytest.approx(1.0, abs=1e-12)


def test_w3_symmetry(spec):
    a = pair_of(spec, (2, 3), (1, 2))
    b = pair_of(spec, (1, 2), (2, 3))
    assert pt.w_integral(3, a, spec) == pytest.approx(pt.w_integral(3, b, spec),
                                                      rel=1e-13)


def test_w1_against_simpson_oracle(spec):
    p = pair_of(spec, (1, 1), (0, 1))
    tgt, src = p.target, p.source

    def integrand(r):
        r = np.asarray(r, float)
        safe = np.where(r > 0, r, 1.0)
        jt = sf.bessel_j(1, tgt.k * safe)
        js = sf.bessel_j(0, src.k * safe)
        djs = src.k * sf.bessel_j_derivative(0, src.k * safe)
        vals = jt * (js / safe + djs)
        # r -> 0 limit from the series: J1(kt r)/r -> kt/2, J0 -> 1, J0' -> 0
        return np.where(r > 0, vals, 0.5 * tgt.k)

    oracle_val = tgt.norm * src.norm * simpson(integrand, 0.0, 1.0, 2000)
    assert pt.w_integral(1, p, spec) == pytest.approx(oracle_val, abs=1e-9)


def test_w_integrals_stable_under_order_doubling(spec, monkeypatch):
    pairs = [pair_of(spec, tgt, src)
             for tgt, src in [((1, 1), (0, 1)), ((3, 4), (2, 2)), ((-1, 2), (0, 3))]]
    assert sf.RADIAL_QUAD_POINTS == 128
    a = [pt.w_integral(k, p, spec) for p in pairs for k in (1, 2, 3, 4)]
    monkeypatch.setattr(sf, "RADIAL_QUAD_POINTS", 256)
    b = [pt.w_integral(k, p, spec) for p in pairs for k in (1, 2, 3, 4)]
    assert 0.0 < max(abs(x - y) for x, y in zip(a, b)) < 1e-10


def test_w1_rejects_double_zero_orders(spec):
    p = pair_of(spec, (0, 1), (0, 2))
    with pytest.raises(ValueError, match="selection-forbidden"):
        pt.w_integral(1, p, spec)


def test_f_integral_zero_interval(spec):
    p = pair_of(spec, (1, 1), (0, 1))
    for k in (1, 2, 3, 4, 5):
        assert pt.f_integral(k, p, spec, 0.0) == 0j


def test_f4_diagonal_closed_form(spec):
    # beta_source - beta_target == 0 on the diagonal, so F4 = (i hbar / 2) g(t) exactly
    p = pair_of(spec, (2, 2), (2, 2))
    for t in (0.5, 3.0):
        want = 0.5j * spec.hbar * float(spec.g(t))
        assert pt.f_integral(4, p, spec, t) == pytest.approx(want, abs=1e-12)


def test_f1_against_trapezoid_oracle(spec):
    p = pair_of(spec, (1, 1), (0, 1))
    de = p.target.energy - p.source.energy

    def f(s):
        lam = 1.0 + spec.kappa * s
        return (spec.hbar**2 / (2 * spec.mu) * spec.g(s) / lam**2
                * np.exp(1j * de * s / (spec.hbar * lam)))

    oracle_val = trapezoid_complex(f, 0.0, 2.0, 20000)
    assert pt.f_integral(1, p, spec, 2.0) == pytest.approx(oracle_val, abs=1e-8)


def test_element_forbidden_pairs_vanish(spec):
    for tgt, src in [((0, 1), (0, 2)), ((2, 1), (0, 1)), ((3, 3), (3, 1)),
                     ((-2, 1), (0, 1))]:
        br = pt.element(pair_of(spec, tgt, src), spec, 2.0)
        assert br.total == 0j


def test_element_zero_time(spec):
    br = pt.element(pair_of(spec, (1, 1), (0, 1)), spec, 0.0)
    assert abs(br.total) < 1e-15


def test_element_matches_brute_force(spec):
    # definitional cross-check against the 2-d space-time quadrature
    for tgt, src in [((1, 1), (0, 1)), ((2, 3), (1, 2)), ((-1, 2), (0, 1))]:
        p = pair_of(spec, tgt, src)
        el = pt.element(p, spec, 1.0).total
        br = oracle.brute_element_integrated(p, spec, 1.0)
        assert abs(el - br) / abs(br) < 1e-6


def test_element_pieces_match_brute_parts(spec):
    p = pair_of(spec, (1, 1), (0, 1))
    t = 2.0
    el = pt.element(p, spec, t)

    def f(svals):
        return np.array(oracle.brute_element(p, spec, svals, parts=True))

    parts = sf.adaptive_quad_vec(f, 0.0, t, 1e-11)
    for got, want in zip((el.h1, el.h2, el.h3), parts):
        assert abs(got - want) / abs(want) < 1e-7


def test_element_linear_in_epsilon(spec):
    spec2 = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=0.1)
    p1 = pair_of(spec, (1, 2), (0, 1))
    p2 = pair_of(spec2, (1, 2), (0, 1))
    e1 = pt.element(p1, spec, 3.0).total
    e2 = pt.element(p2, spec2, 3.0).total
    assert e2 == pytest.approx(2.0 * e1, rel=1e-12)


def test_amplitudes_no_perturbation():
    spec0 = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=0.0)
    initial = sf.mode_make(0, 1, spec0)
    targets = [initial, sf.mode_make(1, 1, spec0), sf.mode_make(1, 2, spec0)]
    table = pt.amplitudes(initial, targets, spec0, np.linspace(0.0, 5.0, 6))
    assert np.allclose(table.population(initial), 1.0, atol=1e-15)
    for tg in targets[1:]:
        assert np.max(table.population(tg)) == 0.0


def test_amplitudes_start_at_kronecker(spec):
    initial = sf.mode_make(0, 1, spec)
    targets = [initial, sf.mode_make(1, 1, spec)]
    table = pt.amplitudes(initial, targets, spec, np.array([0.0, 1.0]))
    assert table.entries[initial][0] == 1.0 + 0j
    assert table.entries[targets[1]][0] == 0j


@given(kappa=st.floats(0.01, 0.2), gamma_ratio=st.floats(0.5, 50.0),
       epsilon=st.floats(0.001, 0.03))
@example(kappa=0.1, gamma_ratio=5.0, epsilon=0.05)  # the standard parameter set
def test_amplitudes_mirror_symmetry(kappa, gamma_ratio, epsilon):
    spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=kappa,
                      gamma=gamma_ratio * kappa, epsilon=epsilon)
    initial = sf.mode_make(0, 1, spec)
    plus = [sf.mode_make(1, n, spec) for n in range(1, 5)]
    minus = [sf.mode_make(-1, n, spec) for n in range(1, 5)]
    table = pt.amplitudes(initial, plus + minus, spec, np.linspace(0.0, 5.0 / kappa, 21))
    for a, b in zip(plus, minus):
        assert np.max(np.abs(table.population(a) - table.population(b))) <= 1e-12


def test_amplitudes_forbidden_targets_stay_empty(spec):
    initial = sf.mode_make(0, 1, spec)
    forb = [sf.mode_make(2, 1, spec), sf.mode_make(0, 2, spec)]
    table = pt.amplitudes(initial, forb, spec, np.linspace(0.0, 20.0, 5))
    for tg in forb:
        assert np.max(table.population(tg)) <= 1e-12


def test_amplitudes_leakage_scale(spec):
    initial = sf.mode_make(0, 1, spec)
    targets = [sf.mode_make(m, n, spec) for m in (-1, 1) for n in range(1, 5)]
    times = np.linspace(0.0, 50.0, 11)
    table = pt.amplitudes(initial, targets, spec, times)
    leak = table.leakage()
    assert leak[0] == 0.0
    assert np.max(leak) < 25.0 * spec.epsilon**2
    assert table.regime_ok


def test_amplitudes_regime_flag():
    bad = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=0.4)
    initial = sf.mode_make(0, 1, bad)
    targets = [sf.mode_make(m, n, bad) for m in (-1, 1) for n in range(1, 5)]
    with pytest.warns(UserWarning, match="perturbative regime"):
        table = pt.amplitudes(initial, targets, bad, np.linspace(0.0, 50.0, 9))
    assert not table.regime_ok


def test_regime_limit_separates_calibrated_amplitudes():
    # (0,1) into the +-1 family, standard parameters to t = 50: against the
    # CN oracle TDPT is good to 11 % of max P at eps = 0.1 (leakage 0.020)
    # and off by 34 % at eps = 0.2 (leakage 0.080), so the first is silent
    # and the second warns
    def run(eps):
        spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, gamma=0.5, epsilon=eps)
        initial = sf.mode_make(0, 1, spec)
        targets = [sf.mode_make(m, n, spec) for m in (-1, 1) for n in range(1, 5)]
        return pt.amplitudes(initial, targets, spec, np.linspace(0.0, 50.0, 11))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(0.1).regime_ok
    with pytest.warns(UserWarning, match="perturbative regime"):
        assert not run(0.2).regime_ok


def test_amplitudes_one_row_per_target_and_deterministic(spec):
    initial = sf.mode_make(0, 1, spec)
    targets = [sf.mode_make(1, 1, spec), sf.mode_make(-1, 1, spec)]
    times = np.array([1.0, 2.0])
    first = pt.amplitudes(initial, targets, spec, times)
    again = pt.amplitudes(initial, targets, spec, times)
    assert set(first.entries) == set(targets)
    for tg in targets:
        assert np.array_equal(first.entries[tg], again.entries[tg])


def test_collapsing_box_rejected():
    shrinking = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=-0.1, gamma=0.5,
                           epsilon=0.05)
    initial = sf.mode_make(0, 1, shrinking)
    p = pt.ModePair(source=initial, target=sf.mode_make(1, 1, shrinking))
    # lambda reaches 0 at t = 10 and is negative beyond
    for t_end in (10.0, 12.0):
        with pytest.raises(ValueError, match="collapses"):
            pt.amplitudes(initial, [p.target], shrinking, np.linspace(0.0, t_end, 5))
        with pytest.raises(ValueError, match="collapses"):
            pt.element(p, shrinking, t_end)
        with pytest.raises(ValueError, match="collapses"):
            pt.f_integral(1, p, shrinking, t_end)
    assert pt.element(p, shrinking, 5.0).total != 0j  # still shrinking, not collapsed
    # a time before the start or a non-finite one is no time of the box
    # either (t = -1 gave exactly 0j, t = nan a "non-finite F integrand")
    for bad in (-1.0, math.nan, math.inf):
        named = re.escape(f"t = {bad!r}")
        grid = [bad, 0.0] if bad < 0 else [0.0, bad]
        with pytest.raises(ValueError, match=named):
            pt.amplitudes(initial, [p.target], shrinking, grid)
        with pytest.raises(ValueError, match=named):
            pt.element(p, shrinking, bad)
        with pytest.raises(ValueError, match=named):
            pt.f_integral(1, p, shrinking, bad)


def test_amplitudes_rejects_bad_grid(spec):
    initial = sf.mode_make(0, 1, spec)
    with pytest.raises(ValueError):
        pt.amplitudes(initial, [initial], spec, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        pt.amplitudes(initial, [initial], spec, np.array([-1.0, 1.0]))


def _f_reference(pair, spec, times, tol=1e-12):
    """F^(1)..F^(5) at `times` by adaptive_quad_vec of the integrands in s,
    summed interval by interval (independent of the Levin path)."""
    hbar, mu, ld = spec.hbar, spec.mu, spec.kappa
    de = pair.target.energy - pair.source.energy

    def phase(s):
        return de * s / (hbar * (1.0 + ld * s))

    def f(s):
        lam, g, gd = spec.lam(s), spec.g(s), spec.gdot(s)
        ph = np.exp(1j * phase(s))
        return np.stack([hbar**2 / (2.0 * mu) * g / lam**2 * ph,
                         1j * hbar * g * ld / lam * ph,
                         -mu * g * ld**2 * ph,
                         0.5j * hbar * gd * ph,
                         -0.5 * mu * gd * lam * ld * ph])

    out, acc, prev = [], np.zeros(5, dtype=complex), 0.0
    for t in times:
        if t > prev:
            acc = acc + sf.adaptive_quad_vec(f, prev, float(t), tol)
            prev = float(t)
        out.append(acc)
    return np.array(out)


@given(kappa=st.floats(-0.02, 0.2, exclude_min=True),
       gamma=st.floats(0.1, 10.0),
       de=st.one_of(st.just(0.0), st.floats(-3.0, 1.0).map(lambda e: 10.0**e)),
       sign=st.sampled_from((1.0, -1.0)),
       reach=st.floats(0.05, 100.0))
@example(kappa=0.2, gamma=10.0 * 0.2, de=0.0, sign=1.0, reach=100.0)
@example(kappa=0.02, gamma=50.0 * 0.02, de=1e-3, sign=1.0, reach=99.0)
@example(kappa=0.1, gamma=0.5, de=10.0, sign=-1.0, reach=100.0)
@example(kappa=0.0, gamma=0.1, de=10.0, sign=1.0, reach=100.0)
def test_f_values_match_adaptive_quadrature(kappa, gamma, de, sign, reach):
    """Levin F against adaptive_quad_vec: kappa t_end = reach for kappa > 0.01,
    else t_end = reach, keeping lambda(t_end) >= 1/2 when the box shrinks.

    The reference rounds its phase at every node, so its own error grows
    with the total phase (~1e-13 absolute at 3000 rad); |Delta E| <= 10
    keeps the phase below ~1000 rad, where the bound holds with a 10x margin.
    """
    spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=kappa, gamma=gamma, epsilon=0.05)
    if kappa > 0.01:
        t_end = reach / kappa
    else:
        t_end = min(reach, 0.5 / -kappa) if kappa < 0 else reach
    src = sf.mode_make(0, 1, spec)
    pair = pt.ModePair(source=src, target=dataclasses.replace(
        sf.mode_make(1, 1, spec), energy=src.energy + sign * de))
    times = t_end * np.array([0.0, 0.3, 0.7, 1.0])
    want = _f_reference(pair, spec, times)
    got = pt._f_values([pt._omega(pair, spec)], spec, times, 1e-12)[0]
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


class _KinkSchedule:
    """g(t) = min(t / tau, 1): g has a kink at tau, so gdot jumps there."""

    def __init__(self, tau):
        self.tau = tau

    def g(self, t):
        return np.minimum(np.asarray(t, dtype=float) / self.tau, 1.0)

    def gdot(self, t):
        return np.where(np.asarray(t, dtype=float) < self.tau, 1.0 / self.tau, 0.0)


class _NanSchedule:
    """g(t) = t up to t = 1 and NaN beyond."""

    def g(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 1.0, t, np.nan)

    def gdot(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 1.0, 1.0, np.nan)


def test_kinked_schedule_warns_once_naming_the_span():
    tau = 1.3
    spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, epsilon=0.05,
                      schedule=_KinkSchedule(tau))
    initial = sf.mode_make(0, 1, spec)
    family = [sf.mode_make(m, n, spec) for m in (-1, 1) for n in range(1, 5)]
    pair = pt.ModePair(source=initial, target=family[4])
    times = np.linspace(0.0, 2.0, 9)
    # one row, the eight-row m0 +- 1 family (one pass for all rows) and the
    # single-time entry points: each warns once, pointing at its caller
    for call in (lambda: pt.amplitudes(initial, [family[4]], spec, times),
                 lambda: pt.amplitudes(initial, family, spec, times),
                 lambda: pt.element(pair, spec, 2.0),
                 lambda: pt.f_integral(1, pair, spec, 2.0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1 and "max_depth" in messages[0], messages
        assert caught[0].filename == __file__
        lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", messages[0]).groups())
        assert lo <= tau <= hi and hi - lo < 1e-6
        assert getattr(result, "regime_ok", True)


def test_one_f_pass_per_call(spec, monkeypatch):
    initial = sf.mode_make(0, 1, spec)
    family = [sf.mode_make(m, n, spec) for m in (-1, 1) for n in range(1, 5)]
    pair = pt.ModePair(source=initial, target=family[0])
    passes = []
    f_values = pt._f_values
    monkeypatch.setattr(pt, "_f_values",
                        lambda omegas, *rest: passes.append(len(omegas))
                        or f_values(omegas, *rest))
    # the diagonal, Delta m = 2 and duplicate targets need no F integrals
    targets = family + [initial, sf.mode_make(2, 1, spec), family[3]]
    table = pt.amplitudes(initial, targets, spec, np.linspace(0.0, 20.0, 5))
    assert passes == [len(family)] and list(table.entries) == family + targets[8:10]
    pt.element(pair, spec, 2.0)
    pt.f_integral(3, pair, spec, 2.0)
    assert passes == [len(family), 1, 1]


@pytest.fixture
def levin_solves(monkeypatch):
    """Counts np.linalg.lstsq calls (one per Levin panel and target); raises
    past 1000, so that a pass that would bisect without end fails fast."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1000:
            raise RuntimeError("more than 1000 Levin solves")
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_one_panel_per_smooth_request(spec, levin_solves, tmp_path):
    # fig1 through the CLI (targets (1,1..4), 51 samples to t = 50) and
    # criterion 6's eight targets: the first panel [0, u_end] is accepted
    cfg = cli.parse_config(f"task = populations\nn_samples = 51\n"
                           f"out = {tmp_path / 'fig1.csv'}\n")
    assert cli.run(cfg) == 0
    assert len(levin_solves) == 4
    initial = sf.mode_make(0, 1, spec)
    family = [sf.mode_make(m, n, spec) for m in (1, -1) for n in range(1, 5)]
    levin_solves.clear()
    pt.amplitudes(initial, family, spec, np.linspace(0.0, 50.0, 21))
    assert len(levin_solves) == 8


@pytest.mark.parametrize("t_end", [3e4, 1e5])
def test_f_values_near_the_pole(spec, levin_solves, t_end):
    # kappa t = 3000 and 1e4: 1 - kappa u formed from u at each node is off
    # by about kappa t ulp relative, more than the tail test allows, so each
    # panel must measure its own distance to the pole
    pair = pair_of(spec, (1, 1), (0, 1))
    times = t_end * np.array([0.0, 0.3, 0.7, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pt._f_values([pt._omega(pair, spec)], spec, times, 1e-12)[0]
    want = _f_reference(pair, spec, times)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    assert len(levin_solves) <= 30


@given(picks=st.lists(st.integers(0, 9), min_size=1, max_size=8),
       m0=st.integers(-2, 2), n0=st.integers(1, 2), kappa=st.floats(0.01, 0.2),
       epsilon=st.floats(0.001, 0.03))
@example(picks=[0, 5, 8, 9, 5], m0=0, n0=1, kappa=0.1, epsilon=0.03)
def test_each_row_equals_its_target_alone(picks, m0, n0, kappa, epsilon):
    # the pool: the m0 +- 1 family with n <= 4, the initial mode and a
    # Delta m = 2 mode, drawn with repeats so that duplicates occur
    spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=kappa, gamma=5.0 * kappa,
                      epsilon=epsilon)
    initial = sf.mode_make(m0, n0, spec)
    pool = [sf.mode_make(m0 + dm, n, spec) for dm in (-1, 1) for n in range(1, 5)]
    pool += [initial, sf.mode_make(m0 + 2, n0, spec)]
    targets = [pool[i] for i in picks]
    times = np.linspace(0.0, 2.0 / kappa, 7)
    table = pt.amplitudes(initial, targets, spec, times)
    assert list(table.entries) == list(dict.fromkeys(targets))
    for tg in targets:
        alone = pt.amplitudes(initial, [tg], spec, times).entries[tg]
        assert np.array_equal(table.entries[tg], alone)


def test_non_finite_schedule_rejected():
    spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=0.1, epsilon=0.05,
                      schedule=_NanSchedule())
    initial = sf.mode_make(0, 1, spec)
    p = pt.ModePair(source=initial, target=sf.mode_make(1, 1, spec))
    with pytest.raises(ValueError, match="non-finite"):
        pt.amplitudes(initial, [p.target], spec, np.linspace(0.0, 2.0, 5))
    with pytest.raises(ValueError, match="non-finite"):
        pt.f_integral(1, p, spec, 2.0)
    assert pt.f_integral(1, p, spec, 0.5) != 0j  # finite before t = 1


@pytest.mark.parametrize("kappa", [0.1, 0.0, -0.01])
def test_populations_start_at_exact_zero(kappa):
    spec = DomainSpec(mu=1.0, hbar=1.0, r0=1.0, kappa=kappa, gamma=0.5, epsilon=0.05)
    initial = sf.mode_make(0, 1, spec)
    targets = [sf.mode_make(m, n, spec) for m in (-1, 1) for n in (1, 2, 3, 4)]
    table = pt.amplitudes(initial, targets, spec, np.linspace(0.0, 20.0, 7))
    for tg in targets:
        assert table.population(tg)[0] == 0.0
        assert table.population(tg)[1] > 0.0


def test_grid_starting_after_zero_matches_f_integral(spec):
    p = pair_of(spec, (1, 2), (0, 1))
    times = np.array([0.7, 3.0, 9.0])
    got = pt._f_values([pt._omega(p, spec)], spec, times, 1e-10)[0, 0]
    want = np.array([pt.f_integral(k, p, spec, 0.7) for k in (1, 2, 3, 4, 5)])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
