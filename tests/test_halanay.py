import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import halanay.halanay as hal
from halanay.errors import HalanayError, InfeasiblePointError, MlfDomainError
from halanay.expr import parse
from halanay.halanay import (
    BOUNDED_GAP,
    NONE,
    RATIO,
    ScanGrid,
    certify,
    classify_conditions,
    envelope,
    lambda_at,
)
from halanay.mlf import ml

from oracles import bisect_root


def T(src):
    return parse(src, "t")


def rate_residual(lam, alpha, a, bs, qs):
    acc = lam - a
    for b, q in zip(bs, qs):
        acc += b / ml(-lam * q**alpha, alpha)
    return acc


def solve_every_point(alpha, a, bs, qs):
    """(rates, |residuals|) of the solver at every point: the exhaustive
    scan."""
    hal._checked_sum(alpha, a, bs, qs)
    points = hal._points(np.arange(len(a)), a, bs, hal._q_alpha(qs, alpha))
    return np.array([hal._rate(alpha, *p) for p in points]).reshape(-1, 2).T


def counting_ml(monkeypatch):
    """Count the solver's ml calls by order (beta)."""
    calls = collections.Counter()
    ml_ = hal.ml

    def counted(x, alpha, beta=1.0):
        calls[beta] += 1
        return ml_(x, alpha, beta)

    monkeypatch.setattr(hal, "ml", counted)
    return calls


def problem(alpha, tau, a, b, q, c="0", scan=None):
    """(alpha, tau, ts, a, bs, qs, c) sampled on the scan grid, the leading
    arguments of certify; b and q list one expression per delay term."""
    ts = (scan or ScanGrid(100.0, 2001)).times()
    return (alpha, tau, ts, T(a).eval_array(ts),
            np.vstack([T(e).eval_array(ts) for e in b]),
            np.vstack([T(e).eval_array(ts) for e in q]), T(c).eval_array(ts))


def classify(prob, a_bounded=None):
    """classify_conditions on the coefficients of a problem tuple."""
    return classify_conditions(prob[1], *prob[3:], a_bounded=a_bounded)


def example1(scan=None):
    return problem(0.45, 2.0, "0.2+0.002*t", ["0.1+0.0015*t"], ["2-cos(t)^4"],
                   scan=scan)


def example2():
    return problem(0.75, 1.0, "1.6+1.2/sqrt(1+t)", ["1.5+t*sin(t)^2/(1+t^2)"],
                   ["(1+exp(-t))/2"])


# ---------------------------------------------------------------- lambda_at

def test_rate_without_delay_terms_is_the_coefficient():
    assert lambda_at(0.65, 0.3, [0.0], [1.5]) == 0.3


def test_rate_with_zero_delay_is_the_gap():
    assert lambda_at(0.65, 0.3, [0.2], [0.0]) == pytest.approx(0.1, abs=1e-12)


def test_rate_matches_plain_bisection_on_reference_point():
    # frozen from the 200-step bisection oracle on [0, 0.3]
    lam = lambda_at(0.65, 0.3, [0.2], [2.0])
    assert lam == pytest.approx(0.07340844421770001, abs=1e-8)
    assert lam > 0.05
    fn = lambda l: rate_residual(l, 0.65, 0.3, [0.2], [2.0])
    assert lam == pytest.approx(bisect_root(fn, 0.0, 0.3), abs=1e-8)


def test_rate_residual_and_bracket_contract():
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = float(rng.uniform(0.1, 1.0))
        a = float(rng.uniform(0.05, 3.0))
        m = int(rng.integers(1, 4))
        raw = rng.uniform(0.0, 1.0, m)
        bs = list(raw * a * rng.uniform(0.1, 0.95) / max(raw.sum(), 1e-9))
        qs = list(rng.uniform(0.0, 5.0, m))
        lam = lambda_at(alpha, a, bs, qs)
        assert 0.0 < lam <= a
        assert abs(rate_residual(lam, alpha, a, bs, qs)) <= 1e-12 * max(1.0, a)


def test_rate_grid_matches_bisection_per_point():
    rng = np.random.default_rng(23)
    for alpha, m in ((0.3, 1), (0.75, 3), (1.0, 2)):
        n = 70
        a = rng.uniform(0.05, 3.0, n)
        raw = rng.uniform(0.0, 1.0, (m, n))
        bs = raw / raw.sum(axis=0) * a * rng.uniform(0.1, 0.95, n)
        bs[:, ::7] = 0.0  # points without delayed feedback
        qs = rng.uniform(0.0, 5.0, (m, n))
        qs[:, ::5] = 0.0  # points without delay
        lams, resid = solve_every_point(alpha, a, bs, qs)
        for i in range(n):
            a_i, b_i, q_i = float(a[i]), bs[:, i].tolist(), qs[:, i].tolist()
            fn = lambda l: rate_residual(l, alpha, a_i, b_i, q_i)
            want = bisect_root(fn, 0.0, a_i)
            assert lams[i] == pytest.approx(want, abs=1e-13 * max(1.0, a_i)), (
                alpha, i)
            h = rate_residual(float(lams[i]), alpha, a_i, b_i, q_i)
            assert resid[i] == pytest.approx(abs(h), abs=1e-15)
    with pytest.raises(InfeasiblePointError):
        solve_every_point(0.5, np.array([1.0, 0.3]), np.array([[0.2, 0.3]]),
                          np.ones((1, 2)))


def test_rate_never_exceeds_the_computed_root():
    # 2000 seeded tuples, solved one by one and as the points of grids of
    # 100: every returned rate leaves a nonpositive residual
    rng = np.random.default_rng(2000)
    for alpha in rng.uniform(0.3, 1.0, 20).tolist():
        a = rng.uniform(0.05, 2.0, 100)
        b = a * rng.uniform(0.05, 0.95, 100)
        q = rng.uniform(0.0, 3.0, 100)
        lams, _ = solve_every_point(alpha, a, b[None, :], q[None, :])
        for a_i, b_i, q_i, lam_grid in zip(a.tolist(), b.tolist(), q.tolist(),
                                           lams.tolist()):
            lam = lambda_at(alpha, a_i, [b_i], [q_i])
            assert rate_residual(lam, alpha, a_i, [b_i], [q_i]) <= 0.0
            assert rate_residual(lam_grid, alpha, a_i, [b_i], [q_i]) <= 0.0


def test_rate_scan_is_a_few_array_calls(monkeypatch):
    # solving every point would make ~6 rounds of one ml call per delay and
    # order per grid point; the min-rate scan passes each point once, at
    # order 1 and in one ml_array call per delay, to test it against the
    # seed's rate, and solves only the few points it cannot set aside
    arrays = collections.Counter()
    elements = collections.Counter()
    ml_array = hal.ml_array

    def counted(x, alpha, beta=1.0):
        arrays[beta] += 1
        elements[beta] += np.size(x)
        return ml_array(x, alpha, beta)

    monkeypatch.setattr(hal, "ml_array", counted)
    solver = counting_ml(monkeypatch)
    certify(*example1(ScanGrid(100.0, 501)), M=1.2)
    assert arrays == {1.0: 1}, arrays
    assert 0 < solver[0.45] <= 64, solver
    arrays.clear()
    solver.clear()
    two = problem(0.55, 2.0, "1.0+0.1*sin(t)", ["0.2", "0.3"], ["0.5", "1.5"],
                  scan=ScanGrid(30.0, 501))
    certify(*two, M=2.0)
    assert arrays == {1.0: 2}, arrays
    assert 0 < solver[0.55] <= 2 * 64, solver
    elements.clear()
    solver.clear()
    prob = example2()
    certify(*prob, M=0.7)
    assert elements[1.0] <= len(prob[2]), elements
    assert 0 < solver[prob[0]] <= 64, solver


def test_constant_coefficients_solve_one_point(monkeypatch):
    # every point of a constant problem survives the scan's sign test; the
    # scan solves them as one point, with the ml calls of one lambda_at
    calls = counting_ml(monkeypatch)
    lam = lambda_at(0.65, 0.3, [0.2], [2.0])
    one = calls[0.65]
    calls.clear()
    prob = problem(0.65, 2.0, "0.3", ["0.2"], ["2"])
    _, cert = certify(*prob, M=1.0)
    assert len(prob[2]) == 2001 and 0 < one == calls[0.65], (one, calls)
    assert cert.lambda_star == lam and cert.grid_argmin == 0.0


def _exhaustive_min_rate(alpha, a, bs, qs):
    lams, resid = solve_every_point(alpha, a, bs, qs)
    arg = int(np.argmin(lams))
    return float(lams[arg]), arg, float(np.max(resid))


def _rate_grids(rng, alpha, m):
    """Seeded (a, bs, qs) grids of 1..3 delays that stress the min-rate scan."""
    n = 300
    t = np.linspace(0.0, 100.0, n)
    # smooth coefficients, whose neighbours near the argmin nearly tie
    a = 1.0 + 0.5 * np.sin(0.07 * t + rng.uniform(0, 6)) + 0.004 * t
    frac = rng.uniform(0.2, 0.6) + 0.3 * np.cos(0.05 * t) ** 2
    raw = rng.uniform(0.2, 1.0, (m, 1)) * (1.0 + 0.3 * np.sin(
        np.outer(rng.uniform(0.1, 1.0, m), t)))
    bs = raw / raw.sum(axis=0) * a * frac
    qs = rng.uniform(0.5, 2.0, (m, 1)) * (1.5 + np.cos(
        np.outer(rng.uniform(0.1, 1.0, m), t)))
    yield a, bs, qs
    # independent points, with sum(b) = 0 and q = 0 at some of them
    a = np.exp(rng.uniform(math.log(0.05), math.log(50.0), n))
    raw = rng.uniform(0.0, 1.0, (m, n))
    bs = raw / raw.sum(axis=0) * a * rng.uniform(0.05, 0.95, n)
    bs[:, rng.integers(0, n, 20)] = 0.0
    qs = rng.uniform(0.0, 20.0 if alpha == 1.0 else 5.0, (m, n))
    qs[:, rng.integers(0, n, 20)] = 0.0
    yield a, bs, qs
    # constant coefficients: every point ties and the argmin is index 0
    yield (np.full(n, 1.3), np.full((m, n), 0.4 / m),
           np.tile(rng.uniform(0.0, 3.0, (m, 1)), n))
    # near ties: two points whose roots differ by far less than the scan's
    # margin, the lower one second, above a field of slower points
    a = np.full(n, 2.0)
    a[[40, 210]] = 1.0, 1.0 - 1e-12
    yield a, np.full((m, n), 0.3 / m), np.ones((m, n))
    # fields of near ties within a few ulps of a, where the solver's stop
    # tolerance alone can order the returned rates against their roots
    for _ in range(20):
        a = 1.0 - rng.integers(0, 40, n) * np.finfo(float).eps
        yield (a, np.full((m, n), rng.uniform(0.1, 0.6) / m),
               np.full((m, n), rng.uniform(0.0, 3.0)))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
def test_min_rate_scan_matches_the_exhaustive_scan(alpha, m):
    rng = np.random.default_rng(int(100 * alpha) + m)
    for a, bs, qs in _rate_grids(rng, alpha, m):
        want = _exhaustive_min_rate(alpha, a, bs, qs)
        lam, arg, resid = hal._min_rate(alpha, a, bs, qs)
        assert (lam, arg) == want[:2]
        assert resid <= want[2]
    if alpha == 1.0 and m < 3:
        # the seed (q = 0) decays fast; at its rate exp(-lambda q) underflows
        # at the q = 20 point, whose h is then inf (b / 0) or, with a
        # second delay term of b = 0, nan (0 / 0); that point, though its
        # first Newton step is larger, holds the least rate
        a = np.array([40.0, 50.0, 45.0])
        bs = np.array([[1.0, 1e-12, 2.0], [0.0, 0.0, 0.0]])[:m]
        qs = np.array([[0.0, 20.0, 0.0], [0.0, 20.0, 0.0]])[:m]
        want = _exhaustive_min_rate(alpha, a, bs, qs)
        assert want[1] == 1
        assert hal._min_rate(alpha, a, bs, qs)[:2] == want[:2]


@pytest.mark.parametrize("alpha", [0.99, 1.0])
def test_min_rate_scan_tightens_its_bound(alpha, monkeypatch):
    # the seed, the least first Newton step, need not hold the least rate:
    # the first step overestimates the rate most where h curves most
    # (alpha near 1, large b q). Along this ramp the seed is the q = 0 end
    # while the least rate lies at the q = 20 end, and 68 (alpha 0.99) or
    # 82 (alpha 1) of the 501 points pass the seed's sign test; tested
    # again at the first survivor's lower rate, all but a few are set aside
    t = np.linspace(0.0, 1.0, 501)
    a, bs, qs = 1.0 + 9.0 * t, (0.96 + 4.04 * t)[None, :], (20.0 * t)[None, :]
    want = _exhaustive_min_rate(alpha, a, bs, qs)
    rate = hal._rate
    calls = []
    monkeypatch.setattr(hal, "_rate", lambda *p: calls.append(p) or rate(*p))
    lam, arg, resid = hal._min_rate(alpha, a, bs, qs)
    assert (lam, arg) == want[:2] and arg == 500 and resid <= want[2]
    assert len(calls) <= 4, len(calls)


@pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0])
def test_rate_solve_converges_on_stiff_points(alpha, monkeypatch):
    # a up to 50, b/a up to 1 - 1e-6, q up to 20: at alpha = 1 and large q,
    # h grows like exp(lambda q), where Newton steps alone crawl
    rng = np.random.default_rng(41)
    n = 240
    a = np.exp(rng.uniform(math.log(0.01), math.log(50.0), n))
    frac = rng.uniform(0.0, 1.0, n)
    frac[:60] = 1.0 - 10.0 ** rng.uniform(-6.0, -1.0, 60)
    q = rng.uniform(0.0, 20.0, n)
    q[::8] = 20.0
    b = a * frac
    calls = counting_ml(monkeypatch)
    hal._checked_sum(alpha, a, b[None, :], q[None, :])
    qas = hal._q_alpha(q[None, :], alpha)
    for i, point in enumerate(hal._points(np.arange(n), a, b[None, :], qas)):
        calls.clear()
        lam, resid = hal._rate(alpha, *point)
        # one delay term: one ml call per order a round
        assert sum(calls.values()) <= 2 * (hal.MAX_ROUNDS // 4), (i, calls)
        assert resid <= hal.RESIDUAL_BOUND
        assert 0.0 < lam <= a[i]
        assert rate_residual(lam, alpha, a[i], [b[i]], [q[i]]) <= 0.0


def _pinned_args():
    rng = np.random.default_rng(13)
    for k in range(12):
        alpha = 1.0 if k % 4 == 0 else float(rng.uniform(0.05, 1.0))
        a = float(np.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        m = int(rng.integers(1, 4))
        raw = rng.uniform(0.0, 1.0, m)
        bs = (raw / raw.sum() * a * rng.uniform(0.05, 0.99)).tolist()
        qs = rng.uniform(0.0, 20.0 if alpha == 1.0 else 5.0, m).tolist()
        yield alpha, a, bs, qs
    # at alpha = 1 and q = 20, the second point's first step lands where
    # exp(-lambda q) underflows (b / 0 = inf in h), and later steps where
    # only its square in h' does
    for a, b in ((50.0, 49.9), (49.0, 1e-3), (30.0, 29.0)):
        yield 1.0, a, [b], [20.0]


def test_rates_are_pinned():
    # exact rates recorded from the lockstep array solver that the scalar
    # one replaced; the same arithmetic in the same order gives them bit
    # for bit
    want = [
        0.006197431405562925, 0.04392644711106713, 0.009832283477620066,
        0.14723522888034726, 0.030126864204852867, 0.8330601101450942,
        0.007373395912183364, 0.3461591869593386, 0.11592057146956604,
        0.5354091530853208, 0.11001746234631747, 0.005091171800527703,
        0.00010000013330035589, 0.539425292685825, 0.0016922570757732847,
    ]
    assert [lambda_at(*args) for args in _pinned_args()] == want


def test_rates_of_many_delays_stay_within_the_stop_tolerance():
    # with 8 or more delay terms the array solver summed sum(b) and
    # sum(b q^alpha) of one point pairwise, as numpy does, where _rate sums
    # in order; the steps, and so the rates, may then differ within the
    # solver's stop tolerance 1e-14 max(1, a). Recorded from the array
    # solver, 4 of these 10 rates moved, by 3 to 69 ulp
    want = [
        0.07265401085866813, 0.12172501766487638, 0.48812504774699367,
        0.3373689948831967, 0.5447719405110385, 1.2554634875744588,
        0.6448074378556534, 0.39483603995887584, 0.7962891435670245,
        0.16408543851605628,
    ]
    rng = np.random.default_rng(8)
    for old in want:
        m = int(rng.integers(8, 13))
        alpha = float(rng.uniform(0.2, 1.0))
        a = float(rng.uniform(0.5, 30.0))
        raw = rng.uniform(0.0, 1.0, m)
        bs = (raw / raw.sum() * a * rng.uniform(0.3, 0.99)).tolist()
        qs = rng.uniform(0.0, 5.0, m).tolist()
        lam = lambda_at(alpha, a, bs, qs)
        assert abs(lam - old) <= 1e-14 * max(1.0, a)
        # a scan sums sum(b) as lambda_at does and returns the same rate
        two = np.array([bs, bs]).T, np.array([qs, qs]).T
        assert hal._min_rate(alpha, np.full(2, a), *two)[0] == lam


def test_rate_is_monotone_in_coefficients():
    rng = np.random.default_rng(17)
    for _ in range(60):
        alpha = float(rng.uniform(0.2, 1.0))
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.0, 0.4 * a))
        q = float(rng.uniform(0.0, 3.0))
        lam = lambda_at(alpha, a, [b], [q])
        # more delayed feedback never speeds certified decay
        assert lambda_at(alpha, a, [b * 1.2 + 0.01], [q]) <= lam + 1e-12
        # stronger damping never slows it
        assert lambda_at(alpha, a * 1.2, [b], [q]) >= lam - 1e-12


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.floats(0.05, 1.0),
    a=st.floats(0.05, 50.0),
    frac=st.floats(0.0, 0.99),
    qs=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=2),
)
def test_rate_is_non_increasing_in_delay(alpha, a, frac, qs):
    # a longer delay never speeds certified decay; the slack is the
    # solver's bracket width, 1e-14 max(1, a)
    q_lo, q_hi = sorted(qs)
    b = [a * frac]
    lam_lo = lambda_at(alpha, a, b, [q_lo])
    assert lambda_at(alpha, a, b, [q_hi]) <= lam_lo + 1e-14 * max(1.0, a)


def test_rate_rejects_infeasible_and_negative_inputs():
    with pytest.raises(InfeasiblePointError):
        lambda_at(0.65, 0.3, [0.3], [1.0])
    with pytest.raises(InfeasiblePointError):
        lambda_at(0.65, 0.1, [0.05, 0.06], [1.0, 2.0])
    with pytest.raises(ValueError):
        lambda_at(0.65, -0.1, [0.0], [1.0])
    with pytest.raises(ValueError):
        lambda_at(0.65, 0.3, [-0.1], [1.0])
    with pytest.raises(ValueError):
        lambda_at(0.65, 0.3, [0.1], [-1.0])
    with pytest.raises(ValueError):
        lambda_at(0.65, 0.3, [0.1], [1.0, 2.0])


@pytest.mark.parametrize("args", [
    (0.0, 1.0, [0.0], [1.0]),
    (1.5, 1.0, [0.2], [1.0]),
    (math.nan, 1.0, [0.2], [1.0]),
    (0.5, math.nan, [0.2], [1.0]),
    (0.5, math.inf, [0.2], [1.0]),
    (0.5, 1.0, [math.nan], [1.0]),
    (0.5, 1.0, [math.inf], [1.0]),
    (0.5, 1.0, [0.2], [math.nan]),
    (0.5, 1.0, [0.2], [math.inf]),
    (0.5, 1.0, [0.0, math.nan], [1.0, 1.0]),
    (0.5, math.nan, [0.0], [1.0]),
    (0.5, 1.0, [0.0], [math.nan]),
], ids=["alpha0", "alpha1.5", "alpha_nan", "a_nan", "a_inf", "b_nan",
        "b_inf", "q_nan", "q_inf", "b_nan_beside_zero", "a_nan_no_feedback",
        "q_nan_no_feedback"])
def test_rate_rejects_invalid_orders_and_nonfinite_samples(args):
    # checked before the no-feedback shortcut, which returned a as the rate
    with pytest.raises(MlfDomainError):
        lambda_at(*args)


# ------------------------------------------------------- classify_conditions

def test_classifier_ratio_route():
    v = classify(example1())
    assert v.case_tag == RATIO
    assert v.a0 == pytest.approx(0.2, abs=1e-12)
    # the ratio climbs toward 0.75 off-grid; on [0, 100] it tops out at 0.625
    assert v.p == pytest.approx(0.625, abs=1e-12)
    assert v.p <= 0.75
    assert v.c_star == 0.0
    assert not v.a_bounded  # a(t) keeps growing across the grid


def test_classifier_bounded_gap_route():
    v = classify(example2())
    assert v.case_tag == BOUNDED_GAP
    assert v.sigma >= 0.1
    assert v.a_bounded


def test_classifier_prefers_gap_when_both_hold():
    v = classify(problem(0.65, 2.0, "0.3", ["0.2"], ["2"],
                         scan=ScanGrid(100.0, 201)))
    assert v.case_tag == BOUNDED_GAP
    assert v.sigma == pytest.approx(0.1, abs=1e-12)
    # the ratio-route numbers are still reported
    assert v.a0 == pytest.approx(0.3, abs=1e-12)
    assert v.p == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_classifier_none_when_gap_reverses():
    v = classify(problem(0.65, 1.0, "0.3", ["0.4"], ["1"],
                         scan=ScanGrid(10.0, 101)))
    assert v.case_tag == NONE


def test_classifier_respects_user_boundedness_flag():
    prob = example1()
    v = classify(prob)
    assert v.case_tag == RATIO  # heuristic sees a(t) growing
    v2 = classify(prob, a_bounded=True)
    assert v2.case_tag == BOUNDED_GAP
    assert v2.sigma == pytest.approx(0.1, abs=1e-12)
    # certify takes the flag the same way
    verdict, cert = certify(*prob, M=1.2, a_bounded=True)
    assert verdict == v2 and cert.case_tag == BOUNDED_GAP


def test_negative_samples_are_input_errors():
    scan = ScanGrid(10.0, 51)
    with pytest.raises(InfeasiblePointError):
        classify(problem(0.65, 1.0, "1", ["0.1-t"], ["0.5"], scan=scan))
    with pytest.raises(InfeasiblePointError):
        classify(problem(0.65, 1.0, "1", ["0.1"], ["0.5"], c="-t", scan=scan))
    with pytest.raises(InfeasiblePointError):
        classify(problem(0.65, 1.0, "1", ["0.1"], ["t"], scan=scan))
    # a negative a, as column sums of an unstable system give, is a verdict
    prob = problem(0.65, 1.0, "1-t", ["0.1"], ["0.5"], scan=scan)
    assert classify(prob).case_tag == NONE
    assert certify(*prob, M=1.0) == (classify(prob), None)


# ------------------------------------------------------------------ certify

def test_certificate_for_ratio_example():
    prob = example1()
    _, cert = certify(*prob, M=1.2)
    assert cert.case_tag == RATIO
    assert cert.lambda_star >= 0.075
    assert cert.w0 == 0.0
    assert cert.M == 1.2
    assert cert.residual_max <= 1e-10
    assert cert.t_max == 100.0 and cert.n_points == 2001
    # grid minimality: spot-check lambda(t) at a few grid points
    _, _, ts, a, bs, qs, _ = prob
    for i in range(0, len(ts), 400):
        rate = lambda_at(0.45, a[i], bs[:, i], qs[:, i])
        assert cert.lambda_star <= rate + 1e-12
    # the argmin really is a grid point whose rate equals lambda_star
    i = int(np.flatnonzero(ts == cert.grid_argmin)[0])
    assert lambda_at(0.45, a[i], bs[:, i], qs[:, i]) == pytest.approx(
        cert.lambda_star, rel=1e-12)


def test_certificate_for_gap_example():
    _, cert = certify(*example2(), M=0.7)
    assert cert.case_tag == BOUNDED_GAP
    assert cert.lambda_star >= 0.02
    assert cert.w0 == 0.0
    assert cert.residual_max <= 1e-10


def test_offset_formulas_with_forcing():
    gap = problem(0.65, 2.0, "0.3", ["0.2"], ["2"], c="0.3",
                  scan=ScanGrid(50.0, 101))
    _, cert = certify(*gap, M=0.0)
    assert cert.w0 == pytest.approx(3.0, abs=1e-12)  # c*/sigma
    ratio = problem(0.65, 1.0, "0.2+0.002*t", ["0.1+0.0015*t"], ["1"],
                    c="0.3", scan=ScanGrid(100.0, 201))
    _, cert2 = certify(*ratio, M=0.0)
    want = 0.3 / ((1.0 - 0.625) * 0.2)  # c*/((1-p) a0)
    assert cert2.w0 == pytest.approx(want, abs=1e-12)


def test_degenerate_delay_reduces_to_closed_form():
    prob = problem(0.65, 1.0, "1+0.5*sin(t)", ["0.2", "0.1"], ["0", "0"],
                   scan=ScanGrid(20.0, 401))
    _, cert = certify(*prob, M=1.0)
    gap = 1.0 + 0.5 * np.sin(prob[2]) - 0.3
    assert cert.lambda_star == pytest.approx(float(gap.min()), abs=1e-12)


def test_certify_rejects_none_verdict_and_bad_amplitude():
    prob = problem(0.65, 1.0, "0.3", ["0.4"], ["1"], scan=ScanGrid(10.0, 101))
    verdict, cert = certify(*prob, M=1.0)
    assert cert is None
    assert verdict.case_tag == "NONE"
    # M is checked whatever the verdict
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError):
            certify(*example1(), M=bad)
        with pytest.raises(ValueError):
            certify(*prob, M=bad)


def test_multi_delay_certificate():
    prob = problem(0.55, 2.0, "1.0", ["0.2", "0.3"], ["0.5", "1.5"],
                   scan=ScanGrid(30.0, 301))
    _, cert = certify(*prob, M=2.0)
    assert 0.0 < cert.lambda_star <= 1.0
    fn = lambda l: rate_residual(l, 0.55, 1.0, [0.2, 0.3], [0.5, 1.5])
    assert cert.lambda_star == pytest.approx(bisect_root(fn, 0.0, 1.0), abs=1e-8)


def test_delay_rows_of_unequal_count_are_rejected():
    # two b rows against one q row: pairing rows would drop the second
    # delay term and certify 0.90276, twice the rate the two terms allow
    n = 11
    ts = np.linspace(0.0, 10.0, n)
    a, c = np.full(n, 2.0), np.zeros(n)
    bs = np.full((2, n), 0.5)
    with pytest.raises(ValueError):
        certify(0.5, 2.0, ts, a, bs, np.ones((1, n)), c, M=1.0)
    _, cert = certify(0.5, 2.0, ts, a, bs, np.ones((2, n)), c, M=1.0)
    assert cert.lambda_star == pytest.approx(0.44699, abs=1e-5)


def test_certify_is_deterministic():
    prob = example1()
    assert certify(*prob, M=1.2) == certify(*prob, M=1.2)


# ----------------------------------------------------------------- envelope

def test_envelope_values_and_monotonicity():
    _, cert = certify(*example1(), M=1.2)
    assert envelope(cert, 0.45, 0.0) == pytest.approx(1.2, abs=1e-12)
    ts = np.linspace(0.0, 50.0, 200)
    vals = [envelope(cert, 0.45, float(t)) for t in ts]
    assert all(isinstance(v, float) for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # an array of times gives the same values in one call
    assert envelope(cert, 0.45, ts) == pytest.approx(vals, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError):
        envelope(cert, 0.45, -1.0)
    with pytest.raises(ValueError):
        envelope(cert, 0.45, np.array([0.0, -1.0]))


def test_envelope_with_zero_amplitude_is_flat():
    gap = problem(0.65, 2.0, "0.3", ["0.2"], ["2"], c="0.3",
                  scan=ScanGrid(50.0, 101))
    _, cert = certify(*gap, M=0.0)
    for t in (0.0, 1.0, 100.0):
        assert envelope(cert, 0.65, t) == pytest.approx(3.0, abs=1e-12)


def test_envelope_uses_tabulated_ml_value():
    _, cert = certify(
        *problem(0.65, 2.0, "0.3", ["0.2"], ["2"], scan=ScanGrid(100.0, 201)),
        M=1.0,
    )
    # lambda* for constant data is the single-point rate
    lam = lambda_at(0.65, 0.3, [0.2], [2.0])
    assert cert.lambda_star == pytest.approx(lam, rel=1e-12)
    want = ml(-cert.lambda_star * 2.0**0.65, 0.65)
    assert envelope(cert, 0.65, 2.0) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------- validation

def test_input_validation():
    with pytest.raises(ValueError):
        ScanGrid(0.0, 100)
    with pytest.raises(ValueError):
        ScanGrid(10.0, 1)
    _, tau, ts, a, bs, qs, c = problem(0.5, 1.0, "1", ["0"], ["0"],
                                       scan=ScanGrid(10.0, 11))
    for args in (
        (1.5, tau, ts, a, bs, qs, c),  # alpha outside (0, 1]
        (0.5, tau, ts, a, np.vstack([bs, bs]), qs, c),  # 2 b rows, 1 q row
        (0.5, tau, ts, a, bs[:0], qs[:0], c),  # no delay rows
        (0.5, -1.0, ts, a, bs, qs, c),  # tau
        (0.5, tau, ts[:-1], a, bs, qs, c),  # one time short
        (0.5, tau, ts, a, bs, qs, c[:-1]),  # c one sample short
        (0.5, tau, ts, a, bs[:, :-1], qs[:, :-1], c),  # rows one sample short
    ):
        with pytest.raises(ValueError):
            certify(*args, M=1.0)
