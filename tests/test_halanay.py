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
    HalanayInput,
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


def example1_input(scan=None):
    return HalanayInput(
        alpha=0.45,
        a=T("0.2+0.002*t"),
        b=[T("0.1+0.0015*t")],
        q=[T("2-cos(t)^4")],
        c=T("0"),
        tau=2.0,
        scan=scan or ScanGrid(100.0, 2001),
    )


def example2_input():
    return HalanayInput(
        alpha=0.75,
        a=T("1.6+1.2/sqrt(1+t)"),
        b=[T("1.5+t*sin(t)^2/(1+t^2)")],
        q=[T("(1+exp(-t))/2")],
        c=T("0"),
        tau=1.0,
        scan=ScanGrid(100.0, 2001),
    )


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
        lams, resid = hal._lambda_grid(alpha, a, bs, qs)
        for i in range(n):
            a_i, b_i, q_i = float(a[i]), bs[:, i].tolist(), qs[:, i].tolist()
            fn = lambda l: rate_residual(l, alpha, a_i, b_i, q_i)
            want = bisect_root(fn, 0.0, a_i)
            assert lams[i] == pytest.approx(want, abs=1e-13 * max(1.0, a_i)), (
                alpha, i)
            h = rate_residual(float(lams[i]), alpha, a_i, b_i, q_i)
            assert resid[i] == pytest.approx(abs(h), abs=1e-15)
    with pytest.raises(InfeasiblePointError):
        hal._lambda_grid(0.5, np.array([1.0, 0.3]), np.array([[0.2, 0.3]]),
                         np.ones((1, 2)))


def test_rate_never_exceeds_the_computed_root():
    # 2000 seeded tuples, solved one by one and as grids of 100 points at a
    # time: every returned rate leaves a nonpositive residual
    rng = np.random.default_rng(2000)
    for alpha in rng.uniform(0.3, 1.0, 20).tolist():
        a = rng.uniform(0.05, 2.0, 100)
        b = a * rng.uniform(0.05, 0.95, 100)
        q = rng.uniform(0.0, 3.0, 100)
        lams, _ = hal._lambda_grid(alpha, a, b[None, :], q[None, :])
        for a_i, b_i, q_i, lam_grid in zip(a.tolist(), b.tolist(), q.tolist(),
                                           lams.tolist()):
            lam = lambda_at(alpha, a_i, [b_i], [q_i])
            assert rate_residual(lam, alpha, a_i, [b_i], [q_i]) <= 0.0
            assert rate_residual(lam_grid, alpha, a_i, [b_i], [q_i]) <= 0.0


def test_rate_scan_is_a_few_array_calls(monkeypatch):
    # solving every point one by one would make ~12 calls per grid point
    # (6 rounds, 2 orders); solving every point in lockstep passes each
    # point ~6 times per order
    calls = collections.Counter()
    elements = collections.Counter()
    ml_array = hal.ml_array

    def counted(x, alpha, beta=1.0):
        calls[beta] += 1
        elements[beta] += np.size(x)
        return ml_array(x, alpha, beta)

    monkeypatch.setattr(hal, "ml_array", counted)
    certify(example1_input(ScanGrid(100.0, 501)), M=1.2)
    assert set(calls) == {1.0, 0.45}
    assert max(calls.values()) <= 16, calls
    calls.clear()
    two = HalanayInput(
        alpha=0.55, a=T("1.0+0.1*sin(t)"), b=[T("0.2"), T("0.3")],
        q=[T("0.5"), T("1.5")], c=T("0"), tau=2.0, scan=ScanGrid(30.0, 501),
    )
    certify(two, M=2.0)
    assert max(calls.values()) <= 2 * 16, calls
    # the min-rate scan passes each point once, at order 1, to test it
    # against the seed's rate; only the few points it cannot set aside
    # are solved
    elements.clear()
    inp = example2_input()
    certify(inp, M=0.7)
    n = inp.scan.n_points
    assert elements[1.0] <= n + 64, elements
    assert elements[inp.alpha] <= 64, elements


def _exhaustive_min_rate(alpha, a, bs, qs):
    lams, resid = hal._lambda_grid(alpha, a, bs, qs)
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
    rounds = collections.Counter()
    h_grid = hal._h_grid

    def counted(*args):
        rounds["h"] += 1
        return h_grid(*args)

    monkeypatch.setattr(hal, "_h_grid", counted)
    lams, resid = hal._lambda_grid(alpha, a, b[None, :], q[None, :])
    assert rounds["h"] <= hal.MAX_ROUNDS // 4, rounds
    assert np.max(resid) <= hal.RESIDUAL_BOUND
    for lam, a_i, b_i, q_i in zip(lams.tolist(), a.tolist(), b.tolist(),
                                  q.tolist()):
        assert 0.0 < lam <= a_i
        assert rate_residual(lam, alpha, a_i, [b_i], [q_i]) <= 0.0


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
    v = classify_conditions(example1_input())
    assert v.case_tag == RATIO
    assert v.a0 == pytest.approx(0.2, abs=1e-12)
    # the ratio climbs toward 0.75 off-grid; on [0, 100] it tops out at 0.625
    assert v.p == pytest.approx(0.625, abs=1e-12)
    assert v.p <= 0.75
    assert v.c_star == 0.0
    assert not v.a_bounded  # a(t) keeps growing across the grid


def test_classifier_bounded_gap_route():
    v = classify_conditions(example2_input())
    assert v.case_tag == BOUNDED_GAP
    assert v.sigma >= 0.1
    assert v.a_bounded


def test_classifier_prefers_gap_when_both_hold():
    inp = HalanayInput(
        alpha=0.65, a=T("0.3"), b=[T("0.2")], q=[T("2")], c=T("0"),
        tau=2.0, scan=ScanGrid(100.0, 201),
    )
    v = classify_conditions(inp)
    assert v.case_tag == BOUNDED_GAP
    assert v.sigma == pytest.approx(0.1, abs=1e-12)
    # the ratio-route numbers are still reported
    assert v.a0 == pytest.approx(0.3, abs=1e-12)
    assert v.p == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_classifier_none_when_gap_reverses():
    inp = HalanayInput(
        alpha=0.65, a=T("0.3"), b=[T("0.4")], q=[T("1")], c=T("0"),
        tau=1.0, scan=ScanGrid(10.0, 101),
    )
    v = classify_conditions(inp)
    assert v.case_tag == NONE


def test_classifier_respects_user_boundedness_flag():
    inp = example1_input()
    v = classify_conditions(inp)
    assert v.case_tag == RATIO  # heuristic sees a(t) growing
    forced = HalanayInput(
        alpha=inp.alpha, a=inp.a, b=list(inp.b), q=list(inp.q), c=inp.c,
        tau=inp.tau, scan=inp.scan, a_bounded=True,
    )
    v2 = classify_conditions(forced)
    assert v2.case_tag == BOUNDED_GAP
    assert v2.sigma == pytest.approx(0.1, abs=1e-12)


def test_negative_samples_are_input_errors():
    inp = HalanayInput(
        alpha=0.65, a=T("1-t"), b=[T("0.1")], q=[T("0.5")], c=T("0"),
        tau=1.0, scan=ScanGrid(10.0, 51),
    )
    with pytest.raises(InfeasiblePointError):
        classify_conditions(inp)
    bad_q = HalanayInput(
        alpha=0.65, a=T("1"), b=[T("0.1")], q=[T("t")], c=T("0"),
        tau=1.0, scan=ScanGrid(10.0, 51),
    )
    with pytest.raises(InfeasiblePointError):
        classify_conditions(bad_q)


# ------------------------------------------------------------------ certify

def test_certificate_for_ratio_example():
    inp = example1_input()
    _, cert = certify(inp, M=1.2)
    assert cert.case_tag == RATIO
    assert cert.lambda_star >= 0.075
    assert cert.w0 == 0.0
    assert cert.M == 1.2
    assert cert.residual_max <= 1e-10
    assert cert.t_max == 100.0 and cert.n_points == 2001
    # grid minimality: spot-check lambda(t) at a few grid points
    ts = inp.scan.times()
    for t in ts[:: 400]:
        a = inp.a.eval(float(t))
        b = [inp.b[0].eval(float(t))]
        q = [inp.q[0].eval(float(t))]
        assert cert.lambda_star <= lambda_at(0.45, a, b, q) + 1e-12
    # the argmin really is a grid point whose rate equals lambda_star
    a = inp.a.eval(cert.grid_argmin)
    b = [inp.b[0].eval(cert.grid_argmin)]
    q = [inp.q[0].eval(cert.grid_argmin)]
    assert lambda_at(0.45, a, b, q) == pytest.approx(cert.lambda_star, rel=1e-12)


def test_certificate_for_gap_example():
    _, cert = certify(example2_input(), M=0.7)
    assert cert.case_tag == BOUNDED_GAP
    assert cert.lambda_star >= 0.02
    assert cert.w0 == 0.0
    assert cert.residual_max <= 1e-10


def test_offset_formulas_with_forcing():
    gap = HalanayInput(
        alpha=0.65, a=T("0.3"), b=[T("0.2")], q=[T("2")], c=T("0.3"),
        tau=2.0, scan=ScanGrid(50.0, 101),
    )
    _, cert = certify(gap, M=0.0)
    assert cert.w0 == pytest.approx(3.0, abs=1e-12)  # c*/sigma
    ratio = HalanayInput(
        alpha=0.65, a=T("0.2+0.002*t"), b=[T("0.1+0.0015*t")], q=[T("1")],
        c=T("0.3"), tau=1.0, scan=ScanGrid(100.0, 201),
    )
    _, cert2 = certify(ratio, M=0.0)
    want = 0.3 / ((1.0 - 0.625) * 0.2)  # c*/((1-p) a0)
    assert cert2.w0 == pytest.approx(want, abs=1e-12)


def test_degenerate_delay_reduces_to_closed_form():
    inp = HalanayInput(
        alpha=0.65, a=T("1+0.5*sin(t)"), b=[T("0.2"), T("0.1")],
        q=[T("0"), T("0")], c=T("0"), tau=1.0, scan=ScanGrid(20.0, 401),
    )
    _, cert = certify(inp, M=1.0)
    ts = inp.scan.times()
    gap = 1.0 + 0.5 * np.sin(ts) - 0.3
    assert cert.lambda_star == pytest.approx(float(gap.min()), abs=1e-12)


def test_certify_rejects_none_verdict_and_bad_amplitude():
    inp = HalanayInput(
        alpha=0.65, a=T("0.3"), b=[T("0.4")], q=[T("1")], c=T("0"),
        tau=1.0, scan=ScanGrid(10.0, 101),
    )
    verdict, cert = certify(inp, M=1.0)
    assert cert is None
    assert verdict.case_tag == "NONE"
    with pytest.raises(ValueError):
        certify(example1_input(), M=-0.5)


def test_multi_delay_certificate():
    inp = HalanayInput(
        alpha=0.55, a=T("1.0"), b=[T("0.2"), T("0.3")], q=[T("0.5"), T("1.5")],
        c=T("0"), tau=2.0, scan=ScanGrid(30.0, 301),
    )
    _, cert = certify(inp, M=2.0)
    assert 0.0 < cert.lambda_star <= 1.0
    fn = lambda l: rate_residual(l, 0.55, 1.0, [0.2, 0.3], [0.5, 1.5])
    assert cert.lambda_star == pytest.approx(bisect_root(fn, 0.0, 1.0), abs=1e-8)


def test_certify_is_deterministic():
    inp = example1_input()
    assert certify(inp, M=1.2) == certify(inp, M=1.2)


# ----------------------------------------------------------------- envelope

def test_envelope_values_and_monotonicity():
    _, cert = certify(example1_input(), M=1.2)
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
    gap = HalanayInput(
        alpha=0.65, a=T("0.3"), b=[T("0.2")], q=[T("2")], c=T("0.3"),
        tau=2.0, scan=ScanGrid(50.0, 101),
    )
    _, cert = certify(gap, M=0.0)
    for t in (0.0, 1.0, 100.0):
        assert envelope(cert, 0.65, t) == pytest.approx(3.0, abs=1e-12)


def test_envelope_uses_tabulated_ml_value():
    _, cert = certify(
        HalanayInput(
            alpha=0.65, a=T("0.3"), b=[T("0.2")], q=[T("2")], c=T("0"),
            tau=2.0, scan=ScanGrid(100.0, 201),
        ),
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
    with pytest.raises(ValueError):
        HalanayInput(
            alpha=1.5, a=T("1"), b=[T("0")], q=[T("0")], c=T("0"),
            tau=1.0, scan=ScanGrid(10.0, 11),
        )
    with pytest.raises(ValueError):
        HalanayInput(
            alpha=0.5, a=T("1"), b=[T("0"), T("0")], q=[T("0")], c=T("0"),
            tau=1.0, scan=ScanGrid(10.0, 11),
        )
    with pytest.raises(ValueError):
        HalanayInput(
            alpha=0.5, a=T("1"), b=[], q=[], c=T("0"),
            tau=1.0, scan=ScanGrid(10.0, 11),
        )
    with pytest.raises(ValueError):
        HalanayInput(
            alpha=0.5, a=T("1"), b=[T("0")], q=[T("0")], c=T("0"),
            tau=-1.0, scan=ScanGrid(10.0, 11),
        )
