import concurrent.futures
import itertools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfcx

from halanay import mlf
from halanay.cli import main
from halanay.errors import MlfDomainError
from halanay.mlf import _ml_pair, ml, ml_array

from oracles import ml_reference


def test_value_at_zero_is_reciprocal_gamma():
    assert ml(0.0, 0.65) == 1.0
    assert ml(0.0, 0.3, 0.7) == pytest.approx(1.0 / math.gamma(0.7), abs=1e-15)
    assert ml(0.0, 0.5, 0.5) == pytest.approx(1.0 / math.gamma(0.5), abs=1e-15)


def test_exponential_special_case():
    assert ml(-1.0, 1.0) == pytest.approx(1.0 / math.e, abs=1e-12)
    for x in np.linspace(-20.0, 0.0, 41):
        assert abs(ml(float(x), 1.0) - math.exp(float(x))) <= 1e-10


def test_tabulated_decay_values():
    # constants quoted for the bundled example systems
    assert ml(-0.05 * 2.0**0.65, 0.65) == pytest.approx(0.9179, abs=5e-4)
    assert ml(-0.02, 0.75) > 0.97
    assert 0.8 < ml(-0.075 * 2.0**0.45, 0.45) < 1.0


def test_domain_errors():
    for bad_alpha in (0.0, -0.2, 1.0001, float("nan")):
        with pytest.raises(MlfDomainError):
            ml(-0.5, bad_alpha)
    for bad_beta in (0.0, -1.0, float("inf")):
        with pytest.raises(MlfDomainError):
            ml(-0.5, 0.5, bad_beta)
    with pytest.raises(MlfDomainError):
        ml(float("inf"), 0.5)


def test_orders_below_the_floor_are_refused():
    # below ALPHA_MIN the angle form raised a bare OverflowError (1e-20),
    # leaked numpy's overflow warning (1e-13, and 1e-10 near |x| = 1e307)
    # or returned nan (3e-308)
    below = math.nextafter(mlf.ALPHA_MIN, 0.0)
    for x, alpha in ((-5.0, 1e-20), (-2.6e303, 1e-13), (-0.9, 3e-308),
                     (-9.7e306, 1e-10), (-5.0, below), (0.5, below)):
        with pytest.raises(MlfDomainError, match="alpha must lie"):
            ml(x, alpha)
        with pytest.raises(MlfDomainError, match="alpha must lie"):
            ml_array(np.full(3, x), alpha)
        with pytest.raises(MlfDomainError, match="alpha must lie"):
            _ml_pair(x, alpha)


# (alpha, beta, x) outside finite x <= 0 and alpha <= beta <= 1
_OUT_OF_DOMAIN = [
    (0.5, 1.0, 26.9), (0.5, 0.5, 1e-300), (0.5, 1.0, math.inf),
    (0.5, 1.0, -math.inf), (0.5, 1.5, -1.0), (0.6, 0.5, -1.0),
    (1.0, 0.5, -1.0), (1.0, 1.0, 0.5),
]


def test_inputs_outside_the_domain_are_refused(capsys):
    # ml, ml_array and _ml_pair refuse each one with MlfDomainError, and
    # the mlf command prints an error line and exits 1
    for alpha, beta, x in _OUT_OF_DOMAIN:
        with pytest.raises(MlfDomainError):
            ml(x, alpha, beta)
        with pytest.raises(MlfDomainError):
            ml_array(np.array([-1.0, x, 0.0]), alpha, beta)
        if not -math.inf < x <= 0.0:
            with pytest.raises(MlfDomainError):
                _ml_pair(x, alpha)
        # "--" keeps argparse from taking "-inf" for an option
        assert main(["mlf", "--", repr(alpha), repr(beta), repr(x)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "", (alpha, beta, x)
        assert captured.err.startswith("error:"), (alpha, beta, x)


def test_floor_order_is_finite_across_the_double_range():
    # at ALPHA_MIN itself, |x| log-uniform over the double range: finite
    # values in [0, 1] at beta = 1, no numpy warning, and ml_array and
    # _ml_pair agree with ml
    rng = np.random.default_rng(31)
    xs = -(10.0 ** rng.uniform(-300.0, 308.2, 400))
    alpha = mlf.ALPHA_MIN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (1.0, alpha, 0.5):
            want = np.array([ml(float(x), alpha, beta) for x in xs])
            assert np.isfinite(want).all(), beta
            assert np.array_equal(ml_array(xs, alpha, beta), want), beta
            if beta == 1.0:
                assert ((want >= 0.0) & (want <= 1.0)).all()
        for x in xs[:100].tolist():
            e, e2 = _ml_pair(x, alpha)
            assert e == ml(x, alpha) and math.isfinite(e2), x


def test_half_order_closed_forms():
    # E_{1/2}(-y) = erfcx(y) and E_{1/2,1/2}(-y) = 1/sqrt(pi) - y*erfcx(y)
    for y in (0.01, 0.3, 1.0, 4.0, 9.0, 30.0, 2000.0):
        assert ml(-y, 0.5) == pytest.approx(erfcx(y), abs=1e-11)
        want = 1.0 / math.sqrt(math.pi) - y * erfcx(y)
        assert ml(-y, 0.5, 0.5) == pytest.approx(want, abs=1e-11)


def test_reference_series_battery():
    rng = np.random.default_rng(42)
    for _ in range(150):
        alpha = float(rng.uniform(0.1, 1.0))
        # keep |x|^(1/alpha) inside the reference oracle's working range
        xmax = min(50.0, 85.0**alpha)
        x = float(rng.uniform(-xmax, 0.0))
        for beta in (1.0, alpha):
            ref = ml_reference(x, alpha, beta)
            assert abs(ml(x, alpha, beta) - ref) <= 1e-8 * max(1.0, abs(ref)), (
                alpha, beta, x,
            )


def test_window_near_alpha_one():
    # alpha in (0.995, 1) just past the series band, where the spectral
    # density's poles crowd the real axis and E_alpha(-u^alpha) is nearly
    # e^-u: the angle form, which has no pole, must keep its relative digits
    for alpha, u in itertools.product((0.996, 0.9999, 1 - 1e-9, 1 - 1e-12),
                                      (7.0, 12.0, 18.0, 24.5)):
        for beta in (1.0, alpha):
            ref = ml_reference(-u**alpha, alpha, beta)
            got = ml(-u**alpha, alpha, beta)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (
                alpha, beta, u,
            )


def test_tail_expansion_hands_off_near_its_seam():
    # just past u = 25 the best truncation of the algebraic tail expansion
    # is off by 6.6e-8, 5.6e-9 and 3.3e-10 relative here; the angle form,
    # which answers past the series band, must not lose those digits
    for u, alpha in ((25.0001, 0.996), (26.0, 0.99), (26.0, 0.9)):
        x = -(u**alpha)
        want = ml_reference(x, alpha)
        assert ml(x, alpha) == pytest.approx(want, rel=1e-12, abs=0.0), (u, alpha)


def test_beyond_band_battery():
    # past the series band for every order: beta = 1, beta = alpha, and
    # beta in (alpha, 1)
    rng = np.random.default_rng(8)
    for i in range(150):
        alpha = float(rng.uniform(0.1, 1.0 - 1e-9))
        u = float(rng.uniform(6.5, 85.0))
        beta = (1.0, alpha, float(rng.uniform(alpha, 1.0)))[i % 3]
        x = -(u**alpha)
        ref = ml_reference(x, alpha, beta)
        assert ml(x, alpha, beta) == pytest.approx(ref, rel=1e-13, abs=0.0), (
            alpha, u, beta,
        )


def test_small_alpha_past_the_band():
    # the angle form's r^(1-beta) at small alpha, where r itself underflows;
    # for u this large E_{a,b}(-y) = -sum_k (-y)^-k / Gamma(b - a k)
    for alpha, beta in ((0.01, 0.5), (0.01, 0.01), (0.01, 1.0), (0.02, 0.999)):
        for u in (7.0, 12.0):
            x = -(u**alpha)
            ref = ml_reference(x, alpha, beta)
            assert ml(x, alpha, beta) == pytest.approx(ref, rel=1e-12, abs=0.0)
    with mpmath.workdps(30):
        a, b = mpmath.mpf("1e-4"), mpmath.mpf("0.9999")
        want = -mpmath.fsum((-2) ** -k / mpmath.gamma(b - k * a)
                            for k in range(1, 120))
    assert ml(-2.0, 1e-4, 0.9999) == pytest.approx(float(want), rel=1e-13)


def test_tiny_alpha_near_minus_one():
    # at alpha = 1e-4 the series at x = -0.9986 needs ~3e4 terms, past
    # the row cap of 180; past the seam on |x| the angle form answers
    # instead
    want = ml_reference(-0.9986, 1e-4)
    assert ml(-0.9986, 1e-4) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert _ml_pair(-0.9986, 1e-4)[0] == ml(-0.9986, 1e-4)


def test_series_row_needs_no_tail_up_to_the_seam():
    # the series sums one row per order with no runtime tail test: at the
    # seam, where the terms are largest, its last four terms must already
    # be under the stop bound 1e-16 (|sum| + 1), on whole pairs
    alphas = np.geomspace(mlf.ALPHA_MIN, 1.0, 2001)[:-1].tolist()
    alphas += [0.2, math.nextafter(0.2, 0.0)]
    for alpha in alphas:
        for beta in (1.0, alpha, (1.0 + alpha) / 2.0):
            ln_y = mlf._series_edge(alpha, beta)
            row = mlf._series_row(alpha, beta)
            assert row.size % 2 == 0, (alpha, beta)
            tail = np.exp(np.arange(row.size - 4, row.size) * ln_y) * row[-4:]
            bound = 1e-16 * (abs(mlf._series(ln_y, alpha, beta)) + 1.0)
            assert np.abs(tail).max() < bound, (alpha, beta)


def _battery_points(rng, n):
    """Seeded (alpha, u) in four strata: u log-uniform on [1e-6, 60], at
    the seams on |x| (0.65, 0.8, 1), at the seam u = 1.5 and at the old
    band edge u = 6.5; alpha log-uniform on [0.01, 1], or in (0.995, 1)."""
    for i in range(n):
        alpha = float(np.exp(rng.uniform(math.log(0.01), 0.0)))
        if i % 8 == 7:
            alpha = float(rng.uniform(0.995, 1.0))
        jitter = float(np.exp(rng.uniform(-0.02, 0.02)))
        kind = i % 4
        if kind == 0:
            u = float(np.exp(rng.uniform(math.log(1e-6), math.log(60.0))))
        elif kind == 1:
            u = (float(rng.choice([0.65, 0.8, 1.0])) * jitter) ** (1.0 / alpha)
        elif kind == 2:
            u = 1.5 * jitter
        else:
            u = 6.5 * jitter
        yield alpha, u


def test_seeded_battery_across_the_seams():
    # E_{a,b} to 1e-14 relative at beta 1, alpha and a draw in (alpha, 1),
    # and the one-pass E_{a,a} of _ml_pair to 1e-13, whose E_a is ml's to
    # the bit
    betas = np.random.default_rng(2027)
    for alpha, u in _battery_points(np.random.default_rng(2026), 48):
        x = -(u**alpha)
        for beta in (1.0, alpha, float(betas.uniform(alpha, 1.0))):
            want = ml_reference(x, alpha, beta)
            got = ml(x, alpha, beta)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (
                alpha, u, beta)
        e, e2 = _ml_pair(x, alpha)
        assert e == ml(x, alpha)
        want = ml_reference(x, alpha, alpha)
        assert e2 == pytest.approx(want, rel=1e-13, abs=0.0), (alpha, u)


def test_pair_is_two_ml_calls_off_the_negative_axis():
    # x = 0 and alpha = 1 take ml for both orders
    for x, alpha in ((0.0, 0.6), (-0.0, 0.6), (-3.0, 1.0)):
        assert _ml_pair(x, alpha) == (ml(x, alpha), ml(x, alpha, alpha))


def test_pair_is_two_ml_calls_at_subnormal_x():
    # dividing the series moment by a subnormal x lost E_{a,a}: at -5e-324
    # it gave 0, at -1e-320 it was off by 7e-5 relative
    for x in (-5e-324, -1e-320, -1e-310):
        for alpha in (0.3, 0.5, 0.9):
            assert _ml_pair(x, alpha) == (ml(x, alpha), ml(x, alpha, alpha))


def test_half_order_deep_tail():
    # relative accuracy where E_{1/2}(-y) = erfcx(y) ~ 1/(y sqrt(pi)) is tiny
    for y in (60.0, 2e3, 1e6, 1e12, 1e150):
        assert ml(-y, 0.5) == pytest.approx(erfcx(y), rel=1e-13, abs=0.0), y


def _u_near(seam):
    return st.floats(seam * (1.0 - 1e-9), seam * (1.0 + 1e-9))


# u = |x|^(1/alpha) by regime: zero, the series near 0, its seam on u at
# 1.5 (beta = 1, alpha >= 0.2), the angle form past it, across integer ln
# u inside a span (e^2, e^3) and at span edges, where it changes grids (u
# = e^4 and e^12), the old series band edge at 6.5, and on to u = 1e4
_U_POINTS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 6.5),
    _u_near(1.5),
    _u_near(6.5),
    st.sampled_from([2.0, 3.0, 4.0, 12.0]).map(math.exp).flatmap(_u_near),
    _u_near(25.0),
    _u_near(60.0),
    st.floats(6.5, 60.0),
    st.floats(60.0, 1e4),
)
# |x| at the series seams on |x|: 0.65 (beta < 1), 0.8 (beta = 1), and 1
_X_SEAMS = st.sampled_from([0.65, 0.8, 1.0]).flatmap(_u_near)
# beta as alpha, 1, or a fraction of the way from alpha to 1
_BETAS = st.one_of(st.sampled_from(["alpha", 1.0]), st.floats(0.0, 1.0))


def _beta(alpha, beta):
    if beta == "alpha":
        return alpha
    return beta if beta == 1.0 else min(1.0, alpha + beta * (1.0 - alpha))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.one_of(st.floats(0.2, 1.0), st.floats(0.995, 1.0),
                    st.floats(0.11, 0.2)),
    us=st.lists(_U_POINTS, min_size=1, max_size=16),
    xs_seam=st.lists(_X_SEAMS, max_size=4),
    beta=_BETAS,
    block=st.sampled_from([None, 1, 250]),
)
def test_ml_array_matches_ml_in_every_regime(alpha, us, xs_seam, beta,
                                             block):
    # block caps the entries of a batched series or angle block: 1 and
    # 250 split the rows into blocks of one row or a few
    beta = _beta(alpha, beta)
    x = np.array([-(u**alpha) for u in us] + [-v for v in xs_seam])
    want = np.array([ml(float(v), alpha, beta) for v in x])
    with mock.patch.object(mlf, "_BLOCK_ENTRIES",
                           block or mlf._BLOCK_ENTRIES):
        got = ml_array(x, alpha, beta)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("alpha, beta", [
    (1.0, 1.0), (0.6, 1.0), (0.6, 0.6), (0.5, 0.7)])
def test_ml_array_equals_ml_at_exp_zero_and_few_elements(alpha, beta):
    # alpha = beta = 1 (exp), x = 0 (1/Gamma(beta)) and arrays of 0-4
    # elements all go through ml; the band rows are summed in a block
    pool = [0.0, -0.0, -0.3, -1.2, -2.5, -40.0, -0.7, -3.0, -1e-300]
    for size in range(len(pool) + 1):
        x = np.array(pool[:size])
        want = np.array([ml(float(v), alpha, beta) for v in x])
        assert np.array_equal(ml_array(x, alpha, beta), want), (size, x)


def _adjacent_across(ln_edge):
    """Adjacent floats x_in > x_out, both < 0, with ln(-x_in) <= ln_edge <
    ln(-x_out)."""
    x = -math.exp(ln_edge)
    while math.log(-x) > ln_edge:
        x = math.nextafter(x, 0.0)
    while math.log(-math.nextafter(x, -math.inf)) <= ln_edge:
        x = math.nextafter(x, -math.inf)
    return x, math.nextafter(x, -math.inf)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.one_of(st.floats(1e-3, 1.0, exclude_max=True),
                    st.floats(0.995, 1.0, exclude_max=True)),
    beta=_BETAS,
    unit=st.integers(-20, 28),
)
def test_ml_is_continuous_across_the_series_band_edge(alpha, beta, unit):
    # The series ends at |x| = 0.65 (beta < 1), and at |x| = 0.8 or, from
    # alpha = 0.2 on, u = 1.5 (beta = 1); past it the angle form changes
    # grids where ln u crosses an integer (unit) that is 4 mod 8, and
    # keeps its grid across the others. E_{a,b}(-y) falls with
    # y, and one ulp across either edge it moves by the two routes' errors
    # alone: measured up to 5.6e-14 at alpha ~ 1e-3, 2e-14 from alpha =
    # 0.01 on
    beta = _beta(alpha, beta)
    tol = 2e-14 if alpha >= 0.01 else 1e-13
    inside, outside = _adjacent_across(mlf._series_edge(alpha, beta))
    pairs = [(inside, outside)]
    if alpha < 1.0 and unit * alpha > mlf._series_edge(alpha, beta):
        # the unit of ln u changes between two of these adjacent floats
        xs = [-math.exp(unit * alpha)]
        for _ in range(4):
            xs = [math.nextafter(xs[0], 0.0), *xs,
                  math.nextafter(xs[-1], -math.inf)]
        pairs += list(zip(xs, xs[1:]))
    for near, far in pairs:
        v_near, v_far = ml(near, alpha, beta), ml(far, alpha, beta)
        assert v_far <= v_near + tol * abs(v_near), (near, v_near, v_far)
        assert abs(v_far - v_near) <= tol * abs(v_near), (near, v_near, v_far)
    # ml_array routes these floats, each an ulp from an edge, as ml does
    xs = np.array([v for pair in pairs for v in pair])
    assert np.array_equal(ml_array(xs, alpha, beta),
                          [ml(float(v), alpha, beta) for v in xs])


def test_narrow_band_at_small_alpha():
    # the series seams sit on |x|, so at small alpha the series band in u
    # narrows to nothing (|x| <= 0.8 is u <= 0.8^(1/alpha)), and ml_array
    # routes as ml does
    for alpha in (1e-3, 0.01, 0.05, 0.15):
        for beta in (1.0, alpha, 0.5):
            edge = math.exp(mlf._series_edge(alpha, beta))
            x = -edge * np.array([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.2, 2.0])
            want = [ml(float(v), alpha, beta) for v in x]
            assert np.array_equal(ml_array(x, alpha, beta), want), (alpha, beta)
            if alpha >= 0.01:
                for v, got in zip(x, want):
                    if (-v) ** (1.0 / alpha) <= 60.0:
                        ref = ml_reference(float(v), alpha, beta)
                        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (
                            alpha, beta, v)


@pytest.mark.parametrize("alpha", [mlf.ALPHA_MIN, math.nextafter(1.0, 0.0)])
def test_angle_grid_slices_inside_the_lattice(alpha, monkeypatch):
    # _angle_grid slices its t lattice from the precomputed one, with no
    # fallback: its ends at the least and the greatest order accepted must
    # lie inside it, and the grid must equal one built on a direct lattice
    big = math.pi * alpha
    lead = math.log(big / math.sin(big))
    lo = math.floor((mlf._LN_SQUEEZE + math.log(alpha / mlf._ANGLE_DROP))
                    / mlf._ANGLE_STEP)
    hi = math.ceil((2.0 * lead / alpha + mlf._ANGLE_SPAN
                    + math.log(mlf._R_CUT) + 1.0) / mlf._ANGLE_STEP)
    assert mlf._LATTICE_LO <= lo and hi <= mlf._LATTICE_HI
    build = mlf._angle_grid.__wrapped__  # past the cache
    sliced = [build(alpha, beta, top) for beta, top in ((1.0, 4), (0.5, 12))]
    shifted, dilate = mlf._lattice(lo, hi)
    monkeypatch.setattr(mlf, "_LATTICE_LO", lo)
    monkeypatch.setattr(mlf, "_SHIFTED", shifted)
    monkeypatch.setattr(mlf, "_DILATE", dilate)
    direct = [build(alpha, beta, top) for beta, top in ((1.0, 4), (0.5, 12))]
    for (y_s, r, w), (y_d, r_d, w_d) in zip(sliced, direct):
        assert y_s == y_d
        assert np.array_equal(r, r_d) and np.array_equal(w, w_d)


def test_ml_array_shapes_blocks_and_errors(monkeypatch):
    x = -np.linspace(0.0, 3.0, 12).reshape(3, 4)
    want = np.array([[ml(float(v), 0.6) for v in row] for row in x])
    assert np.array_equal(ml_array(x, 0.6), want)
    # series and angle blocks of a few rows sum each row as one block does
    monkeypatch.setattr(mlf, "_BLOCK_ENTRIES", 300)
    assert np.array_equal(ml_array(x, 0.6), want)
    assert ml_array(np.float64(-0.5), 0.6).shape == ()
    assert ml_array(np.array([]), 0.6).shape == (0,)
    assert ml_array(np.float64(-0.5), 1.0).shape == ()
    assert ml_array(np.array([]), 1.0).shape == (0,)
    with pytest.raises(MlfDomainError):
        ml_array([0.5, np.inf], 0.6)
    with pytest.raises(MlfDomainError):
        ml_array([0.5], 1.5)
    with pytest.raises(MlfDomainError):
        ml_array([-0.5, 710.0], 1.0)


def test_positive_on_negative_axis():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        alpha = float(rng.uniform(0.05, 1.0))
        x = float(rng.uniform(-50.0, 0.0))
        assert ml(x, alpha) > 0.0
        assert ml(x, alpha, alpha) > 0.0


def test_vanishing_limit():
    for alpha in (0.3, 0.5, 0.75, 1.0):
        assert ml(-1e6, alpha) < 1e-3


def test_bounded_by_one_on_negative_axis():
    rng = np.random.default_rng(3)
    for _ in range(400):
        alpha = float(rng.uniform(0.05, 1.0))
        x = float(rng.uniform(-1e6, 0.0))
        assert 0.0 < ml(x, alpha) <= 1.0


def test_monotone_in_argument():
    rng = np.random.default_rng(12)
    for alpha in (0.35, 0.6, 0.85, 1.0):
        xs = np.sort(rng.uniform(-40.0, 0.0, size=60))
        vals = [ml(float(x), alpha) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _old_ln_u_band(alpha):
    """ln u at the end of the series band that the angle form has since
    taken over: u = 6.5, narrowing to 6.5 (alpha/0.2)^2 below alpha = 0.2.
    It keeps this test's sample points."""
    if alpha >= 0.2:
        return math.log(6.5)
    return math.log(6.5) + 2.0 * math.log(alpha / 0.2)


# u = |x|^(1/alpha) as a multiple of that old band's end: inside the band,
# at its edge and past it
_BAND_MULTIPLES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(1.0 - 1e-9, 1.0 + 1e-9),
    st.floats(1.0, 1e3),
)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.one_of(st.floats(1e-3, 0.2), st.floats(0.2, 1.0),
                    st.floats(0.995, 1.0), st.just(1.0)),
    first=_BAND_MULTIPLES,
    second=st.one_of(st.integers(0, 64), _BAND_MULTIPLES),
)
def test_ml_is_non_increasing_on_the_negative_axis(alpha, first, second):
    # E_alpha(-x) falls as x grows; the second point lies 0-64 ulps past
    # the first, or anywhere. Past the old band the values never rise.
    # Inside it, and from inside to past its edge, a pair a few ulps apart
    # may straddle the series seam or a change of angle grid, where the
    # value may rise by the routes' errors (see the continuity test), so
    # there the slack is 1e-13 relative
    ln_edge = _old_ln_u_band(alpha)
    x = (math.exp(ln_edge) * first) ** alpha
    if isinstance(second, int):
        y = x
        for _ in range(second):
            y = math.nextafter(y, math.inf)
    else:
        y = (math.exp(ln_edge) * second) ** alpha
    lo, hi = min(x, y), max(x, y)
    v_lo, v_hi = ml(-lo, alpha), ml(-hi, alpha)
    in_band = lo == 0.0 or math.log(lo) / alpha <= ln_edge
    slack = 1e-13 * v_lo if in_band else 0.0
    assert v_hi <= v_lo + slack, (alpha, lo, hi, v_lo, v_hi)


def _adjacent_across_unit(n, alpha):
    """Adjacent floats y_in < y_out with ceil(ln y / alpha), the unit of ln u
    that routes y, equal to n at y_in and n + 1 at y_out."""
    y = math.exp(alpha * n)
    while math.ceil(math.log(y) / alpha) > n:
        y = math.nextafter(y, 0.0)
    while math.ceil(math.log(math.nextafter(y, math.inf)) / alpha) <= n:
        y = math.nextafter(y, math.inf)
    return y, math.nextafter(y, math.inf)


def test_ml_does_not_rise_across_unit_edges_inside_a_span():
    # past the seam, the angle form sums one whole grid per span of ln u,
    # (8 m - 4, 8 m + 4], so one ulp across ln u = n, n != 4 mod 8, only
    # q = y / y_s moves, and E_alpha(-y) cannot rise; a node count cut per
    # unit rose at ~5% of these edges
    rng = np.random.default_rng(19)
    for _ in range(40):
        alpha = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.999))))
        edge = mlf._series_edge(alpha, 1.0)
        first = math.floor(edge / alpha) + 1
        for n in range(first, first + 40):
            y_in, y_out = _adjacent_across_unit(n, alpha)
            if n % 8 == 4 or math.log(y_in) <= edge:
                continue
            v_in, v_out = ml(-y_in, alpha), ml(-y_out, alpha)
            assert v_out <= v_in, (alpha, n, y_in, v_in, v_out)


def test_sub_semigroup_sample():
    # small version of the big battery in the acceptance tests
    rng = np.random.default_rng(99)
    for _ in range(2000):
        alpha = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.01, 3.0))
        t = float(rng.uniform(0.0, 20.0))
        s = float(rng.uniform(0.0, 20.0))
        lhs = ml(-lam * t**alpha, alpha) * ml(-lam * s**alpha, alpha)
        rhs = ml(-lam * (t + s) ** alpha, alpha)
        assert lhs <= rhs + 1e-12


def test_derivative_identity_against_finite_differences():
    # d/dx E_alpha(x) = E_{alpha,alpha}(x) / alpha, the slope the rate solver uses
    step = 1e-5
    for alpha in (0.45, 0.65, 0.9):
        for x in np.linspace(-10.0, -0.5, 20):
            x = float(x)
            fd = (ml(x + step, alpha) - ml(x - step, alpha)) / (2 * step)
            assert ml(x, alpha, alpha) / alpha == pytest.approx(fd, abs=1e-6)


def test_derivative_anchors():
    # E_alpha'(0) = 1 / Gamma(1 + alpha)
    for alpha, want in ((1.0, 1.0), (0.5, 2.0 / math.sqrt(math.pi))):
        assert ml(0.0, alpha, alpha) / alpha == pytest.approx(want, abs=1e-14)


def test_deterministic_and_thread_safe():
    args = [
        (-0.3, 0.65, 1.0),     # plain series
        (-12.0, 0.65, 0.65),   # angle form, just past the series band
        (-4000.0, 0.65, 1.0),  # angle form, deep tail
        (-9.0, 0.997, 0.997),  # angle form, beta = alpha near 1
        (-20.0, 0.999, 1.0),   # angle form, alpha near 1
        (-0.5, 0.8, 0.9),      # series, beta between alpha and 1
    ]
    want = [ml(*a) for a in args]
    jobs = args * 40
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda a: ml(*a), jobs))
    assert got == want * 40
