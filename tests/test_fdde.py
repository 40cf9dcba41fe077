import dataclasses
import gc
import math
import warnings

import numpy as np
import pytest

from halanay import fdde
from halanay.cli import load_config
from halanay.errors import InfeasiblePointError, StepSizeError
from halanay.expr import parse
from halanay.fdde import (
    BLOCK,
    DIRECT_SPAN,
    SolverConfig,
    Trajectory,
    caputo_l1,
    check_envelope,
    lyapunov_check,
    solve,
    write_csv,
)
from halanay.halanay import ScanGrid, envelope
from halanay.lmi import certify_lmi
from halanay.mlf import ml, ml_array
from halanay.positivity import DelaySystem, certify_positive

from conftest import column_sums, on_grid
from oracles import caputo_l1_node, rk4_dde, trapezoid_direct


def T(src):
    return parse(src, "t")


def S(src):
    return parse(src, "s")


def mat(rows):
    return [[T(e) for e in row] for row in rows]


def scalar_decay(alpha, rate=1.0):
    return DelaySystem(alpha=alpha, dim=1, A=mat([[f"{-rate}"]]), B=mat([["0"]]),
                       q=T("0.5"), tau=1.0, phi=[S("1")])


# ------------------------------------------------------------ configuration

def test_solver_config_validation():
    SolverConfig(t_end=1.0, h=0.01)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, h=1.0)  # h must stay below the horizon
    with pytest.raises(ValueError):
        SolverConfig(t_end=0.0, h=0.01)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1.0, h=-0.01)
    with pytest.raises(ValueError):
        SolverConfig(t_end=1e6, h=1e-2)  # > 1e7 nodes


# -------------------------------------------------------------------- solve

def test_trajectory_invariants():
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=2.0, h=0.01))
    assert isinstance(traj, Trajectory)
    assert traj.states[0, 0] == 1.0  # phi(0)
    assert np.all(np.diff(traj.grid) > 0)
    assert traj.grid[0] == 0.0 and traj.grid[-1] == pytest.approx(2.0)
    np.testing.assert_allclose(
        traj.norms_l1, np.abs(traj.states).sum(axis=1), atol=0
    )
    np.testing.assert_allclose(
        traj.norms_l2, np.sqrt((traj.states**2).sum(axis=1)), atol=0
    )


def test_scalar_solution_tracks_decay_eigenfunction():
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=5.0, h=1e-2))
    exact = np.array([ml(-t**0.65, 0.65) for t in traj.grid])
    err = np.abs(traj.states[:, 0] - exact)
    assert err.max() < 5e-4       # startup node dominates at h^alpha
    assert err[-1] < 2e-5


def test_diagonal_system_decouples():
    d2 = DelaySystem(
        alpha=0.7, dim=2, A=mat([["-1", "0"], ["0", "-2"]]),
        B=mat([["0", "0"], ["0", "0"]]), q=T("0.5"), tau=1.0,
        phi=[S("1"), S("1")],
    )
    traj = solve(d2, SolverConfig(t_end=2.0, h=0.01))
    s1 = solve(scalar_decay(0.7), SolverConfig(t_end=2.0, h=0.01))
    np.testing.assert_allclose(traj.states[:, 0], s1.states[:, 0], atol=1e-12)
    two = DelaySystem(alpha=0.7, dim=1, A=mat([["-2"]]), B=mat([["0"]]),
                      q=T("0.5"), tau=1.0, phi=[S("1")])
    s2 = solve(two, SolverConfig(t_end=2.0, h=0.01))
    np.testing.assert_allclose(traj.states[:, 1], s2.states[:, 0], atol=1e-12)


def test_history_reads_are_exact_for_nonpositive_arguments():
    # A=0, B=1, q=tau=1: on [0,1] the rhs is phi(t-1)=t, a polynomial the
    # product-trapezoid weights integrate exactly, so any deviation would
    # come from misreading the initial function.
    for alpha in (0.45, 0.8):
        sys_ = DelaySystem(alpha=alpha, dim=1, A=mat([["0"]]), B=mat([["1"]]),
                           q=T("1"), tau=1.0, phi=[S("1+s")])
        traj = solve(sys_, SolverConfig(t_end=1.0, h=0.01))
        want = 1.0 + traj.grid ** (alpha + 1.0) / math.gamma(alpha + 2.0)
        assert np.abs(traj.states[:, 0] - want).max() < 1e-12


def test_classical_limit_matches_method_of_steps():
    sys_ = DelaySystem(
        alpha=1.0, dim=2,
        A=mat([["-2", "0.5*sin(t)"], ["0.3", "-1.5"]]),
        B=mat([["0.2", "0"], ["0.1", "0.1*cos(t)"]]),
        q=T("1+0.5*sin(t)"), tau=1.5,
        phi=[S("1+s"), S("cos(s)")],
    )
    traj = solve(sys_, SolverConfig(t_end=3.0, h=1e-3))
    ts, xs = rk4_dde(sys_, 3.0, 1e-3)
    np.testing.assert_allclose(traj.grid, ts, atol=1e-12)
    assert np.abs(traj.states - xs).max() < 1e-5


def test_sub_step_delay_is_clamped_and_flagged():
    tiny = DelaySystem(alpha=0.8, dim=1, A=mat([["-1"]]), B=mat([["0.3"]]),
                       q=T("0.001"), tau=1.0, phi=[S("1")])
    traj = solve(tiny, SolverConfig(t_end=1.0, h=0.01))
    assert len(traj.clamped) == 100  # every step lands past computed history
    assert np.all(np.isfinite(traj.states))
    ok = solve(scalar_decay(0.8), SolverConfig(t_end=1.0, h=0.01))
    assert len(ok.clamped) == 0


def test_sub_step_delay_converges():
    # q = 0.004 lies inside every step at h = 0.01 and 0.005; the delayed
    # state interpolates with the state being solved, so the error falls
    # with h (reading x itself there left ~5.7e-4 at both steps)
    sys_ = DelaySystem(alpha=0.7, dim=1, A=mat([["-1"]]), B=mat([["0.6"]]),
                       q=T("0.004"), tau=1.0, phi=[S("1+s")])
    ref = solve(sys_, SolverConfig(t_end=4.0, h=1e-4)).states[:, 0]
    err = {}
    for h, stride in ((0.01, 100), (0.005, 50)):
        traj = solve(sys_, SolverConfig(t_end=4.0, h=h))
        assert len(traj.clamped) == len(traj.grid) - 1
        err[h] = np.abs(traj.states[:, 0] - ref[::stride]).max()
    assert err[0.01] < 2e-4
    assert err[0.005] <= 0.5 * err[0.01]


def test_delay_outside_bound_raises():
    bad = DelaySystem(alpha=0.8, dim=1, A=mat([["-1"]]), B=mat([["0.3"]]),
                      q=T("2+t"), tau=1.0, phi=[S("1")])
    with pytest.raises(StepSizeError):
        solve(bad, SolverConfig(t_end=1.0, h=0.01))
    future = DelaySystem(alpha=0.8, dim=1, A=mat([["-1"]]), B=mat([["0.3"]]),
                         q=T("-0.5"), tau=1.0, phi=[S("1")])
    with pytest.raises(StepSizeError):
        solve(future, SolverConfig(t_end=1.0, h=0.01))


def test_out_of_range_delay_is_named():
    # only the second of two delays leaves [0, tau]: both the classifier and
    # the solver name it, its value and (the solver) the first time it does
    two = DelaySystem(alpha=0.8, dim=1, A=mat([["-1"]]), B=mat([["0.3", "0.2"]]),
                      q=(T("0.5"), T("0.5+t")), tau=1.0, phi=[S("1")])
    with pytest.raises(InfeasiblePointError,
                       match=r"within \[0, 1\.0\] on the grid: q\[1\]=1\.5$"):
        certify_positive(two, ScanGrid(1.0, 3))
    with pytest.raises(StepSizeError,
                       match=r"^delay q\[1\]=1\.01 leaves \[0, 1\.0\] at t=0\.51$"):
        solve(two, SolverConfig(t_end=1.0, h=0.01))


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_scalar_problem_bounds_the_system_and_the_envelope_bounds_it(config_dir, name):
    # each route bounds the system by one scalar delayed problem w, solved
    # here from its sampled coefficients with w = M on the history: the
    # route's reduction is |x|_1 <= w (|x|_2^2 <= w on the lmi route), and
    # the generalized Halanay inequality is w <= the certified envelope
    cfg = load_config(str(config_dir / f"{name}.json"))
    sys_, h = cfg.system, 0.01
    traj = solve(sys_, SolverConfig(t_end=20.0, h=h))
    ts = traj.grid
    if cfg.analysis == "lmi":
        _, cert = certify_lmi(sys_, cfg.gamma, cfg.sigma, cfg.scan)
        a, b = cfg.gamma.eval_array(ts), cfg.sigma.eval_array(ts)[None]
        x = traj.norms_l2**2
    else:
        _, cert = certify_positive(sys_, cfg.scan)
        a, b = column_sums(sys_, ts)
        x = traj.norms_l1
    w = fdde._integrate(sys_.alpha, sys_.tau, [S(repr(cert.M))], h,
                        -a[None, None], b[None], sys_.sample(ts)[2])
    w = w.states[:, 0]
    env = envelope(cert, sys_.alpha, ts)
    assert w[0] == cert.M == env[0]
    assert np.all(x <= 1.02 * w), np.max(x / w)
    assert np.all(w <= 1.02 * env), np.max(w / env)


def with_delays(sys_, qs, shares):
    """sys_ with the delays qs, B_k = shares[k] * B; a share of 0 is a
    zero block."""
    B = [[T(f"{w}*({e.source})") if w else T("0") for w in shares for e in row]
         for row in sys_.B]
    return dataclasses.replace(sys_, B=B, q=tuple(T(q) for q in qs))


def test_a_zero_delay_block_changes_no_bit(config_dir):
    # K = 2 with B_2 = 0 is the K = 1 solve, bit for bit, with the first
    # delay under one step, inside the block or from the history
    cfg = SolverConfig(t_end=2.5, h=0.01)
    for name, q in (("example1.json", "0.004"), ("example2.json", "0.05"),
                    ("example3.json", None)):
        one = bundled(config_dir, name, q)
        two = with_delays(one, (one.q[0].source, "0.8+0.1*sin(t)"), (1, 0))
        a, b = solve(one, cfg), solve(two, cfg)
        assert np.array_equal(a.states, b.states), name
        assert np.array_equal(a.rhs, b.rhs), name
        assert a.clamped == b.clamped


def test_equal_delays_share_the_coupling(config_dir):
    # the same delay twice, each with half of B, is the one-delay system
    cfg = SolverConfig(t_end=2.5, h=0.01)
    for name, q in (("example1.json", "0.004"), ("example2.json", "0.013"),
                    ("example1.json", None)):
        one = bundled(config_dir, name, q)
        two = with_delays(one, (one.q[0].source,) * 2, (0.5, 0.5))
        a, b = solve(one, cfg), solve(two, cfg)
        assert np.abs(a.states - b.states).max() <= 1e-13 * np.abs(a.states).max()
        assert np.abs(a.rhs - b.rhs).max() <= 1e-13 * np.abs(a.rhs).max()


def test_solver_is_deterministic():
    sys_ = DelaySystem(
        alpha=0.45, dim=2,
        A=mat([["-1", "0.2"], ["0.1", "-2"]]),
        B=mat([["0.1", "0"], ["0", "0.1"]]),
        q=T("1+0.5*sin(t)"), tau=1.5, phi=[S("1+s"), S("cos(s)")],
    )
    a = solve(sys_, SolverConfig(t_end=2.0, h=0.01))
    b = solve(sys_, SolverConfig(t_end=2.0, h=0.01))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.rhs, b.rhs)


@pytest.mark.parametrize("rate,rtol", [(12.0, 1e-4), (1000.0, 1e-2)])
def test_stiff_scalar_stays_stable(rate, rtol):
    # c_corr*rate is 0.15 and 12.9 here; an explicit predictor-corrector
    # overflows at rate 12, the implicit rule decays like E_alpha
    traj = solve(scalar_decay(0.45, rate), SolverConfig(t_end=50.0, h=0.01))
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.abs(traj.states) <= 1.0)
    exact = ml(-rate * 50.0**0.45, 0.45)
    assert traj.states[-1, 0] == pytest.approx(exact, rel=rtol)


def test_divergent_solution_raises():
    # E_0.45(5 t^0.45) passes float range near t = 19.9
    with pytest.raises(StepSizeError, match=r"not finite at t=19\.\d"):
        solve(scalar_decay(0.45, -5.0), SolverConfig(t_end=50.0, h=0.01))


def bundled(config_dir, name, q=None):
    """A bundled system, with the delay q if given; a tuple of delays
    splits B over them, a quarter to the first."""
    sys_ = load_config(str(config_dir / name)).system
    if isinstance(q, tuple):
        return with_delays(sys_, q, (0.25, 0.75))
    return sys_ if q is None else dataclasses.replace(sys_, q=T(q))


@pytest.mark.parametrize("name,q,t_end,clamps", [
    ("example1.json", None, 1.5, 0),
    ("example2.json", None, 1.5, 0),
    ("example3.json", None, 1.5, 0),
    ("example3.json", None, 0.2, 0),      # n = 20 < BLOCK
    ("example1.json", "0", 0.8, 80),      # every delay clamped
    ("example2.json", "0.004", 0.8, 80),  # clamped, under one step
    ("example3.json", "0.013", 1.3, 0),   # interpolates inside the block
    ("example1.json", "0.005+0.02*sin(3*t)^2", 1.3, None),
    # long enough to carry history both as a matrix and by FFT
    ("example1.json", "0.005+0.02*sin(3*t)^2", 6.01, None),
    ("example3.json", None, 6.01, 0),
    # two delays that both couple inside the block
    ("example1.json", ("0.004", "0.05"), 1.3, 130),
    ("example3.json", ("0.013", "0.005+0.02*sin(3*t)^2"), 1.3, None),
    # two delays, one reaching back past the block, over the FFT history
    ("example1.json", ("0.7+0.25*sin(t)", "0.05+0.02*sin(t)"), 6.01, 0),
])
def test_solve_matches_direct_trapezoid(config_dir, name, q, t_end, clamps):
    sys_ = bundled(config_dir, name, q)
    traj = solve(sys_, SolverConfig(t_end=t_end, h=0.01))
    ts, xs, fs = trapezoid_direct(sys_, t_end, 0.01)
    n = len(ts) - 1
    assert n == round(t_end / 0.01)
    if n >= BLOCK:
        assert n % BLOCK != 0
    if t_end > 6.0:
        spans = {(t & -t) * BLOCK for t in range(1, (n - 1) // BLOCK + 1)}
        assert min(spans) <= DIRECT_SPAN < max(spans)
    scale = np.abs(xs).max()
    assert np.abs(traj.states - xs).max() <= 1e-12 * scale
    assert np.abs(traj.rhs - fs).max() <= 1e-12 * np.abs(fs).max()
    if clamps is not None:
        assert len(traj.clamped) == clamps
    else:
        assert 0 < len(traj.clamped) < n


def test_solve_is_one_linear_solve_per_block(monkeypatch):
    # the block states come from one linear solve per block; the history
    # weights of each dyadic span are transformed once, not per block
    calls = {"solve": 0, "carrier": 0, "weight_rfft": 0}
    lin_solve, rfft, carrier = np.linalg.solve, np.fft.rfft, fdde._carrier

    def counted_solve(*args):
        calls["solve"] += 1
        return lin_solve(*args)

    def counted_rfft(a, *args, **kwargs):
        if np.ndim(a) == 1:  # the weights; the rhs goes in as (span, d)
            calls["weight_rfft"] += 1
        return rfft(a, *args, **kwargs)

    def counted_carrier(*args):
        calls["carrier"] += 1
        return carrier(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(fdde, "_carrier", counted_carrier)
    for t_end, blocks in ((10.0, 32), (10.24, 32), (10.25, 33), (0.2, 1),
                          (80.0, 250)):
        calls.update(solve=0, carrier=0, weight_rfft=0)
        traj = solve(scalar_decay(0.65), SolverConfig(t_end=t_end, h=0.01))
        n = len(traj.grid) - 1
        assert blocks == -(-n // BLOCK)
        spans = {t & -t for t in range(1, blocks)}
        assert calls["solve"] == blocks
        assert calls["weight_rfft"] <= calls["carrier"] <= len(spans)


def test_solve_leaves_no_garbage():
    # arrays of a solve must go when it returns, not wait for a collection
    sys_ = scalar_decay(0.65)
    cfg = SolverConfig(t_end=5.0, h=0.01)
    gc.collect()
    gc.disable()
    try:
        solve(sys_, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------- caputo_l1

def test_caputo_of_constant_is_zero():
    vals = np.full(101, 3.7)
    assert np.all(caputo_l1(vals, 0.6, 0.01) == 0.0)


def test_caputo_classical_limit_on_linear_ramp():
    h = 0.01
    ts = h * np.arange(101)
    np.testing.assert_allclose(caputo_l1(ts, 1.0, h), 1.0, rtol=0.0, atol=1e-12)
    # alpha=1 reduces to the plain backward difference
    rng = np.random.default_rng(2)
    x = rng.normal(size=50)
    want = (x[1:] - x[:-1]) / h
    np.testing.assert_allclose(caputo_l1(x, 1.0, h), want, rtol=1e-12)


def test_caputo_index_bounds():
    # one value per node 1..n; node 0 has no derivative
    assert caputo_l1(np.zeros(10), 0.5, 0.1).shape == (9,)
    with pytest.raises(ValueError):
        caputo_l1(np.zeros(1), 0.5, 0.1)
    with pytest.raises(ValueError):
        caputo_l1(np.zeros((3, 3)), 0.5, 0.1)


@pytest.mark.parametrize("alpha", [0.3, 0.65, 1.0])
def test_caputo_matches_per_node_sum(alpha):
    # increasing samples: every term of every node's sum is positive, so a
    # relative comparison holds at each node
    h = 0.02
    rng = np.random.default_rng(5)
    vals = np.concatenate([[0.4], 0.4 + np.cumsum(rng.uniform(0.5, 1.5, 300) * h)])
    got = caputo_l1(vals, alpha, h)
    want = [caputo_l1_node(vals, alpha, k, h) for k in range(1, len(vals))]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_caputo_eigenfunction_residual_refines():
    # L1 of E_alpha(-t^alpha) should approach -E_alpha(-t^alpha)
    worsts = []
    for h in (1e-2, 5e-3, 2.5e-3):
        n = int(round(2.0 / h))
        ts = h * np.arange(n + 1)
        x = np.array([ml(-t**0.65, 0.65) for t in ts])
        deriv = caputo_l1(x, 0.65, h)  # deriv[k-1] is the value at node k
        ks = np.arange(int(1.0 / h), n + 1, max(1, n // 100))
        worsts.append(float(np.max(np.abs(deriv[ks - 1] + x[ks]))))
    assert worsts[0] > worsts[1] > worsts[2]
    assert worsts[2] < 5e-5


# ----------------------------------------------------------- check_envelope

def test_zero_trajectory_passes_any_envelope():
    zero = DelaySystem(alpha=0.5, dim=1, A=mat([["-1"]]), B=mat([["0"]]),
                       q=T("0.5"), tau=1.0, phi=[S("0")])
    traj = solve(zero, SolverConfig(t_end=1.0, h=0.01))
    chk = check_envelope(traj, "l1", on_grid(lambda t: 1.0, traj), 0.02)
    assert chk.max_ratio == 0.0
    assert chk.passed
    assert chk.first_violation_t is None


def test_zero_envelope_holds_only_a_zero_norm(tmp_path):
    # a zero history gives M = 0 and an envelope of 0 on the grid: 0/0
    # counts as ratio 0, and a nonzero norm over 0 is a violation there
    zero = DelaySystem(alpha=0.5, dim=1, A=mat([["-1"]]), B=mat([["0"]]),
                       q=T("0.5"), tau=1.0, phi=[S("0")])
    traj = solve(zero, SolverConfig(t_end=1.0, h=0.01))
    env = np.zeros_like(traj.grid)
    chk = check_envelope(traj, "l1", env, 0.02)
    assert chk.max_ratio == 0.0
    assert chk.passed
    assert chk.first_violation_t is None
    norms = traj.norms_l1.copy()
    norms[37] = 1e-300
    hit = check_envelope(dataclasses.replace(traj, norms_l1=norms), "l1",
                         env, 0.02)
    assert hit.max_ratio == math.inf
    assert not hit.passed
    assert hit.first_violation_t == traj.grid[37]
    # write_csv's ratio column agrees, with no numpy warning on the way
    path = tmp_path / "zero.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(dataclasses.replace(traj, norms_l1=norms), str(path),
                  envelope_values=env)
    ratio = np.loadtxt(str(path), delimiter=",", skiprows=1)[:, -1]
    assert ratio[37] == math.inf and not np.delete(ratio, 37).any()
    # a negative or nan envelope is still refused
    for bad in (-1e-300, math.nan):
        env_bad = np.ones_like(traj.grid)
        env_bad[5] = bad
        with pytest.raises(ValueError, match="envelope must be nonnegative"):
            check_envelope(traj, "l1", env_bad, 0.02)


def test_envelope_violation_is_located():
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=2.0, h=0.01))
    exact = lambda t: ml(-t**0.65, 0.65)
    good = check_envelope(traj, "l1", on_grid(lambda t: 1.05 * exact(t), traj), 0.02)
    assert good.passed
    bad = check_envelope(traj, "l1", on_grid(lambda t: 0.5 * exact(t), traj), 0.02)
    assert not bad.passed
    assert bad.max_ratio == pytest.approx(2.0, abs=0.01)
    assert bad.first_violation_t == 0.0
    later = check_envelope(
        traj, "l1",
        on_grid(lambda t: 0.99 * exact(t) + 0.3 * max(0.0, 1.0 - t), traj),
        0.0,
    )
    assert not later.passed
    assert later.first_violation_t is not None
    assert later.first_violation_t > 0.5


def test_nan_norms_never_pass():
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=1.0, h=0.01))
    lost = dataclasses.replace(traj, norms_l1=np.full_like(traj.norms_l1, np.nan))
    chk = check_envelope(lost, "l1", on_grid(lambda t: 2.0, lost), 0.02)
    assert math.isnan(chk.max_ratio)
    assert chk.passed is False


def test_envelope_argument_validation():
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=1.0, h=0.01))
    with pytest.raises(ValueError):
        check_envelope(traj, "sup", on_grid(lambda t: 1.0, traj), 0.02)
    # a zero envelope is valid (a zero history gives one); a negative is not
    with pytest.raises(ValueError):
        check_envelope(traj, "l1", on_grid(lambda t: -1.0, traj), 0.02)
    with pytest.raises(ValueError):
        check_envelope(traj, "l1", np.ones(3), 0.02)


# ----------------------------------------------------------- lyapunov_check

def test_lyapunov_gap_of_steady_state_is_zero():
    flat = DelaySystem(alpha=0.6, dim=1, A=mat([["0"]]), B=mat([["0"]]),
                       q=T("0.5"), tau=1.0, phi=[S("2")])
    traj = solve(flat, SolverConfig(t_end=1.0, h=0.01))
    assert lyapunov_check(traj, 0.6) == 0.0


def test_lyapunov_inequality_holds_and_tightens():
    gaps = []
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = solve(scalar_decay(0.65), SolverConfig(t_end=2.0, h=h))
        gaps.append(lyapunov_check(traj, 0.65))
    assert all(g <= 1e-12 for g in gaps)
    assert gaps[0] < gaps[1] < gaps[2]  # approaching zero from below


def test_lyapunov_gap_on_delayed_example():
    sys_ = DelaySystem(
        alpha=0.65, dim=1, A=mat([["-0.2-0.002*t"]]), B=mat([["-0.02*sqrt(t)"]]),
        q=T("1+1/(2+sin(t))"), tau=2.0, phi=[S("0.3-0.5*cos(2*s)")],
    )
    traj = solve(sys_, SolverConfig(t_end=10.0, h=1e-2))
    assert lyapunov_check(traj, 0.65) <= 1e-6


# ---------------------------------------------------------------- write_csv

def test_csv_round_trip_with_envelope(tmp_path):
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=1.0, h=0.05))
    env = np.array([1.05 * ml(-t**0.65, 0.65) for t in traj.grid])
    path = tmp_path / "run.csv"
    write_csv(traj, str(path), envelope_values=env, norm_tag="l1")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,norm_l1,norm_l2,envelope,ratio"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape == (len(traj.grid), 6)
    # 17 significant digits survive the round trip bit-for-bit
    np.testing.assert_array_equal(data[:, 0], traj.grid)
    np.testing.assert_array_equal(data[:, 1], traj.states[:, 0])
    np.testing.assert_array_equal(data[:, 2], traj.norms_l1)
    np.testing.assert_array_equal(data[:, 4], env)
    np.testing.assert_array_equal(data[:, 5], traj.norms_l1 / env)


def test_csv_without_certificate_pads_nan(tmp_path):
    d2 = DelaySystem(
        alpha=0.7, dim=2, A=mat([["-1", "0"], ["0", "-2"]]),
        B=mat([["0", "0"], ["0", "0"]]), q=T("0.5"), tau=1.0,
        phi=[S("1"), S("1")],
    )
    traj = solve(d2, SolverConfig(t_end=1.0, h=0.1))
    path = tmp_path / "plain.csv"
    write_csv(traj, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,norm_l1,norm_l2,envelope,ratio"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape[1] == 2 + 5
    assert np.all(np.isnan(data[:, 5])) and np.all(np.isnan(data[:, 6]))


def test_csv_rejects_unknown_norm_tag(tmp_path):
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=1.0, h=0.1))
    for tag in ("L1", "sup", None):
        with pytest.raises(ValueError):
            write_csv(traj, str(tmp_path / "bad.csv"), norm_tag=tag)
    assert not (tmp_path / "bad.csv").exists()


def test_csv_bytes_match_savetxt(tmp_path):
    # more rows than one formatted chunk, the last chunk partial
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=25.0, h=0.01))
    env = 1.05 * ml_array(-traj.grid**0.65, 0.65)
    env[3] = math.inf
    for values, tag in ((None, "l1"), (env, "l2")):
        path = tmp_path / "run.csv"
        write_csv(traj, str(path), envelope_values=values, norm_tag=tag)
        if values is None:
            values = np.full(len(traj.grid), math.nan)
        norms = traj.norms_l1 if tag == "l1" else traj.norms_l2
        cols = np.column_stack([traj.grid, traj.states, traj.norms_l1,
                                traj.norms_l2, values, norms / values])
        want = tmp_path / "want.csv"
        np.savetxt(str(want), cols, fmt="%.17g", delimiter=",",
                   header="t,x1,norm_l1,norm_l2,envelope,ratio", comments="")
        assert path.read_bytes() == want.read_bytes()


def test_csv_checks_envelope_before_opening(tmp_path):
    traj = solve(scalar_decay(0.65), SolverConfig(t_end=1.0, h=0.1))
    path = tmp_path / "bad.csv"
    for values in (np.ones(len(traj.grid) - 1), np.ones(1), 1.0):
        with pytest.raises(ValueError, match=f"expected {len(traj.grid)} "
                                             "envelope values, got shape"):
            write_csv(traj, str(path), envelope_values=values)
        assert not path.exists()


def test_format_rows_matches_percent_g():
    # every class of float64 the digit path decides or must hand back
    rng = np.random.default_rng(20240601)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
    short = (rng.integers(-10**8, 10**8, 790_000)
             / 10.0 ** rng.integers(-12, 13, 790_000))
    # m 2^(e-17), m odd, lies in [10^e, 10^(e+1)) with digit 18 an exact 5
    e = rng.integers(-8, 15, 150_000)  # m < 2^53
    lo = np.ceil(5.0**e * 2**17)
    m = lo + np.floor(rng.random(len(e)) * 9 * lo)
    ties = np.ldexp(m + (m % 2 == 0), e - 17)
    tens = [float(f"1e{k}") for k in range(-20, 26)]
    carry = [float(f"9.99999999999999995e{k}") for k in range(-300, 300)]
    near = np.array(tens + carry + [1e-280, 1e280])
    special = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, 1e-12]
    rest = np.concatenate([short, ties, near, np.nextafter(near, 0.0),
                           np.nextafter(near, np.inf), special, np.negative(special)])
    values = rng.permutation(np.concatenate(
        [bits, rest * rng.choice([-1.0, 1.0], len(rest))]))
    assert len(values) >= 1_000_000
    row = ",".join(["%.17g"] * 7) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for part in np.array_split(values[: len(values) // 7 * 7].reshape(-1, 7), 512):
            got = fdde._format_rows(part, 7)
            want = (row * len(part) % tuple(part.ravel().tolist())).encode("ascii")
            if got != want:
                pairs = zip(got.splitlines(), want.splitlines())
                pytest.fail("first differing line: %r != %r"
                            % next((g, w) for g, w in pairs if g != w))
