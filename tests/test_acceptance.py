"""Acceptance gate: ten end-to-end checks with hard tolerances and runtimes.

Each test prints one [PASS]/[FAIL] line so a `pytest -s` run reads as a
checklist. Random draws are seeded; runtime limits are asserted, not
just wished for.
"""

import functools
import time

import numpy as np
import pytest

from halanay.cli import load_config
from halanay.expr import parse
from halanay.fdde import SolverConfig, check_envelope, solve
from halanay.halanay import BOUNDED_GAP, RATIO, envelope, lambda_at
from halanay.lmi import certify_lmi, lmi_block, max_eigen_sym
from halanay.mlf import ml
from halanay.positivity import DelaySystem, certify_positive, initial_amplitude

from conftest import column_sums, on_grid
from oracles import bisect_root, char_poly_max_eig, rk4_dde


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
        return run
    return wrap


@criterion("1: tabulated decay-kernel values")
def test_01_decay_kernel_constants():
    ml(-0.1, 0.5)  # warm up before timing
    t0 = time.perf_counter()
    v1 = ml(-0.05 * 2.0**0.65, 0.65)
    v2 = ml(-0.02, 0.75)
    v3 = ml(-0.075 * 2.0**0.45, 0.45)
    elapsed = time.perf_counter() - t0
    assert v1 == pytest.approx(0.9179, abs=5e-4)
    assert v2 > 0.97
    assert v3 > 0.8
    assert elapsed < 0.1


@criterion("2: sub-semigroup inequality on 10^4 random tuples in < 1 s")
def test_02_sub_semigroup_property():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(10_000):
        al = rng.uniform(0.1, 1.0)
        lam = rng.uniform(0.01, 2.0)
        t, s = rng.uniform(0.0, 5.0, size=2)
        lhs = ml(-lam * t**al, al) * ml(-lam * s**al, al)
        rhs = ml(-lam * (t + s)**al, al)
        worst = max(worst, lhs - rhs)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0


@criterion("3: bundled example 1 certifies RATIO and bounds its simulation")
def test_03_example1_end_to_end(config_dir):
    t0 = time.perf_counter()
    cfg = load_config(str(config_dir / "example1.json"))
    sys_ = cfg.system

    ts = cfg.scan.times()
    a_vals, b_vals = column_sums(sys_, ts)
    assert np.max(np.abs(a_vals - (0.2 + 0.002 * ts))) < 1e-12
    assert np.max(np.abs(b_vals - (0.1 + 0.0015 * ts))) < 1e-12

    verdict, cert = certify_positive(sys_, cfg.scan)
    assert cert.case_tag == RATIO
    assert verdict.a0 == pytest.approx(0.2, rel=1e-12)
    assert verdict.p <= 0.75

    # rate equation residual at the pinned decay exponent stays nonpositive
    ml_q = np.array([ml(-0.075 * q**0.45, 0.45)
                     for q in (2.0 - np.cos(ts)**4)])
    h_vals = 0.075 - a_vals + b_vals / ml_q
    assert np.max(h_vals) <= 0.0

    traj = solve(sys_, SolverConfig(20.0, 1e-2))
    chk = check_envelope(
        traj, "l1", on_grid(lambda t: 1.2 * ml(-0.075 * t**0.45, 0.45), traj),
        0.02,
    )
    elapsed = time.perf_counter() - t0
    assert chk.passed, f"max ratio {chk.max_ratio} at t={chk.first_violation_t}"
    assert elapsed < 60.0


@criterion("4: bundled example 2 certifies BOUNDED_GAP and bounds its simulation")
def test_04_example2_end_to_end(config_dir):
    t0 = time.perf_counter()
    cfg = load_config(str(config_dir / "example2.json"))
    sys_ = cfg.system

    verdict, cert = certify_positive(sys_, cfg.scan)
    assert cert.case_tag == BOUNDED_GAP
    assert verdict.sigma >= 0.1

    ts = cfg.scan.times()
    a_vals, b_vals = column_sums(sys_, ts)
    qs = (1.0 + np.exp(-ts)) / 2.0
    ml_q = np.array([ml(-0.02 * q**0.75, 0.75) for q in qs])
    assert np.max(0.02 - a_vals + b_vals / ml_q) < 0.0

    # amplitude comes from the configured initial data, sampled directly
    assert cert.M == pytest.approx(initial_amplitude(sys_, "l1"), rel=1e-15)

    traj = solve(sys_, SolverConfig(20.0, 1e-2))
    chk = check_envelope(
        traj, "l1", on_grid(lambda t: envelope(cert, 0.75, t), traj), 0.02
    )
    elapsed = time.perf_counter() - t0
    assert chk.passed, f"max ratio {chk.max_ratio} at t={chk.first_violation_t}"
    assert elapsed < 60.0


@criterion("5: bundled example 3 passes the matrix-inequality route")
def test_05_example3_end_to_end(config_dir):
    t0 = time.perf_counter()
    cfg = load_config(str(config_dir / "example3.json"))
    sys_ = cfg.system
    m2 = initial_amplitude(sys_, "sq")
    report, cert = certify_lmi(sys_, cfg.gamma, cfg.sigma, cfg.scan)
    assert cert.M == m2
    assert report.feasible
    assert cert.lambda_star >= 0.05

    # every grid block is negative semidefinite, and the 2x2 trace/det
    # closed form agrees with the assembled block
    for t in cfg.scan.times():
        S = lmi_block(
            [[sys_.A[0][0].eval(t)]], [[sys_.B[0][0].eval(t)]],
            cfg.gamma.eval(t), cfg.sigma.eval(t),
        )
        closed = np.array([
            [-0.1 - 0.004 * t, -0.02 * np.sqrt(t)],
            [-0.02 * np.sqrt(t), -0.2],
        ])
        assert np.max(np.abs(S - closed)) < 1e-12
        det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
        assert det == pytest.approx(0.02 + 0.0004 * t, abs=1e-12)
        assert det > 0.0 and np.trace(S) < 0.0
        assert max_eigen_sym(S) <= 1e-10

    traj = solve(sys_, SolverConfig(20.0, 1e-2))
    chk = check_envelope(
        traj, "l2",
        on_grid(lambda t: np.sqrt(m2) * np.sqrt(ml(-0.05 * t**0.65, 0.65)),
                traj),
        0.02,
    )
    elapsed = time.perf_counter() - t0
    assert chk.passed, f"max ratio {chk.max_ratio} at t={chk.first_violation_t}"
    assert elapsed < 60.0


@criterion("6: rate-equation root matches 200-step bisection on 10^3 tuples")
def test_06_root_solver_oracle():
    rng = np.random.default_rng(97)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        al = rng.uniform(0.1, 1.0)
        a = rng.uniform(0.05, 1.2)
        b = a * rng.uniform(0.0, 0.95)
        q = rng.uniform(0.0, 1.0)
        lam = lambda_at(al, a, [b], [q])
        ref = bisect_root(lambda z: z - a + b / ml(-z * q**al, al), 0.0, a)
        worst = max(worst, abs(lam - ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0


@criterion("7: scalar solver error at t=5 shrinks monotonically, < 1e-4 at finest h")
def test_07_solver_convergence():
    t0 = time.perf_counter()
    for alpha in (0.45, 0.65, 0.75):
        sys_ = DelaySystem(
            alpha=alpha, dim=1,
            A=[[parse("-1", "t")]], B=[[parse("0", "t")]],
            q=parse("0.5", "t"), tau=1.0, phi=[parse("1", "s")],
        )
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = solve(sys_, SolverConfig(5.0, h))
            exact = ml(-traj.grid[-1]**alpha, alpha)
            errs.append(abs(float(traj.states[-1, 0]) - exact))
        assert errs[0] > errs[1] > errs[2], (alpha, errs)
        assert errs[2] < 1e-4, (alpha, errs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


@criterion("8: order-one limit matches an independent RK4 method-of-steps run")
def test_08_classical_reduction():
    T = lambda src: parse(src, "t")
    sys_ = DelaySystem(
        alpha=1.0, dim=2,
        A=[[T("-1-0.1*sin(t)"), T("0.3")], [T("0.2"), T("-1.5")]],
        B=[[T("0.2"), T("0")], [T("0.1"), T("0.15+0.05*cos(t)")]],
        q=T("0.5+0.25*sin(t)"), tau=1.0,
        phi=[parse("1+0.5*s", "s"), parse("0.5-0.2*s", "s")],
    )
    t0 = time.perf_counter()
    traj = solve(sys_, SolverConfig(5.0, 1e-3))
    ts, xs = rk4_dde(sys_, 5.0, 1e-3)
    elapsed = time.perf_counter() - t0
    assert traj.grid[-1] == pytest.approx(ts[-1], abs=1e-12)
    assert np.max(np.abs(traj.states[-1] - xs[-1])) < 1e-5
    assert elapsed < 30.0


@criterion("9: random cooperative systems stay nonnegative and order-preserving")
def test_09_positivity_and_ordering():
    rng = np.random.default_rng(3)
    tolerance = 0.02
    t0 = time.perf_counter()
    for _ in range(20):
        d = int(rng.integers(1, 5))
        A = -np.diag(rng.uniform(0.5, 2.0, size=d))
        A += 0.3 * rng.uniform(0.0, 1.0, size=(d, d)) * (1 - np.eye(d))
        B = 0.3 * rng.uniform(0.0, 1.0, size=(d, d))
        qv = float(rng.uniform(0.0, 1.0))
        c = rng.uniform(0.0, 1.0, size=d)
        slope = rng.uniform(0.0, 1.0, size=d)
        bump = rng.uniform(0.0, 0.5, size=d)
        alpha = float(rng.uniform(0.3, 1.0))

        def make(consts):
            return DelaySystem(
                alpha=alpha, dim=d,
                A=[[parse(repr(float(A[i, j])), "t") for j in range(d)]
                   for i in range(d)],
                B=[[parse(repr(float(B[i, j])), "t") for j in range(d)]
                   for i in range(d)],
                q=parse(repr(qv), "t"), tau=1.0,
                phi=[parse(f"{float(consts[i])!r}+{float(slope[i])!r}*(s+1)", "s")
                     for i in range(d)],
            )

        lo = solve(make(c), SolverConfig(2.0, 0.01))
        hi = solve(make(c + bump), SolverConfig(2.0, 0.01))
        assert float(lo.states.min()) >= -10.0 * tolerance
        assert float((hi.states - lo.states).min()) >= -10.0 * tolerance
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0


@criterion("10: symmetric eigen solver matches the characteristic-polynomial oracle")
def test_10_eigen_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        X = rng.normal(size=(n, n))
        S = 0.5 * (X + X.T)
        worst = max(worst, abs(max_eigen_sym(S) - char_poly_max_eig(S)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
