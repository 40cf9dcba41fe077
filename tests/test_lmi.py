from dataclasses import asdict, fields

import numpy as np
import pytest

from halanay.errors import InfeasiblePointError
from halanay.expr import parse
from halanay.halanay import (
    RATIO, ConditionVerdict, ScanGrid, classify_conditions, lambda_at,
)
from halanay.lmi import (
    EIGEN_TOL, LmiReport, certify_lmi, lmi_block, max_eigen_sym,
)
from halanay.positivity import DelaySystem, initial_amplitude

from oracles import char_poly_max_eig


def T(src):
    return parse(src, "t")


def S(src):
    return parse(src, "s")


def mat(rows):
    return [[T(e) for e in row] for row in rows]


def example3_system():
    return DelaySystem(
        alpha=0.65, dim=1, A=mat([["-0.2-0.002*t"]]), B=mat([["-0.02*sqrt(t)"]]),
        q=T("1+1/(2+sin(t))"), tau=2.0, phi=[S("0.3-0.5*cos(2*s)")],
    )


GRID3 = ScanGrid(100.0, 2001)


def example3_args():
    """(sys, gamma, sigma, grid) of the paper's example 3."""
    return example3_system(), T("0.3"), T("0.2"), GRID3


def example3_block(t):
    return np.array([
        [-0.1 - 0.004 * t, -0.02 * np.sqrt(t)],
        [-0.02 * np.sqrt(t), -0.2],
    ])


# ---------------------------------------------------------------- lmi_block

def test_block_anchors():
    got = lmi_block(np.array([[-0.2]]), np.array([[0.0]]), 0.3, 0.2)
    np.testing.assert_allclose(got, [[-0.1, 0.0], [0.0, -0.2]], atol=1e-15)

    z = np.zeros((2, 2))
    np.testing.assert_array_equal(lmi_block(z, z, 0.0, 0.0), np.zeros((4, 4)))

    got = lmi_block(np.array([[0.0]]), np.array([[1.0]]), 0.0, 0.0)
    np.testing.assert_array_equal(got, [[0.0, 1.0], [1.0, 0.0]])


def test_block_matches_delay_example_closed_form():
    for t in (0.0, 1.0, 10.0, 100.0):
        got = lmi_block(
            np.array([[-0.2 - 0.002 * t]]),
            np.array([[-0.02 * np.sqrt(t)]]),
            0.3, 0.2,
        )
        np.testing.assert_allclose(got, example3_block(t), atol=1e-15)


def test_block_is_exactly_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        S_ = lmi_block(A, B, 0.4, 0.7)
        assert S_.shape == (2 * d, 2 * d)
        np.testing.assert_array_equal(S_, S_.T)


def test_block_dimension_mismatch():
    with pytest.raises(ValueError):
        lmi_block(np.zeros((2, 2)), np.zeros((3, 3)), 0.0, 0.0)
    with pytest.raises(ValueError):
        lmi_block(np.zeros((2, 3)), np.zeros((2, 3)), 0.0, 0.0)
    with pytest.raises(ValueError):  # not a whole number of 2 x 2 blocks
        lmi_block(np.zeros((2, 2)), np.zeros((2, 5)), 0.0, 0.0)


def test_block_on_a_block_row():
    # d = 2, K = 3: [[A^T+A+gamma I, B_1 B_2 B_3], [B^T, -sigma I_6]]
    rng = np.random.default_rng(17)
    A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 6))
    S_ = lmi_block(A, B, 0.4, 0.7)
    assert S_.shape == (8, 8)
    np.testing.assert_array_equal(S_, S_.T)
    np.testing.assert_array_equal(S_[2:, 2:], -0.7 * np.eye(6))
    np.testing.assert_array_equal(S_[:2, 2:], B)
    np.testing.assert_array_equal(S_[:2, :2], A.T + A + 0.4 * np.eye(2))


# ------------------------------------------------------------ max_eigen_sym

def test_eigen_anchors():
    assert max_eigen_sym(np.diag([-0.1, -0.2])) == pytest.approx(-0.1, abs=1e-12)
    assert max_eigen_sym(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
        1.0, abs=1e-12
    )
    assert max_eigen_sym(np.array([[3.5]])) == 3.5


def test_eigen_rejects_asymmetry():
    bad = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(ValueError):
        max_eigen_sym(bad)
    # asymmetry scales with the matrix norm, not absolutely
    big = np.array([[0.0, 1e6], [1e6 + 1e-8, 0.0]])
    assert max_eigen_sym(big) == pytest.approx(1e6, rel=1e-12)


def test_eigen_matches_characteristic_polynomial_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2, 2)
        s = (m + m.T) / 2.0
        want = char_poly_max_eig(s)
        tol = max(1e-8, 1e-10 * (1.0 + float(np.abs(s).max())))
        assert max_eigen_sym(s) == pytest.approx(want, abs=tol)


def test_eigen_on_a_stack_matches_each_block():
    rng = np.random.default_rng(29)
    for n in (1, 2, 5):
        m = rng.normal(size=(40, n, n))
        stack = m + np.swapaxes(m, 1, 2)
        got = max_eigen_sym(stack)
        assert got.shape == (40,)
        want = [max_eigen_sym(blk) for blk in stack]
        np.testing.assert_array_equal(got, want)
        for blk, val in zip(stack, got):
            assert val == pytest.approx(char_poly_max_eig(blk), abs=1e-8)
    bad = np.zeros((3, 2, 2))
    bad[1, 0, 1] = 1e-6  # one asymmetric block spoils the stack
    with pytest.raises(ValueError):
        max_eigen_sym(bad)


def test_block_stack_matches_single_blocks():
    rng = np.random.default_rng(37)
    A = rng.normal(size=(6, 3, 3))
    B = rng.normal(size=(6, 3, 3))
    g, s = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
    stack = lmi_block(A, B, g, s)
    assert stack.shape == (6, 6, 6)
    for k in range(6):
        np.testing.assert_array_equal(stack[k], lmi_block(A[k], B[k], g[k], s[k]))


def test_eigen_accuracy_contract_on_graded_scales():
    for scale in (1e-6, 1.0, 1e6):
        s = scale * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        want = scale * (2.0 + np.sqrt(2.0))
        assert abs(max_eigen_sym(s) - want) <= 1e-10 * (1.0 + abs(s).max())


# -------------------------------------------------------------- certify_lmi

def test_certify_delay_example_feasible():
    args = example3_args()
    rep, cert = certify_lmi(*args)
    assert isinstance(rep, LmiReport)
    assert rep.feasible
    assert rep.worst_eigen <= EIGEN_TOL
    assert rep.a0 == pytest.approx(0.3, abs=1e-12)
    assert rep.p == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert cert is not None
    assert cert.lambda_star >= 0.05
    assert cert.w0 == 0.0
    # sup of phi^2 over [-2, 0]: the cosine reaches -1 inside the window
    assert cert.M == pytest.approx(0.64, abs=1e-6)
    assert cert.M == initial_amplitude(args[0], "sq")
    # rate agrees with a direct scalar solve at the grid argmin
    t = cert.grid_argmin
    lam = lambda_at(0.65, 0.3, [0.2], [args[0].q[0].eval(t)])
    assert cert.lambda_star == pytest.approx(lam, rel=1e-12)


def test_each_coefficient_is_evaluated_once_per_certify(eval_counts):
    sys_, gamma, sigma, grid = example3_args()
    rep, _ = certify_lmi(sys_, gamma, sigma, grid)
    assert rep.feasible
    exprs = [sys_.A[0][0], sys_.B[0][0], *sys_.q, gamma, sigma, *sys_.phi]
    assert sorted(eval_counts) == sorted(id(e) for e in exprs)
    assert set(eval_counts.values()) == {1}


def test_each_coefficient_is_evaluated_once_with_two_delays(eval_counts):
    # the block row [B_1 B_2] is sampled once, as is each delay
    one, gamma, _, grid = example3_args()
    two = DelaySystem(alpha=0.65, dim=1, A=one.A, B=mat([["-0.01", "0.01*cos(t)"]]),
                      q=(T("1"), T("0.5+0.3*sin(t)^2")), tau=2.0, phi=one.phi)
    sigma = T("0.1")
    rep, _ = certify_lmi(two, gamma, sigma, grid)
    assert rep.feasible
    exprs = [two.A[0][0], *two.B[0], *two.q, gamma, sigma, *two.phi]
    assert sorted(eval_counts) == sorted(id(e) for e in exprs)
    assert set(eval_counts.values()) == {1}


def test_split_delay_reduces_to_the_one_delay_problem():
    # B split in halves over the same delay twice, each half weighed by
    # sigma/2, is the one-delay scalar problem exactly: x + x = 2x in floats
    one, gamma, _, grid = example3_args()
    two = DelaySystem(
        alpha=0.65, dim=1, A=one.A, B=mat([["(-0.02*sqrt(t))/2"] * 2]),
        q=(T("1+1/(2+sin(t))"), T("1+1/(2+sin(t))")), tau=2.0, phi=one.phi,
    )
    rep1, cert1 = certify_lmi(one, gamma, T("0.2"), grid)
    rep2, cert2 = certify_lmi(two, gamma, T("0.1"), grid)
    assert rep1.feasible and rep2.feasible
    assert cert2 == cert1
    assert cert1.lambda_star == pytest.approx(0.0734085080339, rel=1e-9)
    scan = {"worst_eigen", "worst_t"}
    assert ({k: v for k, v in asdict(rep2).items() if k not in scan}
            == {k: v for k, v in asdict(rep1).items() if k not in scan})


def test_certify_trace_det_cross_check():
    # 2x2 negative semidefinite <=> trace <= 0 and det >= 0
    for t in (0.0, 1.0, 10.0, 100.0):
        blk = example3_block(t)
        assert np.trace(blk) < 0.0
        det = float(np.linalg.det(blk))
        assert det == pytest.approx(0.02 + 0.0004 * t, abs=1e-12)
        assert det > 0.0
        assert max_eigen_sym(blk) <= 0.0


def test_quadratic_form_never_exceeds_tolerance_when_feasible():
    rep, _ = certify_lmi(*example3_args())
    assert rep.feasible
    rng = np.random.default_rng(41)
    ts = GRID3.times()
    for t in ts[:: 200]:
        blk = example3_block(float(t))
        for _ in range(50):
            z = rng.normal(size=2)
            quad = float(z @ blk @ z)
            assert quad <= EIGEN_TOL * float(z @ z)


def test_undelayed_negative_definite_block_gives_rate_a0():
    sys_ = DelaySystem(
        alpha=0.5, dim=2,
        A=mat([["-1", "0.2"], ["0.2", "-1"]]),
        B=mat([["0", "0"], ["0", "0"]]),
        q=T("0.5"), tau=1.0, phi=[S("1"), S("1")],
    )
    # A^T + A + gamma I = [[-1.6, 0.4], [0.4, -1.6]], eigenvalues -2.0, -1.2
    rep, cert = certify_lmi(sys_, T("0.4"), T("0"), ScanGrid(10.0, 51))
    assert rep.feasible
    assert rep.p == 0.0
    # the -sigma I corner is identically zero, so zero tops the spectrum
    assert rep.worst_eigen == pytest.approx(0.0, abs=1e-12)
    assert cert.lambda_star == pytest.approx(0.4, abs=1e-12)


def test_zero_gamma_is_infeasible():
    sys_ = DelaySystem(
        alpha=0.5, dim=1, A=mat([["-1"]]), B=mat([["0"]]),
        q=T("0.5"), tau=1.0, phi=[S("1")],
    )
    rep, cert = certify_lmi(sys_, T("0"), T("0"), ScanGrid(10.0, 51))
    assert not rep.feasible
    assert cert is None
    assert rep.a0 == 0.0


def test_indefinite_block_reports_worst_point():
    sys_ = DelaySystem(
        alpha=0.5, dim=1, A=mat([["-0.1"]]), B=mat([["0.05"]]),
        q=T("0.5"), tau=1.0, phi=[S("1")],
    )
    # gamma too large: -0.2 + gamma > 0 from some grid point on
    rep, cert = certify_lmi(sys_, T("0.1+0.01*t"), T("0.05"),
                            ScanGrid(20.0, 201))
    assert not rep.feasible
    assert cert is None
    assert rep.worst_eigen > EIGEN_TOL
    blk = lmi_block(
        np.array([[-0.1]]), np.array([[0.05]]),
        0.1 + 0.01 * rep.worst_t, 0.05,
    )
    assert max_eigen_sym(blk) == pytest.approx(rep.worst_eigen, abs=1e-12)


def test_verdict_is_the_scalar_verdict_on_gamma_and_sigma():
    # the blocks fail here, yet the scalar conditions on gamma and sigma
    # hold: the tag says so and feasible is what withholds the certificate
    sys_ = DelaySystem(
        alpha=0.5, dim=1, A=mat([["-0.1"]]), B=mat([["0.05"]]),
        q=T("0.5"), tau=1.0, phi=[S("1")],
    )
    grid = ScanGrid(20.0, 201)
    rep, cert = certify_lmi(sys_, T("0.1+0.01*t"), T("0.05"), grid)
    assert isinstance(rep, ConditionVerdict)
    assert not rep.feasible and cert is None
    assert rep.case_tag == RATIO
    ts = grid.times()
    want = classify_conditions(
        0.1 + 0.01 * ts, np.full((1, len(ts)), 0.05),
        np.full((1, len(ts)), 0.5), np.zeros_like(ts))
    assert ConditionVerdict(
        *(getattr(rep, f.name) for f in fields(ConditionVerdict))) == want


def test_negative_weights_are_input_errors():
    sys_ = DelaySystem(
        alpha=0.5, dim=1, A=mat([["-1"]]), B=mat([["0"]]),
        q=T("0.5"), tau=1.0, phi=[S("1")],
    )
    with pytest.raises(InfeasiblePointError):
        certify_lmi(sys_, T("1-t"), T("0"), ScanGrid(10.0, 51))
