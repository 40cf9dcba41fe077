import tracemalloc

import numpy as np
import pytest

from halanay.errors import ExprEvalError, StructureError
from halanay.expr import parse
from halanay.fdde import SolverConfig, solve
from halanay.halanay import (
    BOUNDED_GAP, NONE, RATIO, ScanGrid, certify, lambda_at,
)
from halanay.positivity import (
    DelaySystem,
    certify_positive,
    initial_amplitude,
)

from conftest import column_sums


def T(src):
    return parse(src, "t")


def S(src):
    return parse(src, "s")


def mat(rows):
    return [[T(e) for e in row] for row in rows]


def example1_system():
    return DelaySystem(
        alpha=0.45, dim=3,
        A=mat([
            ["-0.7-1/sqrt(1+t)-0.005*t", "1-1/sqrt(1+t)", "0.3+0.2*sin(t)"],
            ["0.1+0.003*t", "-3-0.8/(1+t)-0.003*t", "0.15+0.001*t"],
            ["0.4+1/sqrt(1+t)", "1+0.8/(1+t)+0.001*t", "-1-0.004*t"],
        ]),
        B=mat([
            ["0.002*t^2*sin(t)^2/(1+t^2)", "0.0015*t", "0"],
            ["0.0005*t", "0.05+0.1/(2+t)", "0.001*t"],
            ["0.1", "0.05-0.1/(2+t)", "0.12/(3+t)"],
        ]),
        q=T("2-cos(t)^4"), tau=2.0,
        phi=[S("0.2-0.4*cos(s)"), S("0.1+0.1*s"), S("log(s+3)-0.5")],
    )


def example2_system():
    return DelaySystem(
        alpha=0.75, dim=2,
        A=mat([
            ["-3-1/sqrt(1+t)", "5-1/sqrt(1+t)"],
            ["0.2+1/(1+t)", "-6.6-0.2/sqrt(1+t)"],
        ]),
        B=mat([
            ["t*sin(t)^2/(1+t^2)", "1.15+0.1/(2+t)"],
            ["1.5", "0.1+0.2/(2+t)"],
        ]),
        q=T("(1+exp(-t))/2"), tau=1.0,
        phi=[S("0.3+0.4*sin(s)"), S("0.1+0.5*s")],
    )


GRID = ScanGrid(100.0, 2001)


# ------------------------------------------------------- structure checks

def structure_error(sys_):
    """The StructureError message certify_positive raises for sys_."""
    with pytest.raises(StructureError) as exc:
        certify_positive(sys_, GRID)
    return str(exc.value)


def test_structure_of_bundled_examples():
    # a structure violation raises, so a verdict means the structure holds
    for sys_, tag in ((example1_system(), RATIO), (example2_system(), BOUNDED_GAP)):
        verdict, _ = certify_positive(sys_, GRID)
        assert verdict.case_tag == tag


def test_identity_matrix_is_metzler():
    sys_ = DelaySystem(
        alpha=0.5, dim=2, A=mat([["1", "0"], ["0", "1"]]),
        B=mat([["0", "0"], ["0", "0"]]), q=T("0.5"), tau=1.0,
        phi=[S("1"), S("1")],
    )
    # growing, so no certificate, but the structure holds
    verdict, cert = certify_positive(sys_, GRID)
    assert verdict.case_tag == NONE
    assert cert is None


def test_negative_delay_matrix_entry_fails():
    sys_ = DelaySystem(
        alpha=0.65, dim=1, A=mat([["-0.2-0.002*t"]]), B=mat([["-0.02*sqrt(t)"]]),
        q=T("1.5"), tau=2.0, phi=[S("0.3-0.5*cos(2*s)")],
    )
    assert structure_error(sys_) == "B has a negative entry on the grid"


def test_negative_off_diagonal_fails():
    sys_ = DelaySystem(
        alpha=0.5, dim=2, A=mat([["-1", "-0.1"], ["0", "-1"]]),
        B=mat([["0", "0"], ["0", "0"]]), q=T("0.5"), tau=1.0,
        phi=[S("1"), S("1")],
    )
    assert structure_error(sys_) == (
        "A has a negative off-diagonal entry on the grid")


# ------------------------------------------------------------- column sums

def test_column_sums_match_closed_forms():
    ts = GRID.times()
    for sys_, a_want, b_want in (
        (example1_system(), 0.2 + 0.002 * ts, 0.1 + 0.0015 * ts),
        (example2_system(), 1.6 + 1.2 / np.sqrt(1 + ts),
         1.5 + ts * np.sin(ts) ** 2 / (1 + ts**2)),
    ):
        a_fun, b_fun = column_sums(sys_, ts)
        np.testing.assert_allclose(a_fun, a_want, atol=1e-12)
        np.testing.assert_allclose(b_fun[0], b_want, atol=1e-12)
        # the verdict's margins are those of the same column sums
        verdict, _ = certify_positive(sys_, GRID)
        assert verdict.a0 == float(np.min(a_fun))
        assert verdict.p == float(np.max(b_fun / a_fun))
        assert verdict.sigma == float(np.min(a_fun - b_fun))


def test_column_sums_trivial_diagonal():
    sys_ = DelaySystem(
        alpha=0.5, dim=2, A=mat([["-1", "0"], ["0", "-1"]]),
        B=mat([["0", "0"], ["0", "0"]]), q=T("0.5"), tau=1.0,
        phi=[S("1"), S("1")],
    )
    grid = ScanGrid(10.0, 11)
    a_fun, b_fun = column_sums(sys_, grid.times())
    assert np.all(a_fun == 1.0)
    assert np.all(b_fun == 0.0)
    verdict, cert = certify_positive(sys_, grid)
    assert (verdict.a0, verdict.p, verdict.sigma) == (1.0, 0.0, 1.0)
    assert cert.lambda_star == 1.0


def test_column_sums_brute_force_on_random_constant_matrices():
    rng = np.random.default_rng(31)
    grid = ScanGrid(5.0, 7)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        A = rng.uniform(-2, 2, (d, d))
        B = rng.uniform(-2, 2, (d, d))
        sys_ = DelaySystem(
            alpha=0.5, dim=d,
            A=[[T(repr(float(A[i, j]))) for j in range(d)] for i in range(d)],
            B=[[T(repr(float(B[i, j]))) for j in range(d)] for i in range(d)],
            q=T("0.5"), tau=1.0, phi=[S("1")] * d,
        )
        a_fun, b_fun = column_sums(sys_, grid.times())
        want_a = -max(A[:, j].sum() for j in range(d))
        want_b = max(B[:, j].sum() for j in range(d))
        assert np.all(a_fun == a_fun[0])
        assert a_fun[0] == pytest.approx(want_a, abs=1e-12)
        assert b_fun[0, 0] == pytest.approx(want_b, abs=1e-12)
        # the same matrices with the order-preserving signs, through
        # certify_positive's own column sums
        off = ~np.eye(d, dtype=bool)
        A[off], B = np.abs(A[off]), np.abs(B)
        sys_ = DelaySystem(
            alpha=0.5, dim=d,
            A=[[T(repr(float(A[i, j]))) for j in range(d)] for i in range(d)],
            B=[[T(repr(float(B[i, j]))) for j in range(d)] for i in range(d)],
            q=T("0.5"), tau=1.0, phi=[S("1")] * d,
        )
        want_a = -max(A[:, j].sum() for j in range(d))
        want_b = max(B[:, j].sum() for j in range(d))
        verdict, _ = certify_positive(sys_, grid)
        assert verdict.a0 == pytest.approx(want_a, abs=1e-12)
        assert verdict.sigma == pytest.approx(want_a - want_b, abs=1e-12)


# -------------------------------------------------------- initial_amplitude

def test_initial_amplitude_against_direct_sampling():
    sys_ = example1_system()
    ss = np.linspace(-2.0, 0.0, 10_000)
    direct = np.abs(0.2 - 0.4 * np.cos(ss))
    direct += np.abs(0.1 + 0.1 * ss)
    direct += np.abs(np.log(ss + 3) - 0.5)
    assert initial_amplitude(sys_, "l1") == pytest.approx(
        float(direct.max()), abs=1e-12
    )
    sys3 = DelaySystem(
        alpha=0.65, dim=1, A=mat([["-0.2"]]), B=mat([["0"]]),
        q=T("1.5"), tau=2.0, phi=[S("0.3-0.5*cos(2*s)")],
    )
    sq = (0.3 - 0.5 * np.cos(2 * ss)) ** 2
    assert initial_amplitude(sys3, "sq") == pytest.approx(float(sq.max()), abs=1e-12)


def history(phi, tau=2.0):
    """A system that only carries the history phi (source strings in s)."""
    zero = mat([["0"] * len(phi)] * len(phi))
    return DelaySystem(alpha=0.5, dim=len(phi), A=zero, B=zero, q=T("1"),
                       tau=tau, phi=[S(p) for p in phi])


def test_initial_amplitude_equals_the_stacked_sum_bit_for_bit():
    # the components are folded one at a time, in the order a stacked
    # axis-0 sum adds its rows, so the sup is the same float
    rng = np.random.default_rng(20241012)
    for d in range(1, 9):
        for _ in range(6):
            phi = ["s", f"{float(rng.normal())!r}"]
            for _ in range(d - 2):
                c0, c1, c2 = (float(x) for x in rng.normal(size=3))
                phi.append(f"{c0!r}+({c1!r})*sin(({c2!r})*s)")
            sys_ = history([phi[k] for k in rng.permutation(len(phi))[:d]],
                           tau=float(rng.uniform(0.1, 5.0)))
            ss = np.linspace(-sys_.tau, 0.0, 10_000)
            vals = np.vstack([p.eval_array(ss) for p in sys_.phi])
            assert initial_amplitude(sys_, "l1") == np.max(np.abs(vals).sum(axis=0))
            assert initial_amplitude(sys_, "sq") == np.max((vals * vals).sum(axis=0))


@pytest.mark.parametrize("kind", ["l1", "sq"])
def test_initial_amplitude_memory_does_not_grow_with_dim(kind):
    def peak(d):
        sys_ = history(["0.3+0.4*sin(s)"] * d)
        initial_amplitude(sys_, kind)  # warm
        tracemalloc.start()
        try:
            initial_amplitude(sys_, kind)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # at most one more 10,000-sample float array at d = 8 than at d = 4
    assert peak(8) - peak(4) <= 10_000 * 8


def test_initial_amplitude_checks_kind_before_sampling():
    sys_ = history(["log(s)"])  # not finite on [-tau, 0]
    with pytest.raises(ExprEvalError):
        initial_amplitude(sys_, "l1")
    with pytest.raises(ValueError, match="kind must be"):
        initial_amplitude(sys_, "l2")


# --------------------------------------------------------- certify_positive

def test_certify_ratio_route_end_to_end():
    sys_ = example1_system()
    verdict, cert = certify_positive(sys_, GRID)
    assert verdict.case_tag == RATIO  # a(t) grows, so the gap route is off
    assert verdict.a0 == pytest.approx(0.2, abs=1e-12)
    assert verdict.p == pytest.approx(0.625, abs=1e-12)
    assert cert is not None
    assert cert.case_tag == RATIO
    assert cert.lambda_star >= 0.075
    assert cert.w0 == 0.0
    assert cert.M == pytest.approx(initial_amplitude(sys_, "l1"), rel=1e-15)
    # published amplitude for this system rounds the sampled sup upward
    assert cert.M <= 1.2


def test_certify_gap_route_end_to_end():
    sys_ = example2_system()
    verdict, cert = certify_positive(sys_, GRID)
    assert verdict.case_tag == BOUNDED_GAP
    assert verdict.sigma >= 0.1
    assert cert.case_tag == BOUNDED_GAP
    assert cert.lambda_star >= 0.02
    assert cert.w0 == 0.0


def test_certify_decoupled_identity_decay():
    d = 3
    sys_ = DelaySystem(
        alpha=0.6, dim=d,
        A=[[T("-1" if i == j else "0") for j in range(d)] for i in range(d)],
        B=[[T("0")] * d for _ in range(d)],
        q=T("0.5"), tau=1.0, phi=[S("1")] * d,
    )
    verdict, cert = certify_positive(sys_, ScanGrid(10.0, 101))
    assert cert.lambda_star == pytest.approx(1.0, abs=1e-12)
    assert cert.M == pytest.approx(float(d), abs=1e-12)


def test_certificate_consistency_with_rate_precondition():
    sys_ = example1_system()
    verdict, cert = certify_positive(sys_, GRID)
    ts = GRID.times()
    a_fun, b_fun = column_sums(sys_, ts)
    assert np.all(a_fun > b_fun)
    for i in range(0, len(ts), 500):
        q = sys_.q[0].eval(float(ts[i]))
        lam = lambda_at(sys_.alpha, float(a_fun[i]), b_fun[:, i], [q])
        assert cert.lambda_star <= lam + 1e-12


def test_structure_failure_raises():
    sys_ = DelaySystem(
        alpha=0.65, dim=1, A=mat([["-0.2-0.002*t"]]), B=mat([["-0.02*sqrt(t)"]]),
        q=T("1.5"), tau=2.0, phi=[S("0.3-0.5*cos(2*s)")],
    )
    with pytest.raises(StructureError) as exc:
        certify_positive(sys_, GRID)
    assert "B" in str(exc.value)


def test_none_verdict_returns_diagnostics_without_raising():
    # feedback dominates damping: neither column-sum route applies
    sys_ = DelaySystem(
        alpha=0.5, dim=1, A=mat([["-0.3"]]), B=mat([["0.4"]]),
        q=T("0.5"), tau=1.0, phi=[S("1")],
    )
    verdict, cert = certify_positive(sys_, ScanGrid(10.0, 101))
    assert cert is None
    assert verdict.case_tag == NONE
    assert verdict.sigma == pytest.approx(-0.1, abs=1e-12)


def test_each_entry_is_evaluated_once_per_certify(eval_counts):
    sys_ = example1_system()
    verdict, cert = certify_positive(sys_, GRID)
    assert cert is not None
    exprs = [e for row in sys_.A + sys_.B for e in row] + list(sys_.q) + sys_.phi
    assert sorted(eval_counts) == sorted(id(e) for e in exprs)
    assert set(eval_counts.values()) == {1}


def test_each_entry_is_evaluated_once_per_solve(eval_counts):
    sys_ = example1_system()
    solve(sys_, SolverConfig(t_end=2.0, h=0.01))
    coeffs = [id(e) for row in sys_.A + sys_.B for e in row] + list(map(id, sys_.q))
    assert {c: eval_counts.get(c) for c in coeffs} == dict.fromkeys(coeffs, 1)


def test_sample_shapes_its_stacks():
    # A (d, d, n), B (d, K*d, n) and the delays (K, n), each entry in place
    two = DelaySystem(alpha=0.5, dim=2, A=mat([["-1", "t"], ["2*t", "-3"]]),
                      B=mat([["0.1", "0", "0.2", "0"], ["0", "0.1", "0", "t"]]),
                      q=(T("0.5"), T("1-t/4")), tau=1.0, phi=[S("1"), S("s")])
    ts = np.array([0.0, 1.0, 2.0])
    A, B, Q = two.sample(ts)
    assert (A.shape, B.shape, Q.shape) == ((2, 2, 3), (2, 4, 3), (2, 3))
    assert A[1, 0].tolist() == [0.0, 2.0, 4.0]
    assert B[1, 3].tolist() == ts.tolist()
    assert Q.tolist() == [[0.5] * 3, [1.0, 0.75, 0.5]]


def test_unstable_system_returns_none_verdict():
    # a column sum of A is positive, so a(t) < 0: a diagnosis, not an error
    sys_ = DelaySystem(
        alpha=0.5, dim=1, A=mat([["0.1"]]), B=mat([["0.05"]]),
        q=T("0.5"), tau=1.0, phi=[S("1")],
    )
    verdict, cert = certify_positive(sys_, ScanGrid(10.0, 101))
    assert cert is None
    assert verdict.case_tag == NONE
    assert verdict.a0 == pytest.approx(-0.1, abs=1e-12)


@pytest.mark.parametrize("a_bounded", [None, True, False])
def test_certify_positive_is_certify_on_the_column_sums(a_bounded):
    # the route adds nothing to the scalar problem's verdict or certificate
    growing = DelaySystem(
        alpha=0.5, dim=1, A=mat([["0.1"]]), B=mat([["0.05"]]),
        q=T("0.5"), tau=1.0, phi=[S("1")],
    )
    # two delays: B is the block row [B_1 B_2], one column-sum row each
    two_delays = DelaySystem(
        alpha=0.6, dim=2,
        A=mat([["-2-0.5*sin(t)", "0.3"], ["0.2+0.1*cos(t)", "-2.5"]]),
        B=mat([["0.2", "0.1*sin(t)^2", "0.05", "0"],
               ["0.1", "0.3", "0.1/(1+t)", "0.2"]]),
        q=(T("0.5+0.25*sin(t)"), T("1")), tau=1.0,
        phi=[S("1"), S("0.5*cos(s)")],
    )
    for sys_ in (example1_system(), example2_system(), growing, two_delays):
        ts = GRID.times()
        a_fun, b_fun = column_sums(sys_, ts)
        assert b_fun.shape == (len(sys_.q), len(ts))
        want = certify(sys_.alpha, sys_.tau, ts, a_fun, b_fun,
                       np.vstack([q.eval_array(ts) for q in sys_.q]),
                       np.zeros_like(ts), initial_amplitude(sys_, "l1"),
                       a_bounded=a_bounded)
        assert certify_positive(sys_, GRID, a_bounded=a_bounded) == want
    assert want[1] is not None


def test_user_boundedness_flag_switches_route():
    sys_ = example1_system()
    verdict, cert = certify_positive(sys_, GRID, a_bounded=True)
    assert verdict.case_tag == BOUNDED_GAP
    assert cert.case_tag == BOUNDED_GAP


# -------------------------------------------------------------- validation

def test_system_validation():
    with pytest.raises(ValueError):
        DelaySystem(
            alpha=1.5, dim=1, A=mat([["-1"]]), B=mat([["0"]]),
            q=T("0.5"), tau=1.0, phi=[S("1")],
        )
    with pytest.raises(ValueError):
        DelaySystem(
            alpha=0.5, dim=2, A=mat([["-1"]]), B=mat([["0"]]),
            q=T("0.5"), tau=1.0, phi=[S("1"), S("1")],
        )
    with pytest.raises(ValueError):
        DelaySystem(
            alpha=0.5, dim=1, A=mat([["-1"]]), B=mat([["0"]]),
            q=T("0.5"), tau=0.0, phi=[S("1")],
        )
    with pytest.raises(ValueError):
        DelaySystem(
            alpha=0.5, dim=1, A=mat([["-1"]]), B=mat([["0"]]),
            q=T("0.5"), tau=1.0, phi=[S("1"), S("2")],
        )
