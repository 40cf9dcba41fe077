import math
import operator
import pickle
import random
import sys

import numpy as np
import pytest

from halanay.errors import ExprEvalError, ExprSyntaxError
from halanay.expr import parse


def test_bundled_coefficient_expressions():
    assert parse("2-cos(t)^4", "t").eval(0.0) == pytest.approx(1.0, abs=1e-15)
    assert parse("(1+exp(-t))/2", "t").eval(0.0) == pytest.approx(1.0, abs=1e-15)
    assert parse("0.2+0.002*t", "t").eval(100.0) == pytest.approx(0.4, abs=1e-15)
    assert parse("1+1/(2+sin(t))", "t").eval(0.0) == pytest.approx(1.5, abs=1e-15)
    want = math.log(3.0) - 0.5
    assert parse("log(s+3)-0.5", "s").eval(0.0) == pytest.approx(want, abs=1e-15)
    assert parse("-0.02*sqrt(t)", "t").eval(4.0) == pytest.approx(-0.04, abs=1e-15)


def test_precedence_and_associativity():
    assert parse("2+3*4^2", "t").eval(0.0) == 50.0
    assert parse("-t^2", "t").eval(3.0) == -9.0          # unary binds looser than ^
    assert parse("2^3^2", "t").eval(0.0) == 512.0        # right-associative
    assert parse("2^-1", "t").eval(0.0) == 0.5           # signed exponent
    assert parse("6-2-1", "t").eval(0.0) == 3.0          # left-assoc subtraction
    assert parse("12/3/2", "t").eval(0.0) == 2.0
    assert parse("2^-t", "t").eval(3.0) == 0.125
    assert parse("1-(2-3)", "t").eval(0.0) == 2.0
    assert parse("8/(4/2)", "t").eval(0.0) == 4.0
    assert parse("2*t+1", "t").eval(5.0) == 11.0


def test_whitespace_insensitive():
    a = parse("1 +  2*t ^ 2", "t")
    b = parse("1+2*t^2", "t")
    for v in (-1.5, 0.0, 3.25):
        assert a.eval(v) == b.eval(v)


def test_function_whitelist():
    assert parse("abs(t)", "t").eval(-3.0) == 3.0
    assert parse("tan(t)", "t").eval(0.25) == pytest.approx(math.tan(0.25))
    with pytest.raises(ExprSyntaxError):
        parse("sinh(t)", "t")
    with pytest.raises(ExprSyntaxError):
        parse("foo(1)", "t")


def test_variable_name_is_enforced():
    assert parse("s*2", "s").eval(3.0) == 6.0
    with pytest.raises(ExprSyntaxError) as exc:
        parse("0.1+0.1*s", "t")
    assert exc.value.position == 8


def test_syntax_error_positions():
    cases = [
        ("1+", 2),
        ("(1+2", 4),
        ("2*", 2),
        ("1 @ 2", 2),
        ("sin 1", 4),
        ("1 2", 2),  # trailing input
    ]
    for text, pos in cases:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text, "t")
        assert exc.value.position == pos, text
    with pytest.raises(ExprSyntaxError):
        parse("   ", "t")
    with pytest.raises(ExprSyntaxError):
        parse("", "t")


def test_eval_domain_errors_name_the_fragment():
    with pytest.raises(ExprEvalError) as exc:
        parse("sqrt(t-1)", "t").eval(0.0)
    assert "sqrt(t-1)" in exc.value.fragment
    with pytest.raises(ExprEvalError) as exc:
        parse("1/(t-2)", "t").eval(2.0)
    assert exc.value.fragment == "1/(t-2)"
    with pytest.raises(ExprEvalError):
        parse("log(t)", "t").eval(0.0)
    # 0^0 and negative-base integer powers stay well-defined
    assert parse("t^0", "t").eval(0.0) == 1.0
    assert parse("(-2)^2", "t").eval(0.0) == 4.0


def test_eval_array_matches_scalar_eval():
    exprs = [
        "2-cos(t)^4",
        "t*sin(t)^2/(1+t^2)",
        "-0.7-1/sqrt(1+t)-0.005*t",
        "exp(-t)*abs(t-2)",
        "t^3-2^t",
    ]
    ts = np.linspace(0.0, 20.0, 101)
    for src in exprs:
        e = parse(src, "t")
        arr = e.eval_array(ts)
        assert arr.shape == ts.shape
        for i, v in enumerate(ts):
            assert arr[i] == pytest.approx(e.eval(float(v)), abs=1e-13)


def test_constant_failures_raise_from_both_methods():
    # literals are float64 inside the walker, so a constant subexpression
    # fails the same way as one that depends on the variable
    # a fragment spans the failing step, widened to a node's brackets
    for src, fragment in (
        ("1/0", "1/0"),
        ("t+1e308*10", "1e308*10"),
        ("1e999", "1e999"),
        ("(1/0)+t", "(1/0)"),
        ("((1/0))", "((1/0))"),
        ("2*3/0", "2*3/0"),
        ("1/0*2", "1/0"),
        ("sqrt((t-2))", "sqrt((t-2))"),
    ):
        e = parse(src, "t")
        with pytest.raises(ExprEvalError) as exc:
            e.eval(1.0)
        assert exc.value.fragment == fragment, src
        with pytest.raises(ExprEvalError) as exc:
            e.eval_array(np.array([0.0, 1.0]))
        assert exc.value.fragment == fragment, src


def test_eval_array_domain_error():
    with pytest.raises(ExprEvalError):
        parse("sqrt(t)", "t").eval_array(np.array([1.0, -1.0]))
    with pytest.raises(ExprEvalError):
        parse("1/t", "t").eval_array(np.array([0.0, 1.0]))


def test_eval_is_deterministic():
    e = parse("t*sin(t)^2/(1+t^2)+exp(-t)", "t")
    vals = {e.eval(1.2345) for _ in range(50)}
    assert len(vals) == 1


def test_non_finite_result_is_an_error():
    with pytest.raises(ExprEvalError):
        parse("exp(t)", "t").eval(1000.0)


def test_double_negation_is_the_identity():
    x = np.array([-2.5, -0.0, 0.0, 1e-300, 3.0])
    assert parse("--t", "t").eval_array(x).tobytes() == x.tobytes()


def test_equality_and_hash_follow_the_source():
    assert parse("t+1", "t") == parse("t+1", "t")
    assert hash(parse("t+1", "t")) == hash(parse("t+1", "t"))
    assert parse("t+1", "t") != parse("t + 1", "t")
    assert parse("1", "t") != parse("1", "s")


def test_pickle_round_trip_recompiles():
    e = parse("2-cos(t)^4+1/(1+t)", "t")
    back = pickle.loads(pickle.dumps(e))
    assert back == e
    ts = np.linspace(0.0, 10.0, 11)
    assert back.eval_array(ts).tobytes() == e.eval_array(ts).tobytes()


def test_long_sum_folds_left_to_right():
    # a chain is one loop, so its length costs no recursion
    rng = random.Random(7)
    coeffs = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(5000)]
    signs = [rng.choice("+-") for _ in coeffs[1:]]
    src = f"{coeffs[0]}*t" + "".join(
        f"{s}{abs(c)}*t" for s, c in zip(signs, coeffs[1:]))
    x = np.linspace(-3.0, 3.0, 13)
    want = np.float64(coeffs[0]) * x
    for s, c in zip(signs, coeffs[1:]):
        op = operator.add if s == "+" else operator.sub
        want = op(want, np.float64(abs(c)) * x)
    assert parse(src, "t").eval_array(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("src, at", [
    ("(" * 1000 + "t" + ")" * 1000, "("),
    ("-" * 2000 + "t", "-"),
    ("2^" * 2000 + "2", None),
], ids=["brackets", "minus-signs", "powers"])
def test_nesting_past_the_recursion_limit_is_a_syntax_error(src, at):
    with pytest.raises(ExprSyntaxError, match="nested too deeply") as exc:
        parse(src, "t")
    assert 0 < exc.value.position < len(src)
    if at is not None:
        assert src[exc.value.position] == at


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _at_depth(n, fn):
    return fn() if n <= 0 else _at_depth(n - 1, fn)


def test_recursion_in_evaluation_is_an_eval_error():
    # parsed near the top of the stack, evaluated near its limit
    src = "-" * 300 + "t"
    e = parse(src, "t")
    room = sys.getrecursionlimit() - _stack_depth() - 100
    with pytest.raises(ExprEvalError) as exc:
        _at_depth(room, lambda: e.eval_array(1.0))
    assert exc.value.fragment == src
