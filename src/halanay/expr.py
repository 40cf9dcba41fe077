"""Arithmetic expressions in one free variable.

Grammar (whitespace-insensitive, '^' binds tightest and associates to
the right, then unary minus, then '*' '/', then '+' '-'):

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

NAME is the free variable or one of: sin cos tan exp log sqrt abs.
"""

import dataclasses
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

__all__ = ["TimeExpr", "parse"]

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Num:
    value: float
    span: tuple


@dataclass(frozen=True)
class _Var:
    span: tuple


@dataclass(frozen=True)
class _Neg:
    child: object
    span: tuple


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object
    span: tuple


@dataclass(frozen=True)
class _Call:
    fn: str
    child: object
    span: tuple


@dataclass(frozen=True)
class TimeExpr:
    """Immutable parsed expression; evaluation is pure."""

    ast: object
    var_name: str
    source: str

    def eval(self, value):
        """Evaluate at a scalar and return a float.

        Domain failures and non-finite results raise ExprEvalError naming
        the subexpression, exactly as eval_array does.
        """
        return float(self.eval_array(float(value)))

    def eval_array(self, values):
        """Vectorized evaluation over a float64 array (0-d included)."""
        arr = np.asarray(values, dtype=np.float64)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            out = _ev(self.ast, arr, self.source)
        res = np.empty_like(arr)  # never a view of the caller's values
        res[...] = out
        if not np.isfinite(res).all():
            raise ExprEvalError("non-finite result", self.source)
        return res


def parse(text, var_name):
    """Parse an expression string over the single variable var_name."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), text, var_name)
    node = parser.expr()
    kind, _, pos, _ = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input", pos)
    return TimeExpr(ast=node, var_name=var_name, source=text)


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            toks.append(("num", m.group(), i, m.end()))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(("name", m.group(), i, m.end()))
            i = m.end()
            continue
        if text[i] in "+-*/^()":
            toks.append((text[i], text[i], i, i + 1))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
    toks.append(("end", "", n, n))
    return toks


class _Parser:
    def __init__(self, toks, text, var_name):
        self.toks = toks
        self.text = text
        self.var_name = var_name
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind, what):
        kind_got, _, pos, _ = self.peek()
        if kind_got != kind:
            raise ExprSyntaxError(f"expected {what}", pos)
        return self.take()

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = _Bin(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            node = _Bin(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def unary(self):
        kind, _, pos, _ = self.peek()
        if kind == "-":
            self.take()
            child = self.unary()
            return _Neg(child, (pos, child.span[1]))
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            rhs = self.unary()  # right-associative; exponent may be signed
            node = _Bin("^", node, rhs, (node.span[0], rhs.span[1]))
        return node

    def atom(self):
        kind, text, pos, end = self.peek()
        if kind == "num":
            self.take()
            return _Num(float(text), (pos, end))
        if kind == "name":
            self.take()
            if text == self.var_name:
                return _Var((pos, end))
            if text in _FUNCS:
                self.expect("(", f"'(' after function {text}")
                inner = self.expr()
                _, _, _, rend = self.expect(")", "')'")
                return _Call(text, inner, (pos, rend))
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            self.take()
            inner = self.expr()
            _, _, _, rend = self.expect(")", "')'")
            # widen to the brackets so error fragments stay balanced
            return dataclasses.replace(inner, span=(pos, rend))
        raise ExprSyntaxError("expected a value", pos)


def _ev(node, x, src):
    if isinstance(node, _Num):
        # float64, not a Python float: constant subexpressions then fail
        # under the caller's errstate instead of raising ZeroDivisionError
        # or overflowing to inf silently
        return np.float64(node.value)
    if isinstance(node, _Var):
        return x
    if isinstance(node, _Neg):
        return -_ev(node.child, x, src)
    try:
        if isinstance(node, _Bin):
            a = _ev(node.left, x, src)
            b = _ev(node.right, x, src)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            return np.power(a, b)
        return _FUNCS[node.fn](_ev(node.child, x, src))
    except FloatingPointError as exc:
        raise ExprEvalError(str(exc), src[node.span[0] : node.span[1]]) from exc

