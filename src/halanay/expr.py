"""Arithmetic expressions in one free variable.

Grammar (whitespace-insensitive, '^' binds tightest and associates to
the right, then unary minus, then '*' '/', then '+' '-'):

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

NAME is the free variable or one of: sin cos tan exp log sqrt abs.

parse compiles the text once into a function of the array; no syntax
tree is kept. A '+ -' or '* /' chain folds its operands left to right
in one loop, so a long sum costs no recursion.
"""

import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

__all__ = ["TimeExpr", "parse"]

_FUNCS = {name: getattr(np, name)
          for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")}

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}

# whitespace is what no alternative matches, so finditer skips it
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


@dataclass(frozen=True)
class TimeExpr:
    """Immutable compiled expression; evaluation is pure.

    Equal and hashed by source and variable, and pickled as both: a
    loaded copy is compiled again.
    """

    source: str
    var_name: str
    _fn: object = field(compare=False, repr=False)

    def __reduce__(self):
        return parse, (self.source, self.var_name)

    def eval(self, value):
        """Evaluate at a scalar and return a float.

        Domain failures and non-finite results raise ExprEvalError naming
        the subexpression, exactly as eval_array does.
        """
        return float(self.eval_array(float(value)))

    def eval_array(self, values):
        """Vectorized evaluation over a float64 array (0-d included)."""
        arr = np.asarray(values, dtype=np.float64)
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                out = self._fn(arr)
        except RecursionError:
            raise ExprEvalError("nested too deeply to evaluate",
                                self.source) from None
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
    try:
        node = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply",
                              parser.peek()[2]) from None
    kind, _, pos, _ = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input", pos)
    return TimeExpr(text, var_name, parser.compile(node))


def _tokenize(text):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {tok!r}", m.start())
        toks.append((tok if kind == "op" else kind, tok, m.start(), m.end()))
    toks.append(("end", "", len(text), len(text)))
    return toks


# Compiled functions take their data as default arguments, not closure
# cells: a cell per captured name would take a 34-expression config from
# 793 tracked objects to 1,246 (its syntax tree held 665), and cost each
# certify op first-generation and, now and then, full garbage collections.

def _identity(x):
    return x


def _var(frag):
    return _identity


def _const(value, frag):
    return lambda x, value=value: value


def _apply(fn, arg, frag):
    def run(x, fn=fn, arg=arg, frag=frag):  # fn(arg(x)); a failure names frag
        a = arg(x)
        try:
            return fn(a)
        except FloatingPointError as exc:
            raise ExprEvalError(str(exc), frag) from exc
    return run


def _fold(first, steps, frag):
    # the last step's partial result is the whole node, so it is named frag
    steps = steps[:-1] + [(*steps[-1][:2], frag)]

    def run(x, first=first, steps=steps):  # first(x) op operand(x) ...
        acc = first(x)
        for op, operand, frag in steps:
            b = operand(x)
            try:
                acc = op(acc, b)
            except FloatingPointError as exc:
                raise ExprEvalError(str(exc), frag) from exc
        return acc
    return run


class _Parser:
    """Recursive descent. Each rule returns a node (factory, args, lo, hi):
    text[lo:hi] is its span, and factory(*args, frag) compiles it into a
    function of the array whose own step names frag when it fails.
    Brackets widen the span, so a bracketed node is named with them."""

    def __init__(self, toks, text, var_name):
        self.toks = toks
        self.text = text
        self.var_name = var_name
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def expect(self, kind, what):
        """Take a token of this kind and return its end."""
        got, _, pos, end = self.peek()
        if got != kind:
            raise ExprSyntaxError(f"expected {what}", pos)
        self.k += 1
        return end

    def compile(self, node):
        factory, args, lo, hi = node
        return factory(*args, self.text[lo:hi])

    def chain(self, first, rest):
        """first op1 x1 op2 x2 ... for rest = [(op1, x1), ...]; each
        partial result is named from first's start to its last operand."""
        lo = first[2]
        steps = [(op, self.compile(x), self.text[lo:x[3]]) for op, x in rest]
        return _fold, (self.compile(first), steps), lo, rest[-1][1][3]

    def expr(self):
        first, rest = self.term(), []
        while (op := self.peek()[0]) in ("+", "-"):
            self.k += 1
            rest.append((_OPS[op], self.term()))
        return self.chain(first, rest) if rest else first

    def term(self):
        first, rest = self.unary(), []
        while (op := self.peek()[0]) in ("*", "/"):
            self.k += 1
            rest.append((_OPS[op], self.unary()))
        return self.chain(first, rest) if rest else first

    def unary(self):
        kind, _, pos, _ = self.peek()
        if kind == "-":
            self.k += 1
            child = self.unary()
            return _apply, (operator.neg, self.compile(child)), pos, child[3]
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.k += 1
            # right-associative; the exponent may be signed
            node = self.chain(node, [(np.power, self.unary())])
        return node

    def atom(self):
        kind, text, pos, end = self.peek()
        if kind == "num":
            self.k += 1
            # float64, not a Python float: constant subexpressions then
            # fail under the caller's errstate instead of raising
            # ZeroDivisionError or overflowing to inf silently
            return _const, (np.float64(float(text)),), pos, end
        if kind == "name":
            self.k += 1
            if text == self.var_name:
                return _var, (), pos, end
            if text in _FUNCS:
                self.expect("(", f"'(' after function {text}")
                arg = self.compile(self.expr())
                rend = self.expect(")", "')'")
                return _apply, (_FUNCS[text], arg), pos, rend
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            self.k += 1
            factory, args, _, _ = self.expr()
            rend = self.expect(")", "')'")
            return factory, args, pos, rend  # widened to the brackets
        raise ExprSyntaxError("expected a value", pos)
