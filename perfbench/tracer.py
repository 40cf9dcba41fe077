"""Outside-in tracing of the halanay package.

The tracer never edits the package. It replaces the module attributes
that callers look up at call time (``halanay.halanay.ml``,
``halanay.lmi.max_eigen_sym``, ``halanay.cli.solve``, ...) with thin
wrappers and puts the originals back on ``uninstall``.

Boundaries crossed a few times per operation record a span (name, start,
end, parent, op id). The hot leaves (``ml``, ``lambda_at``,
``max_eigen_sym``, ``eval_array``, ``envelope``) are called up to ~10^5
times per operation, so they keep only a count and the busy time.
``ml`` is further split by argument band, an input property on
u = |x|^(1/alpha) that follows the seams of ``halanay.mlf``.
"""

import math
import os
import statistics
import time

ML_BANDS = ("series", "window", "window_a1", "tail")

_LN_SERIES = math.log(6.5)
_LN_TAIL = math.log(60.0)


def ml_band(x, alpha):
    """Argument band of one E_alpha,beta(x) call."""
    if x >= 0.0:
        return "series"
    lu = math.log(-x) / alpha
    if lu <= _LN_SERIES:
        return "series"
    if lu > _LN_TAIL:
        return "tail"
    return "window_a1" if alpha > 0.995 else "window"


class Tracer:
    """In-memory spans plus leaf counters for one traced pass."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.leaves = {}  # name -> [calls, busy seconds]
        self.extra = {}  # name -> accumulated number (nodes, bytes)
        self.op_id = None
        self.op_calls = {}  # op id -> {leaf: calls made during that op}
        self._stack = []
        self._snapshot = None

    def begin_op(self, op_id):
        """Attribute the spans and leaf calls that follow to ``op_id``."""
        self.end_op()
        self.op_id = op_id
        self._snapshot = {k: c[0] for k, c in self.leaves.items()}

    def end_op(self):
        if self.op_id is not None:
            self.op_calls[self.op_id] = {
                k: c[0] - self._snapshot.get(k, 0)
                for k, c in self.leaves.items() if c[0] != self._snapshot.get(k, 0)
            }
        self.op_id = None

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None,
                          self.op_id])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if post is not None:
                post(self.extra, args, out)
            return out

        return wrapper

    def _leaf(self, name, fn):
        clock = time.perf_counter
        cell = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - t0

        return wrapper

    def _ml_leaf(self, fn):
        clock = time.perf_counter
        cells = {b: self.leaves.setdefault("mlf.ml." + b, [0, 0.0])
                 for b in ML_BANDS}

        def wrapper(x, alpha, beta=1.0):
            t0 = clock()
            try:
                return fn(x, alpha, beta)
            finally:
                dt = clock() - t0
                cell = cells[ml_band(x, alpha)]
                cell[0] += 1
                cell[1] += dt

        return wrapper

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, pkg):
        """Wrap the public entry points of every module in ``pkg``."""
        cli, hal, lmi, fdde, mlf, expr = (
            pkg.cli, pkg.halanay, pkg.lmi, pkg.fdde, pkg.mlf, pkg.expr)

        ml = self._ml_leaf(mlf.ml)
        self._patch(mlf, "ml", ml)
        self._patch(hal, "ml", ml)
        self._patch(hal, "lambda_at",
                    self._leaf("halanay.lambda_at", hal.lambda_at))
        self._patch(lmi, "max_eigen_sym",
                    self._leaf("lmi.max_eigen_sym", lmi.max_eigen_sym))
        self._patch(expr.TimeExpr, "eval_array",
                    self._leaf("expr.eval_array", expr.TimeExpr.eval_array))
        self._patch(cli, "decay_envelope",
                    self._leaf("halanay.envelope", cli.decay_envelope))

        for owner, attr, name in (
            (hal, "certify", "halanay.certify"),
            (cli, "certify", "halanay.certify"),
            (hal, "classify_conditions", "halanay.classify_conditions"),
            (cli, "classify_conditions", "halanay.classify_conditions"),
            (cli, "certify_positive", "positivity.certify_positive"),
            (cli, "certify_lmi", "lmi.certify_lmi"),
            (cli, "check_envelope", "fdde.check_envelope"),
            (fdde, "lyapunov_check", "fdde.lyapunov_check"),
            (cli, "load_config", "cli.load_config"),
            (cli, "run", "cli.run"),
        ):
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        self._patch(cli, "solve",
                    self._span("fdde.solve", cli.solve, _count_nodes))
        self._patch(cli, "write_csv",
                    self._span("fdde.write_csv", cli.write_csv, _count_bytes))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def span_totals(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         self_s + end - start - child[i])
        return out

    def dump(self):
        """Spans and counters as plain JSON-ready data."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "leaves": {k: {"calls": c, "busy_s": b}
                       for k, (c, b) in self.leaves.items()},
            "extra": dict(self.extra),
            "op_calls": dict(self.op_calls),
        }


def _count_nodes(extra, args, traj):
    extra["fdde.solve.nodes"] = extra.get("fdde.solve.nodes", 0) + len(traj.grid)


def _count_bytes(extra, args, _):
    extra["fdde.write_csv.bytes"] = (
        extra.get("fdde.write_csv.bytes", 0) + os.path.getsize(args[1]))


def _per_call_us(calls, busy):
    return busy / calls * 1e6 if calls else 0.0


def layer_counts(tracer):
    """Count metrics of one traced pass; these repeat exactly."""
    leaves = tracer.leaves
    spans = tracer.span_totals()
    out = {}
    ml_calls = 0
    for band in ML_BANDS:
        calls = leaves.get("mlf.ml." + band, [0, 0.0])[0]
        out["mlf.ml.calls." + band] = calls
        ml_calls += calls
    out["mlf.ml.calls"] = ml_calls
    roots = leaves.get("halanay.lambda_at", [0, 0.0])[0]
    out["halanay.lambda_at.calls"] = roots
    out["halanay.ml_calls_per_root"] = ml_calls / roots if roots else 0.0
    out["lmi.max_eigen_sym.calls"] = leaves.get("lmi.max_eigen_sym", [0, 0.0])[0]
    out["expr.eval_array.calls"] = leaves.get("expr.eval_array", [0, 0.0])[0]
    out["halanay.classify_conditions.calls"] = spans.get(
        "halanay.classify_conditions", (0, 0.0, 0.0))[0]
    out["halanay.envelope.calls"] = leaves.get("halanay.envelope", [0, 0.0])[0]
    out["fdde.write_csv.bytes"] = tracer.extra.get("fdde.write_csv.bytes", 0)
    return out


def layer_times(tracer):
    """Time metrics of one traced pass."""
    leaves = tracer.leaves
    spans = tracer.span_totals()

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    out = {}
    ml_calls = ml_busy = 0
    for band in ML_BANDS:
        calls, busy = leaves.get("mlf.ml." + band, [0, 0.0])
        out["mlf.ml.us_per_call." + band] = _per_call_us(calls, busy)
        ml_calls += calls
        ml_busy += busy
    out["mlf.ml.us_per_call"] = _per_call_us(ml_calls, ml_busy)
    for leaf in ("halanay.lambda_at", "lmi.max_eigen_sym"):
        out[leaf + ".us_per_call"] = _per_call_us(*leaves.get(leaf, [0, 0.0]))
    out["expr.eval_array.s"] = leaves.get("expr.eval_array", [0, 0.0])[1]
    out["halanay.certify.s"] = total("halanay.certify")
    out["lmi.certify_lmi.self_s"] = self_s("lmi.certify_lmi")
    out["positivity.certify_positive.self_s"] = self_s(
        "positivity.certify_positive")
    solve_s = total("fdde.solve")
    nodes = tracer.extra.get("fdde.solve.nodes", 0)
    out["fdde.solve.s"] = solve_s
    out["fdde.solve.us_per_node"] = solve_s / nodes * 1e6 if nodes else 0.0
    for name in ("fdde.lyapunov_check", "fdde.check_envelope",
                 "fdde.write_csv", "cli.load_config"):
        out[name + ".s"] = total(name)
    out["cli.run.self_s"] = self_s("cli.run")
    return out


def median_times(per_pass):
    """Median of each time metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
