"""Direct integration of Caputo-derivative delay systems.

The solver discretizes the Volterra form

    x(t) = phi(0) + (1/Gamma(alpha)) int_0^t (t-u)^(alpha-1) f(u) du,
    f(u) = A(u) x(u) + sum_k B_k(u) x(u - q_k(u)),

with the implicit product-trapezoid rule (Garrappa, Math. Comput. Simul.
110, 2015), solved exactly at every node rather than by a predictor and
corrector sweeps. Delayed states come from the initial function when the
argument is <= 0 and from linear interpolation between nodes otherwise;
one inside the current step interpolates with the state being solved.
solve samples A, B and q once (DelaySystem.sample) for _integrate, so the
solver evaluates no coefficient expression, only the history phi.

The system is linear, so the rule is solved BLOCK steps at a time: the
states and delayed states of one block are one linear system in that
block's states, and numpy solves it in one call. The history sums over
earlier blocks come from convolutions on a dyadic split (Hairer, Lubich
and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): after block t - 1,
with span = t & -t, blocks [t - span, t) feed blocks [t, t + span), so
every pair of blocks is summed once and a solve of n nodes costs
O(n log^2 n).

Only part of a block's work depends on the states. Its matrix
I - W A - W C (W the in-block weights, A the block's A_i, C the
couplings of nodes whose delayed time falls inside their own block)
does not; it is built per block, with no stack over the whole
trajectory: -W A is one broadcast product, and C is added only at the
nodes found before the loop. The states enter through the known
delayed part fc = sum_k B_k xd_k, the right-hand side sums + W fc, the
solve, f = A x + C x + fc and the history convolution. The history weights
depend on the span alone, so each distinct span's operator is built
once per solve: a Toeplitz matrix up to DIRECT_SPAN steps, where a
direct product beats an FFT, and the weights' spectrum beyond it.

Companion routines re-check certified envelopes and the
quadratic-Lyapunov inequality on the computed trajectory, and write_csv
dumps it with every field exactly as Python's '%.17g' writes it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError

__all__ = [
    "SolverConfig",
    "Trajectory",
    "EnvelopeCheck",
    "solve",
    "caputo_l1",
    "check_envelope",
    "lyapunov_check",
    "write_csv",
]

MAX_NODES = 10**7  # memory guard: per-node coefficient stacks and weight tables
BLOCK = 32  # steps per linear solve
DIRECT_SPAN = 128  # longest history span applied as a matrix, not by FFT
CSV_ROWS = 256  # rows per write_csv chunk; its numpy temporaries stay in cache


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be positive, got {self.h}")
        if self.h >= self.t_end:
            raise ValueError(f"h={self.h} must be smaller than t_end={self.t_end}")
        if self.t_end / self.h > MAX_NODES:
            raise ValueError(
                f"t_end/h = {self.t_end / self.h:.3g} exceeds the "
                f"{MAX_NODES:.0e} node guard"
            )


@dataclass(frozen=True)
class Trajectory:
    grid: np.ndarray  # uniform times, 0 .. t_end
    states: np.ndarray  # (n+1, d)
    norms_l1: np.ndarray
    norms_l2: np.ndarray
    rhs: np.ndarray  # f(t_n, x_n, x_delayed) at every node, for checks
    clamped: tuple  # nodes whose delayed time lies past the newest computed node


@dataclass(frozen=True)
class EnvelopeCheck:
    max_ratio: float
    first_violation_t: object  # float, or None when the bound holds
    tolerance: float
    passed: bool  # max_ratio <= 1 + tolerance; False when max_ratio is nan


def solve(sys, cfg):
    """Integrate the delay system on [0, t_end] with step h.

    f = A x + sum_k B_k x(t - q_k), with B the block row [B_1 ... B_K].
    t_end is rounded to the nearest multiple of h. Deterministic: the
    same system and config always produce the same bits.
    """
    times = cfg.h * np.arange(int(round(cfg.t_end / cfg.h)) + 1)
    return _integrate(sys.alpha, sys.tau, sys.phi, cfg.h, *sys.sample(times))


def _integrate(alpha, tau, phi, h, a_samp, b_samp, q_samp):
    """solve on samples at h*(0..n): A (d, d, n+1), B (d, K*d, n+1), q (K, n+1)."""
    d, n_q, n = a_samp.shape[0], q_samp.shape[0], a_samp.shape[-1] - 1
    times = h * np.arange(n + 1)
    hist, lo, w_lo, w_hi, clamp = _delay_plan(q_samp, tau, phi, times, h)
    # in-block couplings, one per (node, delay) pair that has one: x_lo and
    # x_(lo + 1) at columns col and col + 1 of the node's own block; a node
    # of an earlier block is in the known part already and gets weight 0
    col = lo - 1 - (np.maximum(np.arange(n + 1) - 1, 0) // BLOCK)[:, None] * BLOCK
    c_wlo = np.where(col >= 0, w_lo, 0.0).ravel()
    c_whi = np.where(col >= -1, w_hi, 0.0).ravel()
    c_pair = np.flatnonzero((c_wlo != 0.0) | (c_whi != 0.0))
    c_node, c_q = np.divmod(c_pair, n_q)
    c_col, c_wlo, c_whi = col.ravel()[c_pair], c_wlo[c_pair], c_whi[c_pair]
    # the couplings of block t - 1 are [c_cut[t - 1], c_cut[t])
    c_cut = np.searchsorted(c_node, np.arange(1, n + 1 + BLOCK, BLOCK)).tolist()
    w_lo, w_hi = w_lo[..., None], w_hi[..., None]

    weights, end_weights, c_corr = _trapezoid_weights(alpha, h, n)
    # -W: minus the same weights inside one block and the weight c_corr of
    # the current node, which makes the rule implicit; neg_rep[j, (i, b)]
    # is -W[j, i], so -W A of a block is one product with the rows of A
    size = min(BLOCK, n)
    neg_tri = -(_toeplitz(weights, -1, size) + c_corr * np.eye(size))
    neg_rep = np.repeat(neg_tri, d, axis=1)

    states = np.zeros((n + 1, d))
    rhs = np.zeros((n + 1, d))
    x0 = np.array([p.eval(0.0) for p in phi])
    states[0] = x0
    rhs[0] = a_samp[..., 0] @ x0 + b_samp[..., 0] @ hist[0].ravel()
    # x0 plus the trapezoid sums over the nodes of earlier blocks; node 0
    # carries its own end weight
    sums = np.zeros((n + 1, d))
    sums[1:] = end_weights[:, None] * rhs[0]
    sums += x0
    carriers = {}  # span -> _carrier(weights, span), built on first use

    for t, k0 in enumerate(range(1, n + 1, BLOCK), start=1):
        k1 = min(k0 + BLOCK, n + 1)
        m = k1 - k0
        # a_blk[a, (i, b)] = A_i[a, b], b_blk[a, (k, b), i] = (B_k)_i[a, b]
        a_blk = a_samp[..., k0:k1].transpose(0, 2, 1).reshape(d, m * d)
        b_blk = b_samp[..., k0:k1]
        neg_w = neg_tri[:m, :m]
        # f = A x + sum_k B_k xd_k = A x + C x + fc, C the couplings to this
        # block's own states and fc = sum_k B_k xd_k over the states known
        # from earlier blocks (this block's are still zero); the rule
        # x = sums + W f is (I - W A - W C) x = sums + W fc
        xd = (hist[k0:k1] + w_lo[k0:k1] * states[lo[k0:k1]]
              + w_hi[k0:k1] * states[lo[k0:k1] + 1])
        fc = np.einsum("abi,ib->ia", b_blk, xd.reshape(m, n_q * d))
        # C order: the reshape and ravel below are views, so the diagonal
        # += 1 lands in lhs
        lhs = np.multiply(neg_rep[:m, None, :m * d], a_blk, order="C")
        c0, c1 = c_cut[t - 1], c_cut[t]
        if c0 < c1:
            # the rows of C at the block's nodes that have couplings
            at, cols = c_node[c0:c1] - k0, c_col[c0:c1]
            b_at = b_blk.reshape(d, n_q, d, m)[:, c_q[c0:c1], :, at]
            rows = np.arange(c1 - c0)
            c_at = np.zeros((c1 - c0, d, m, d))
            c_at[rows, :, np.maximum(cols, 0)] = c_wlo[c0:c1, None, None] * b_at
            c_at[rows, :, cols + 1] += c_whi[c0:c1, None, None] * b_at
            c_at = c_at.reshape(c1 - c0, d, m * d)
            lhs += (neg_w[:, at] @ c_at.reshape(c1 - c0, -1)).reshape(lhs.shape)
        lhs = lhs.reshape(m * d, m * d)
        lhs.ravel()[::m * d + 1] += 1.0
        x = np.linalg.solve(lhs, (sums[k0:k1] - neg_w @ fc).ravel())
        x = x.reshape(m, d)
        f = np.einsum("aib,ib->ia", a_blk.reshape(d, m, d), x) + fc
        if c0 < c1:
            np.add.at(f, at, c_at @ x.ravel())  # two pairs may share a node
        states[k0:k1] = x
        rhs[k0:k1] = f
        finite = np.isfinite(x) & np.isfinite(f)
        if not finite.all():
            t_bad = times[k0 + int(np.argmin(finite.all(axis=1)))]
            raise StepSizeError(
                f"the solution is not finite at t={t_bad:.6g}: the system "
                f"grows past float range, or h={h} is too coarse"
            )

        # dyadic split: blocks [t - span, t) feed blocks [t, t + span)
        span = (t & -t) * BLOCK
        if k1 <= n:
            end = min(k1 + span, n + 1)
            op = carriers.get(span)
            if op is None:
                op = carriers[span] = _carrier(weights, span)
            if span <= DIRECT_SPAN:
                sums[k1:end] += op[:end - k1] @ rhs[k1 - span:k1]
            else:
                conv = _fft_convolve(rhs[k1 - span:k1], op, 2 * span)
                sums[k1:end] += conv[span - 1:span - 1 + end - k1]

    return Trajectory(
        grid=times,
        states=states,
        norms_l1=np.abs(states).sum(axis=1),
        norms_l2=np.sqrt((states * states).sum(axis=1)),
        rhs=rhs,
        clamped=tuple(np.flatnonzero(clamp).tolist()),
    )


def _delay_plan(q_samp, tau, phi, times, h):
    """Delay plan: x(t_i - q_k) = hist_ik + w_lo_ik x_lo_ik + w_hi_ik x_(lo_ik+1).

    q_samp is (K, n+1), hist (n+1, K, d) and lo, w_lo, w_hi (n+1, K): every
    delay k at every node i. Initial-function lookups are exact wherever
    the delayed time is <= 0. Later ones interpolate linearly between x_lo
    and x_(lo+1), lo at most i - 1: a delayed time inside the current step
    reads the state being solved for as x_(lo+1), and its node is flagged
    in clamp when it lies past the newest node by more than rounding.
    """
    q_samp = q_samp.T
    slack = 1e-9 * max(1.0, tau)
    out = (q_samp < -slack) | (q_samp > tau + slack)
    if out.any():
        i, k = np.unravel_index(np.argmax(out), out.shape)
        raise StepSizeError(
            f"delay q[{k}]={q_samp[i, k]:.6g} leaves [0, {tau}] at t={times[i]:.6g}"
        )
    s_arg = times[:, None] - np.clip(q_samp, 0.0, tau)
    prev = np.maximum(np.arange(len(times)) - 1, 0)[:, None]
    hist = np.zeros(s_arg.shape + (len(phi),))
    hist_mask = s_arg <= 0.0
    for c, p in enumerate(phi):
        hist[hist_mask, c] = p.eval_array(s_arg[hist_mask])
    pos = s_arg / h
    lo = np.clip(np.trunc(pos), 0, prev)
    w_hi = np.where(hist_mask, 0.0, pos - lo)
    w_lo = np.where(hist_mask, 0.0, 1.0 - w_hi)
    clamp = (~hist_mask & (pos > prev + 1e-12)).any(axis=1)
    return hist, lo.astype(np.intp), w_lo, w_hi, clamp


def _trapezoid_weights(alpha, h, n):
    """Product-trapezoid weights, read at k - 1 - j, scaled by c_corr.

    weights[k - 1 - j] is the weight of node j at node k for 0 < j < k;
    end_weights[k - 1] is the weight of node 0 at node k. The weight of
    node k itself is c_corr = h^alpha / Gamma(alpha + 2), returned third.
    """
    c_corr = h**alpha / math.gamma(alpha + 2.0)
    pa = np.arange(n + 1, dtype=float) ** alpha
    pa1 = np.arange(n + 2, dtype=float) ** (alpha + 1.0)
    weights = (pa1[2:] + pa1[:-2] - 2.0 * pa1[1:-1]) * c_corr
    end_weights = c_corr * (pa1[:n] - (np.arange(n) - alpha) * pa[1:])
    return weights, end_weights, c_corr


def _toeplitz(weights, shift, size):
    """The size x size matrix of weights[shift + r - c], 0 out of range."""
    lag = shift + np.subtract.outer(np.arange(size), np.arange(size))
    inside = (lag >= 0) & (lag < len(weights))
    return np.where(inside, weights[np.where(inside, lag, 0)], 0.0)


def _carrier(weights, span):
    """How the rhs of span nodes enters the sums of the next span nodes.

    Output r takes weights[span - 1 + r - c] times input c: a Toeplitz
    matrix up to DIRECT_SPAN, the spectrum of those weights beyond it.
    """
    if span <= DIRECT_SPAN:
        return _toeplitz(weights, span - 1, span)
    return np.fft.rfft(weights[:2 * span - 1], 2 * span)


def _fft_convolve(f, spec, size):
    """Circular convolution of length size of f (along axis 0) with the
    sequence whose rfft is spec."""
    return np.fft.irfft(spec[:, None] * np.fft.rfft(f, size, axis=0), size, axis=0)


def caputo_l1(values, alpha, h):
    """L1-scheme Caputo derivative of uniformly sampled values at every node.

    values holds samples at the nodes 0..n; the result holds the
    derivative at the nodes 1..n, one convolution of the increments with
    the weights (k+1)^(1-alpha) - k^(1-alpha). First-order accurate in h
    for smooth inputs; at alpha = 1 it is the backward difference.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise ValueError(
            "values must be a 1-D array of at least 2 samples, "
            f"got shape {values.shape}"
        )
    steps = np.diff(values)
    if alpha == 1.0:
        return steps / h
    n = len(steps)
    w = np.diff(np.arange(n + 1, dtype=float) ** (1.0 - alpha))
    size = 1 << (2 * n - 2).bit_length()
    conv = _fft_convolve(steps[:, None], np.fft.rfft(w, size), size)
    return conv[:n, 0] * h**-alpha / math.gamma(2.0 - alpha)


def check_envelope(traj, norm_tag, envelope_values, tolerance):
    """Compare trajectory norms against a certified envelope, node by node.

    envelope_values holds the envelope at every node of traj.grid, each
    >= 0. Where it is 0 (a zero history gives M = 0), a zero norm counts
    as ratio 0 and any other as an infinite ratio, a violation.
    """
    if norm_tag == "l1":
        norms = traj.norms_l1
    elif norm_tag == "l2":
        norms = traj.norms_l2
    else:
        raise ValueError(f"norm_tag must be 'l1' or 'l2', got {norm_tag!r}")
    env = _envelope_array(traj, envelope_values)
    if not (env >= 0.0).all():  # false at nan too
        raise ValueError("envelope must be nonnegative on the grid")
    ratio = _ratio(norms, env)
    max_ratio = float(np.max(ratio))
    first = None
    bad = np.nonzero(ratio > 1.0 + tolerance)[0]
    if bad.size:
        first = float(traj.grid[bad[0]])
    return EnvelopeCheck(
        max_ratio=max_ratio, first_violation_t=first, tolerance=tolerance,
        passed=max_ratio <= 1.0 + tolerance,
    )


def _envelope_array(traj, values):
    env = np.asarray(values, dtype=float)
    if env.shape != traj.grid.shape:
        raise ValueError(f"expected {len(traj.grid)} envelope values, got shape {env.shape}")
    return env


def _ratio(norms, env):
    """norms / env per node, 0 at 0/0 and inf at x/0; nan at a nan env."""
    with np.errstate(divide="ignore"):
        return np.divide(norms, env, out=np.zeros_like(norms),
                         where=(env != 0.0) | (norms != 0.0))


def lyapunov_check(traj, alpha):
    """Largest violation of the squared-norm differential inequality.

    For W = x^T x the Caputo derivative of W never exceeds 2 x^T times
    the Caputo derivative of x; with the right-hand side substituted for
    the latter, the L1-discretized gap should stay within scheme error.
    """
    w = (traj.states * traj.states).sum(axis=1)
    h = float(traj.grid[1] - traj.grid[0])
    bound = 2.0 * (traj.states * traj.rhs).sum(axis=1)
    return float(np.max(caputo_l1(w, alpha, h) - bound[1:]))


def write_csv(traj, path, envelope_values=None, norm_tag="l1"):
    """Trajectory dump: t, components, norms, envelope and norm/envelope.

    Without envelope values the last two columns are nan, else the ratio
    is check_envelope's. Each field is exactly Python's '%.17g', so a
    reload reproduces the floats; the rows go out CSV_ROWS at a time.
    """
    if norm_tag not in ("l1", "l2"):
        raise ValueError(f"norm_tag must be 'l1' or 'l2', got {norm_tag!r}")
    n, d = traj.states.shape
    if envelope_values is None:
        env = np.full(n, math.nan)
    else:
        env = _envelope_array(traj, envelope_values)
    norms = traj.norms_l1 if norm_tag == "l1" else traj.norms_l2
    ratio = _ratio(norms, env)
    header = "t," + ",".join(f"x{i + 1}" for i in range(d)) + ",norm_l1,norm_l2,envelope,ratio"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        cols = (traj.grid, traj.states, traj.norms_l1, traj.norms_l2, env, ratio)
        for s in range(0, n, CSV_ROWS):
            block = np.column_stack([c[s:s + CSV_ROWS] for c in cols])
            fh.write(_format_rows(block, d + 5))


@functools.cache
def _csv_tables():
    """_format_rows' tables, built in 1-d steps: hi + lo = 10^j (j = -264
    .. 297, from Python ints); '0000' .. '9999' as int64 words, a 0 byte
    after each ASCII digit and in the top byte the digit count to the last
    nonzero one; keep[j, kk] keeps digits 4j + 1 .. 4j + 4 below digit kk."""
    hi, lo = [], []
    for j in range(-264, 298):
        num, den = 10 ** max(j, 0), 10 ** max(-j, 0)
        hn, hd = (num / den).as_integer_ratio()
        hi.append(hn / hd)
        lo.append((num * hd - hn * den) / (den * hd))
    g = np.arange(10000)
    groups = (4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)) << 56
    for i, q in enumerate((1000, 100, 10, 1)):
        groups |= (g // q % 10 + ord("0")) << 16 * i
    kept = np.clip(np.arange(18) - np.arange(1, 17, 4)[:, None], 0, 4)
    leads = [int.from_bytes(b"0.000"[:c + 1], "little") if c else 0 for c in range(5)]
    return (np.array(hi), np.array(lo), groups,
            (1 << np.minimum(16 * kept, 56)) - 1, np.array(leads))


def _format_rows(block, ncols):
    """The bytes '%.17g' gives for block's values, ncols to a ',' line.

    For 1e-280 <= |x| <= 1e280 and e = floor(log10 |x|), D = round(|x|
    10^(16-e)), 10^(16-e) = hi + lo: |x| hi = p + err exactly (Dekker's
    split product), r = err + |x| lo and D = p + floor(r), + 1 when
    r - floor(r) > 0.5. r's error is below ~4e-15 (|r| <= ~20), so a field
    is kept only when p + floor(r) is in [10^16, 10^17) (e was the decade)
    and r - floor(r) is over 1e-6 from 0.5 (no flipped rounding, no tie);
    a carry to 10^17 gives 10^16 and e + 1. Other fields (nan, inf,
    subnormals, |x| out of range, near-ties, log10 a decade high) are
    '%.17g' itself, spliced in order. A field is six little-endian int64
    words (sign, '0.000', digit i at byte 6 + 2i then a point slot, 'e+ddd',
    separator) whose 0 bytes are deleted; uint8 loops paged in more numpy.
    """
    hi, lo, groups, keep, leads = _csv_tables()
    x = np.ravel(block)
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # nan compares false, quietly
        zero = a == 0.0
        fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)  # a zero becomes 1: digits 10^16, e = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    h, hl = hi[280 - e], lo[280 - e]
    p, sa, sh = a * h, 134217729.0 * a, 134217729.0 * h
    a1, h1 = sa - (sa - a), sh - (sh - h)
    a2, h2 = a - a1, h - h1
    r = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * hl
    fl = np.floor(r)
    frac = r - fl
    dig = p.astype(np.int64) + fl.astype(np.int64)
    ok = zero | fast & (dig >= 10**16) & (dig < 10**17) & (np.abs(frac - 0.5) > 1e-6)
    dig += frac > 0.5
    carry = dig == 10**17
    dig -= (carry * 9 + zero) * 10**16
    e += carry
    sci = (e < -4) | (e > 16)
    whole = np.where(sci, 1, np.maximum(e + 1, 0))  # digits before the point
    quo = np.array([dig // 10**16, dig // 10**12, dig // 10**8, dig // 10**4, dig])
    words = groups[quo[1:] - 10**4 * quo[:4]]
    sig = words >> 56
    # significant digits: to the last nonzero digit of the last nonzero group
    k = np.max((sig + [[1], [5], [9], [13]]) * (sig > 0), axis=0, initial=1)
    w = np.empty((6, x.size), np.dtype("<i8"))
    w[0] = (np.signbit(x) * ord("-") | leads[(whole == 0) * -e] << 8
            | (quo[0] + ord("0")) << 48)
    w[1:5] = words & np.take(keep, np.maximum(k, whole), axis=1)
    at = np.flatnonzero((k > whole) & (whole > 0))
    b = 5 + 2 * whole[at]  # byte of the point
    w[b >> 3, at] |= ord(".") << ((b & 7) << 3)
    w[5] = ord(",") << 40
    w[5, ncols - 1::ncols] = ord("\n") << 40
    at = np.flatnonzero(sci & ok)
    ee = np.abs(e[at])
    w[5, at] |= (ord("e") | np.where(e[at] < 0, ord("-"), ord("+")) << 8
                 | (ee >= 100) * (ee // 100 + 48) << 16 | (ee // 10 % 10 + 48) << 24
                 | (ee % 10 + 48) << 32)  # 48 is '0'
    at = np.flatnonzero(~ok)
    w[:5, at] = 0
    w[0, at] = int.from_bytes(b"%b", "little")
    out = w.T.tobytes().translate(None, b"\0")
    if at.size:
        out %= tuple(b"%.17g" % v for v in x[at].tolist())
    return out
