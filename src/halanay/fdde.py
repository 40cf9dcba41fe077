"""Direct integration of Caputo-derivative delay systems.

The solver discretizes the Volterra form

    x(t) = phi(0) + (1/Gamma(alpha)) int_0^t (t-u)^(alpha-1) f(u) du,
    f(u) = A(u) x(u) + B(u) x(u - q(u)),

with an Adams-Bashforth-Moulton predictor-corrector: product-rectangle
weights predict, product-trapezoid weights correct. Delayed states come
from the initial function when the argument is <= 0 and from linear
interpolation between computed nodes otherwise. Companion routines
re-check certified envelopes and the quadratic-Lyapunov inequality on
the computed trajectory.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError
from .positivity import sample_matrices

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

MAX_NODES = 10**7  # memory guard: full-history weights are O(n) per step


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    h: float
    corrector_iters: int = 1

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
        iters = self.corrector_iters
        if isinstance(iters, bool) or not isinstance(iters, int) or iters < 1:
            raise ValueError(
                f"corrector_iters must be an integer >= 1, got {iters!r}"
            )


@dataclass(frozen=True)
class Trajectory:
    grid: np.ndarray  # uniform times, 0 .. t_end
    states: np.ndarray  # (n+1, d)
    norms_l1: np.ndarray
    norms_l2: np.ndarray
    rhs: np.ndarray  # f(t_n, x_n, x_delayed) at every node, for checks
    clamped: tuple  # node indices where the delayed argument exceeded history


@dataclass(frozen=True)
class EnvelopeCheck:
    max_ratio: float
    first_violation_t: object  # float, or None when the bound holds
    tolerance: float

    @property
    def passed(self):
        return self.max_ratio <= 1.0 + self.tolerance


def solve(sys, cfg):
    """Integrate the delay system on [0, t_end] with step h.

    t_end is rounded to the nearest multiple of h. Deterministic: the
    same system and config always produce the same bits.
    """
    alpha = sys.alpha
    d = sys.dim
    h = cfg.h
    n = int(round(cfg.t_end / h))
    times = h * np.arange(n + 1)

    # (n+1, d, d) stacks, made contiguous so that each step's products
    # read one compact (d, d) block
    a_samp, b_samp = (np.ascontiguousarray(np.moveaxis(m, -1, 0))
                      for m in sample_matrices(sys, times))
    q_samp = sys.q.eval_array(times)
    slack = 1e-9 * max(1.0, sys.tau)
    if np.min(q_samp) < -slack or np.max(q_samp) > sys.tau + slack:
        k = int(np.argmax((q_samp < -slack) | (q_samp > sys.tau + slack)))
        raise StepSizeError(
            f"delay q(t)={q_samp[k]:.6g} leaves [0, {sys.tau}] at t={times[k]:.6g}"
        )
    q_samp = np.clip(q_samp, 0.0, sys.tau)
    s_arg = times - q_samp

    # initial-function lookups are exact wherever the delayed time is <= 0
    hist = np.zeros((n + 1, d))
    hist_mask = s_arg <= 0.0
    for c in range(d):
        hist[hist_mask, c] = sys.phi[c].eval_array(s_arg[hist_mask])

    # k^alpha and k^(alpha+1) power tables feed both weight families
    pa = np.arange(n + 1, dtype=float) ** alpha
    pa1 = np.arange(n + 2, dtype=float) ** (alpha + 1.0)
    dpa = np.diff(pa)  # rectangle weights, to be read reversed
    ddpa1 = pa1[2:] + pa1[:-2] - 2.0 * pa1[1:-1]  # interior trapezoid weights
    c_pred = h**alpha / math.gamma(alpha + 1.0)
    c_corr = h**alpha / math.gamma(alpha + 2.0)

    states = np.zeros((n + 1, d))
    rhs = np.zeros((n + 1, d))
    x0 = np.array([p.eval(0.0) for p in sys.phi])
    states[0] = x0
    rhs[0] = a_samp[0] @ x0 + b_samp[0] @ hist[0]
    clamped = []

    for k in range(1, n + 1):
        xd = None
        clamp = False
        if hist_mask[k]:
            xd = hist[k]
        else:
            pos = s_arg[k] / h
            i = int(pos)
            if i >= k - 1:
                # delayed time inside the current step: no computed value
                # to interpolate yet, fall back to the running iterate
                if pos > k - 1 + 1e-12:
                    clamp = True
                    clamped.append(k)
                else:
                    xd = states[k - 1]
            else:
                theta = pos - i
                xd = (1.0 - theta) * states[i] + theta * states[i + 1]

        x = x0 + c_pred * (dpa[:k][::-1] @ rhs[:k])
        a0 = pa1[k - 1] - (k - 1.0 - alpha) * pa[k]
        s_hist = a0 * rhs[0]
        if k > 1:
            s_hist = s_hist + ddpa1[: k - 1][::-1] @ rhs[1:k]
        ak, bk = a_samp[k], b_samp[k]
        for _ in range(cfg.corrector_iters):
            f_k = ak @ x + bk @ (x if clamp else xd)
            x = x0 + c_corr * (s_hist + f_k)
        states[k] = x
        rhs[k] = ak @ x + bk @ (x if clamp else xd)

    return Trajectory(
        grid=times,
        states=states,
        norms_l1=np.abs(states).sum(axis=1),
        norms_l2=np.sqrt((states * states).sum(axis=1)),
        rhs=rhs,
        clamped=tuple(clamped),
    )


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
    return np.convolve(steps, w)[:n] * h**-alpha / math.gamma(2.0 - alpha)


def check_envelope(traj, norm_tag, envelope_values, tolerance):
    """Compare trajectory norms against a certified envelope, node by node.

    envelope_values holds the envelope at every node of traj.grid.
    """
    if norm_tag == "l1":
        norms = traj.norms_l1
    elif norm_tag == "l2":
        norms = traj.norms_l2
    else:
        raise ValueError(f"norm_tag must be 'l1' or 'l2', got {norm_tag!r}")
    env = np.asarray(envelope_values, dtype=float)
    if env.shape != traj.grid.shape:
        raise ValueError(
            f"expected {len(traj.grid)} envelope values, got shape {env.shape}"
        )
    if np.min(env) <= 0.0:
        raise ValueError("envelope must be positive on the grid")
    ratio = norms / env
    max_ratio = float(np.max(ratio))
    first = None
    bad = np.nonzero(ratio > 1.0 + tolerance)[0]
    if bad.size:
        first = float(traj.grid[bad[0]])
    return EnvelopeCheck(
        max_ratio=max_ratio, first_violation_t=first, tolerance=tolerance
    )


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

    Without envelope values the last two columns are nan. 17 significant
    digits, so a reload reproduces the floats exactly.
    """
    n, d = traj.states.shape
    if envelope_values is None:
        env = np.full(n, math.nan)
    else:
        env = np.asarray(envelope_values, dtype=float)
    norms = traj.norms_l1 if norm_tag == "l1" else traj.norms_l2
    with np.errstate(invalid="ignore"):
        ratio = norms / env
    header = "t," + ",".join(f"x{i + 1}" for i in range(d)) + ",norm_l1,norm_l2,envelope,ratio"
    cols = np.column_stack(
        [traj.grid, traj.states, traj.norms_l1, traj.norms_l2, env, ratio]
    )
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", header=header, comments="")
