"""Decay-rate certificates for delayed comparison inequalities.

Given sampled nonnegative coefficients a(t), b_k(t), c(t) and bounded
delays q_k(t), each grid point t carries a unique rate lambda(t) > 0
solving

    lambda - a(t) + sum_k b_k(t) / E_alpha(-lambda q_k(t)^alpha) = 0,

and the certificate takes the grid minimum together with an offset w0
determined by which smallness condition the coefficients satisfy. The
resulting envelope is w0 + M E_alpha(-lambda* t^alpha).

All three certification routes reduce to this inequality and end in
certify, which takes the coefficients already sampled on the grid:
positivity.certify_positive passes column sums, lmi.certify_lmi its
gamma and sigma, and the scalar route the configured coefficients.
classify_conditions, its first half, gives the verdict alone. Each route
returns (verdict, certificate), the certificate None when neither
condition holds.

The rate equation has one solver (_lambda_grid), which solves points in
lockstep on arrays by a bracketed Newton iteration that starts with a
closed-form step from 0; lambda_at is its one-point call. Each returned
rate has a residual verified nonpositive, so lambda never sits above the
computed root. The rate scan (_min_rate) needs only the least rate: it
solves one seed point, sets aside by one sign test of h every point
whose rate provably exceeds the seed's, and solves the few left.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HalanayError, InfeasiblePointError, MlfDomainError
# ml is not called here; perfbench/tracer.py wraps halanay.halanay.ml by name
from .mlf import ml, ml_array  # noqa: F401

__all__ = [
    "ScanGrid",
    "ConditionVerdict",
    "HalanayCertificate",
    "lambda_at",
    "classify_conditions",
    "certify",
    "envelope",
]

BOUNDED_GAP = "BOUNDED_GAP"
RATIO = "RATIO"
NONE = "NONE"

RESIDUAL_BOUND = 1e-10
# rounds per rate solve; bisection alone needs at most 47 (a bracket of
# width <= a halved down to 1e-14 max(1, a))
MAX_ROUNDS = 100
# The min-rate scan (_min_rate) skips a point when h(U + m) < 0, U the
# seed's verified rate and m = SCAN_MARGIN max(1, max a). Say every
# computed h is off by at most E. h' >= 1, so the skipped point's root
# exceeds U + m - E; the solver returns a rate within w + E of the root
# (w = 1e-14 max(1, a), its stop tolerance; E again because its bracket
# follows computed signs). That rate exceeds U >= lambda* when m >= w + 2E.
# Where computed h < 0, sum_k b_k / E_alpha < a, so E is at most about
# (eps + 4 ulp) a with eps = 5.7e-11, the worst relative ml error
# recorded (the series seam): w + 2E < 1.2e-10 max(1, a), and 1e-9
# leaves 8x room.
SCAN_MARGIN = 1e-9


@dataclass(frozen=True)
class ScanGrid:
    """Uniform samples of [0, t_max] standing in for 'all t >= 0'."""

    t_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")

    def times(self):
        return np.linspace(0.0, self.t_max, self.n_points)


@dataclass(frozen=True)
class ConditionVerdict:
    case_tag: str  # BOUNDED_GAP, RATIO or NONE
    sigma: float  # min over grid of a - sum_k b_k
    a0: float  # min over grid of a
    p: float  # max over grid of (sum_k b_k) / a
    c_star: float  # max over grid of c
    a_bounded: bool  # boundedness heuristic (or user assertion) outcome


@dataclass(frozen=True)
class HalanayCertificate:
    lambda_star: float
    w0: float
    M: float
    residual_max: float
    grid_argmin: float  # t achieving the minimal rate
    case_tag: str
    t_max: float
    n_points: int


def lambda_at(alpha, a_val, b_vals, q_vals):
    """Unique positive root of the rate equation at one sample point.

    A one-point call of the grid solver (_lambda_grid), so it validates
    and solves exactly as a rate scan does and returns the rate a scan
    returns at that point, never above the computed root.
    """
    bs = np.array(b_vals, dtype=float)
    qs = np.array(q_vals, dtype=float)
    if bs.shape != qs.shape:
        raise ValueError("b_vals and q_vals must have equal length")
    a = np.array([a_val], dtype=float)
    return float(_lambda_grid(alpha, a, bs[:, None], qs[:, None])[0][0])


def _h_grid(lam, alpha, a, bs, qas):
    """h(lambda) and h'(lambda) at many points, q^alpha precomputed."""
    h = lam - a
    dh = 1.0
    for b, qa in zip(bs, qas):
        x = -lam * qa
        e1 = ml_array(x, alpha)
        h += b / e1
        dh = dh + b * qa * ml_array(x, alpha, alpha) / (alpha * e1 * e1)
    return h, dh


def _checked_sum(alpha, a, bs, qs):
    """Validate rate-equation samples; returns sum_k b_k at every point."""
    if not 0.0 < alpha <= 1.0:
        raise MlfDomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not all(np.isfinite(v).all() for v in (a, bs, qs)):
        raise MlfDomainError("a, b and q samples must be finite")
    if np.any(a < 0) or np.any(bs < 0) or np.any(qs < 0):
        raise ValueError("a, b and q samples must be nonnegative")
    sb = bs.sum(axis=0)
    if np.any(a <= sb):
        raise InfeasiblePointError(
            "a does not exceed sum(b) at every point; no positive rate exists"
        )
    return sb


def _q_alpha(qs, alpha):
    # q**alpha in Python floats, as scalar code takes it: np.power can
    # differ in the last bit, which the series shows near its seam
    return np.array([[q**alpha for q in row] for row in qs.tolist()])


def _first_step(alpha, gap, bs, qas):
    """The closed-form Newton step from 0 over the bracket [0, gap].

    h'(0) = 1 + sum b q^alpha / Gamma(1 + alpha).
    """
    return gap / (1.0 + (bs * qas).sum(axis=0) / math.gamma(1.0 + alpha))


def _lambda_grid(alpha, a, bs, qs):
    """The rate at every grid point at once; returns (lambdas, |residuals|).

    a holds one sample per point, bs and qs one row per delay term. h rises
    strictly from h(0) = sum(b) - a < 0 and, since E_alpha <= 1,
    h(a - sum(b)) >= 0. Over that bracket all points run a bracketed
    (rtsafe-style) Newton in lockstep, one ml_array call per delay and
    order a round. The first step, from 0, is in closed form; later ones
    are taken if strictly inside the bracket and at most half the last
    step. Else the point bisects, or, if the step is under 1e6 tolerances
    (stalled at the root), doubles it to land across the root. With
    tolerance 1e-14 max(1, a), a point is done when its bracket or its |h|
    at a point with h <= 0 falls below it (h' >= 1, so its step does too)
    and returns that verified low end and its |h|: lambda never exceeds
    the computed root. Points do not interact, so a point's rate does not
    depend on which other points share the call.
    """
    sb = _checked_sum(alpha, a, bs, qs)
    lams = a.astype(float)
    resid = np.zeros(len(a))
    on = np.flatnonzero(sb > 0.0)
    a, bs = a[on], bs[:, on]
    qas = _q_alpha(qs[:, on], alpha)
    lo, hi = np.zeros(len(on)), a - sb[on]
    h_lo = sb[on] - a  # h(0): every E_alpha(0) is 1
    width = 1e-14 * np.maximum(1.0, a)
    lam = _first_step(alpha, hi, bs, qas)
    step = lam.copy()
    open_ = np.arange(len(on))
    for _ in range(MAX_ROUNDS):
        if not open_.size:
            break
        # at alpha = 1, exp(-lambda q) may underflow: h is then inf, h' nan
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h, dh = _h_grid(lam, alpha, a[open_], bs[:, open_], qas[:, open_])
            dx = h / dh
        below = h <= 0.0
        lo[open_[below]], h_lo[open_[below]] = lam[below], h[below]
        hi[open_[~below]] = lam[~below]
        l, u, w = lo[open_], hi[open_], width[open_]
        done = (below & (-h < w)) | (u - l < w)
        size = np.abs(dx)
        # nan and inf fail the bracket tests
        newton = lam - dx
        take = (l < newton) & (newton < u) & (2.0 * size <= step)
        across = lam - 2.0 * dx
        across = np.where(across == lam,
                          np.nextafter(lam, np.where(dx > 0.0, l, u)), across)
        cross = ~take & (size < 1e6 * w) & (l < across) & (across < u)
        lam = np.where(take, newton, np.where(cross, across, 0.5 * (l + u)))
        step = np.where(take | cross, size, 0.5 * (u - l))
        keep = ~done
        lam, step, open_ = lam[keep], step[keep], open_[keep]
    if open_.size:
        raise HalanayError(
            f"rate equation unsolved after {MAX_ROUNDS} rounds at "
            f"{open_.size} points"
        )
    lams[on] = lo
    resid[on] = np.abs(h_lo)
    return lams, resid


def _min_rate(alpha, a, bs, qs):
    """The least rate over the points: (lambda*, its first index, the
    worst |residual| among the points solved).

    Only the least rate matters, so not every point is solved. The seed,
    the point with the least first Newton step, is solved first: its rate
    U bounds lambda* above. One evaluation of h(U + margin) per point (one
    ml_array call per delay, order 1 only) then sets aside every point
    with h(U + margin) < 0, whose root lies past U + margin and whose rate
    therefore exceeds U (see SCAN_MARGIN). The rest, those with h >= 0 or
    h not finite, are solved by _lambda_grid in one lockstep call; since
    a point's rate does not depend on its neighbours in the call, lambda*
    and its first argmin are those of a scan of every point.
    """
    sb = _checked_sum(alpha, a, bs, qs)
    qas = _q_alpha(qs, alpha)
    gap = a - sb
    seed = int(np.argmin(_first_step(alpha, gap, bs, qas)))
    lam, res = _lambda_grid(alpha, a[[seed]], bs[:, [seed]], qs[:, [seed]])
    x = float(lam[0]) + SCAN_MARGIN * max(1.0, float(np.max(a)))
    # a point whose bracket [0, gap] ends at or below x has its root there
    # too, so it is solved untested
    test = np.flatnonzero(gap > x)
    h = x - a[test]
    # at alpha = 1, exp(-x q) may underflow: h is then inf or nan
    with np.errstate(divide="ignore", invalid="ignore"):
        for b, qa in zip(bs[:, test], qas[:, test]):
            h += b / ml_array(-x * qa, alpha)
    solve = np.ones(len(a), dtype=bool)
    solve[test[h < 0.0]] = False
    solve[seed] = False
    rest = np.flatnonzero(solve)
    lams, resid = _lambda_grid(alpha, a[rest], bs[:, rest], qs[:, rest])
    rates = np.full(len(a), math.inf)
    rates[seed], rates[rest] = lam[0], lams
    arg = int(np.argmin(rates))
    return float(rates[arg]), arg, float(max(res[0], np.max(resid, initial=0.0)))


def classify_conditions(tau, a, bs, qs, c, a_bounded=None):
    """Decide which smallness condition the sampled coefficients satisfy.

    a and c hold one sample per grid time; bs and qs hold one row per
    delay term. The gap condition needs a bounded above; since
    boundedness is not decidable from finitely many samples, it is taken
    from a_bounded when given, else from a two-half growth heuristic
    (grid max of a must not grow by more than 1% between halves). A
    negative a is a NONE verdict, not an error.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    n = np.shape(a)
    if (len(n) != 1 or np.shape(c) != n or np.ndim(bs) != 2
            or np.shape(bs) != np.shape(qs) or np.shape(bs)[1:] != n
            or not len(bs)):
        raise ValueError(
            "a and c need one sample per grid time, and bs and qs the same "
            "number (at least one) of such rows"
        )
    if np.min(bs) < 0 or np.min(c) < 0:
        raise InfeasiblePointError("b and c must be nonnegative on the grid")
    slack = 1e-9 * max(1.0, tau)
    if np.min(qs) < -slack or np.max(qs) > tau + slack:
        raise InfeasiblePointError(f"delays must stay within [0, {tau}] on the grid")
    sum_b = bs.sum(axis=0)
    sigma = float(np.min(a - sum_b))
    a0 = float(np.min(a))
    p = float(np.max(sum_b / a)) if a0 > 0.0 else math.inf
    if a_bounded is None:
        half = len(a) // 2
        a_bounded = float(np.max(a[half:])) <= 1.01 * float(np.max(a[:half]))
    if sigma > 0.0 and a_bounded:
        tag = BOUNDED_GAP
    elif a0 > 0.0 and p < 1.0:
        tag = RATIO
    else:
        tag = NONE
    return ConditionVerdict(
        case_tag=tag, sigma=sigma, a0=a0, p=p, c_star=float(np.max(c)),
        a_bounded=bool(a_bounded),
    )


def certify(alpha, tau, ts, a, bs, qs, c, M, a_bounded=None):
    """Classify sampled coefficients and certify their least rate.

    The one core of all three routes: ts are the grid times, a and c hold
    one sample per time, bs and qs one row per delay term, and M is the
    envelope's amplitude. alpha, tau, M and the shapes are checked first,
    whatever the verdict.

    Returns (verdict, certificate); the certificate is None when the
    verdict is NONE. lambda_star and grid_argmin (the first grid time of
    least rate) are those of solving every point; the min-rate scan
    solves only the points that can set them, and residual_max is the
    worst |h| over the points it solved.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not M >= 0.0:
        raise ValueError(f"amplitude M must be nonnegative, got {M}")
    if np.shape(ts) != np.shape(a):
        raise ValueError("ts and a must have one sample per grid time")
    verdict = classify_conditions(tau, a, bs, qs, c, a_bounded)
    tag = verdict.case_tag
    if tag == NONE:
        return verdict, None

    lambda_star, arg, residual_max = _min_rate(
        alpha, a, bs, np.clip(qs, 0.0, None))
    if residual_max > RESIDUAL_BOUND:
        raise HalanayError(
            f"rate-equation residual {residual_max:.3e} exceeds {RESIDUAL_BOUND}"
        )
    if tag == BOUNDED_GAP:
        w0 = verdict.c_star / verdict.sigma
    else:
        w0 = verdict.c_star / ((1.0 - verdict.p) * verdict.a0)
    return verdict, HalanayCertificate(
        lambda_star=lambda_star,
        w0=w0,
        M=float(M),
        residual_max=residual_max,
        grid_argmin=float(ts[arg]),
        case_tag=tag,
        t_max=float(ts[-1]),
        n_points=len(ts),
    )


def envelope(cert, alpha, t):
    """Certified bound w0 + M E_alpha(-lambda* t^alpha) at times t >= 0.

    t may be a number (returns a float) or an array (returns an array).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"envelope time must be nonnegative, got {np.min(t)}")
    vals = cert.w0 + cert.M * ml_array(-cert.lambda_star * t**alpha, alpha)
    return float(vals) if vals.ndim == 0 else vals
