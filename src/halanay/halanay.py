"""Decay-rate certificates for delayed comparison inequalities.

Given sampled nonnegative coefficients a(t), b_k(t), c(t) and bounded
delays q_k(t), each grid point t carries a unique rate lambda(t) > 0
solving

    lambda - a(t) + sum_k b_k(t) / E_alpha(-lambda q_k(t)^alpha) = 0,

and the certificate takes the grid minimum together with an offset w0
determined by which smallness condition the coefficients satisfy. The
resulting envelope is w0 + M E_alpha(-lambda* t^alpha).

Both certification routes reduce to this inequality and end in certify,
which takes the coefficients already sampled on the grid:
positivity.certify_positive passes column sums, one b row per delay term
(at dimension 1, a scalar comparison inequality given directly, they are
the configured coefficients), and lmi.certify_lmi its gamma and sigma.
classify_conditions, its first half, gives the verdict alone. Each route
returns (verdict, certificate): the verdict is this module's
ConditionVerdict (lmi's LmiReport extends it with its eigen scan), and
the certificate is None when neither condition holds.

The rate equation has one solver (_rate), a bracketed Newton iteration
on Python floats at one point, which starts with a closed-form step from
0; lambda_at is its validated one-point call. Each returned rate has a
residual verified nonpositive, so lambda never sits above the computed
root. The rate scan (_min_rate) needs only the least rate: by array sign
tests of h it sets aside every point whose rate provably exceeds one
solved, and solves the few left, each distinct point once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HalanayError, InfeasiblePointError, MlfDomainError
# perfbench/tracer.py wraps ml by this module's name; _rate calls _ml_pair
from .mlf import _ml_pair, check_orders, ml, ml_array  # noqa: F401

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
# scan points at most, as fdde.MAX_NODES: (d, K d, n) sample stacks
MAX_POINTS = 10**7
# The min-rate scan (_min_rate) skips a point when h(U + m) < 0, U the
# seed's verified rate and m = SCAN_MARGIN max(1, max a). Say every
# computed h is off by at most E. h' >= 1, so the skipped point's root
# exceeds U + m - E; the solver returns a rate within w + E of the root
# (w = 1e-14 max(1, a), its stop tolerance; E again because its bracket
# follows computed signs). That rate exceeds U >= lambda* when m >= w + 2E.
# Where computed h < 0, sum_k b_k / E_alpha < a, so E is at most about
# (eps + 4 ulp) a with eps = 5.6e-14, the worst relative ml error
# measured (a jump across the series seam at alpha ~ 1e-3; 7.2e-15 from
# alpha = 0.01 on, against mpmath): w + 2E < 1.3e-13 max(1, a), and 1e-9
# leaves over 7000x room.
SCAN_MARGIN = 1e-9


@dataclass(frozen=True)
class ScanGrid:
    """Uniform samples of [0, t_max] standing in for 'all t >= 0'."""

    t_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not 2 <= self.n_points <= MAX_POINTS:
            raise ValueError(f"n_points must lie in [2, {MAX_POINTS:.0e}], "
                             f"got {self.n_points}")

    def times(self):
        return np.linspace(0.0, self.t_max, self.n_points)


@dataclass(frozen=True)
class ConditionVerdict:
    """RATIO (a0 > 0, p < 1) is the paper's Theorem 3.3 condition;
    BOUNDED_GAP (sigma > 0, a bounded), its Remark 3.4 one, implies it."""
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

    Checked for the order, then finite, nonnegative and a > sum_k b_k
    samples, and solved (_rate) exactly as a point of a rate scan is, so
    it returns the rate a scan returns at that point, never above the
    computed root.
    """
    a = float(a_val)
    bs = [float(b) for b in b_vals]
    qs = [float(q) for q in q_vals]
    if len(bs) != len(qs):
        raise ValueError("b_vals and q_vals must have equal length")
    check_orders(alpha)
    vals = [a, *bs, *qs]
    if not all(map(math.isfinite, vals)):
        raise MlfDomainError("a, b and q samples must be finite")
    if min(vals) < 0.0:
        raise ValueError("a, b and q samples must be nonnegative")
    if not a > sum(bs):
        raise InfeasiblePointError("a does not exceed sum(b) at every point; "
                                   "no positive rate exists")
    qas = [q**alpha for q in qs]  # as _q_alpha takes them
    return _rate(alpha, a, bs, qas)[0]


def _q_alpha(qs, alpha):
    # q**alpha in Python floats, as scalar code takes it: np.power can
    # differ in the last bit, which the series shows near its seam
    return np.array([[q**alpha for q in row] for row in qs.tolist()])


def _first_step(alpha, gap, bq):
    """The closed-form Newton step from 0 over the bracket [0, gap], bq
    the sum of b q^alpha: h'(0) = 1 + bq / Gamma(1 + alpha)."""
    return gap / (1.0 + bq / math.gamma(1.0 + alpha))


def _div(n, d):
    """n / d, or IEEE's +-inf or nan (0 / 0) at d = 0, where Python raises."""
    return n / d if d else n * math.copysign(math.inf, d)


def _rate(alpha, a, bs, qas):
    """The rate at one point, on floats; returns (lambda, |h(lambda)|).

    bs and qas hold b_k and q_k^alpha, one per delay term, and sb = sum(bs)
    was validated below a. h rises strictly from h(0) = sb - a < 0 to
    h(a - sb) >= 0 (E_alpha <= 1). Over that bracket runs a bracketed
    (rtsafe-style) Newton, one _ml_pair call (E_alpha and E_alpha,alpha)
    per delay a round, from a closed-form first step; later steps are
    taken if strictly inside the bracket and at most half the last. Else
    it bisects or, if the step is under 1e6 tolerances (stalled at the
    root), doubles it across the root. It stops when the bracket, or |h|
    at a point with h <= 0, falls below 1e-14 max(1, a) (h' >= 1, so the
    step does too) and returns that verified low end and its |h|: lambda
    never exceeds the computed root.
    """
    sb = sum(bs)
    if not sb > 0.0:
        return a, 0.0
    lo, hi, h_lo = 0.0, a - sb, sb - a  # h(0): every E_alpha(0) is 1
    width = 1e-14 * max(1.0, a)
    lam = step = _first_step(alpha, hi, sum(b * qa for b, qa in zip(bs, qas)))
    for _ in range(MAX_ROUNDS):
        # at alpha = 1, exp(-lambda q) and its square may underflow: h is
        # then inf (b / 0) or nan (0 / 0), h' inf or nan
        h, dh = lam - a, 1.0
        for b, qa in zip(bs, qas):
            x = -lam * qa
            e1, e2 = _ml_pair(x, alpha)
            h += _div(b, e1)
            dh += _div(b * qa * e2, alpha * e1 * e1)
        dx = h / dh
        if h <= 0.0:
            lo, h_lo = lam, h
        else:
            hi = lam
        if -width < h <= 0.0 or hi - lo < width:
            return lo, abs(h_lo)
        # nan and inf fail the bracket tests
        size = abs(dx)
        newton = lam - dx
        if lo < newton < hi and 2.0 * size <= step:
            lam, step = newton, size
            continue
        across = lam - 2.0 * dx
        if across == lam:
            across = math.nextafter(lam, lo if dx > 0.0 else hi)
        if size < 1e6 * width and lo < across < hi:
            lam, step = across, size
        else:
            lam, step = 0.5 * (lo + hi), 0.5 * (hi - lo)
    raise HalanayError(
        f"rate equation unsolved after {MAX_ROUNDS} rounds at a = {a!r}")


def _points(cols, a, bs, qas):
    """The points cols as _rate's arguments, float tuples that key a dict."""
    return zip(a[cols].tolist(), map(tuple, bs[:, cols].T.tolist()),
               map(tuple, qas[:, cols].T.tolist()))


def _min_rate(alpha, a, bs, qs):
    """The least rate over the points: (lambda*, its first index, the
    worst |residual| among the points solved).

    Only the least rate matters. The seed, the point of least first
    Newton step, is solved first; its rate U bounds lambda* above. A sign
    test of h(U + margin) at every point (one ml_array call per delay, at
    order 1) sets aside those with h < 0, whose rates exceed U (see
    SCAN_MARGIN). The rest (h >= 0 or not finite) are solved once per
    distinct point, the largest h first. The first step only guesses the
    least rate (it overestimates most where h curves most), so when a
    solved rate falls below U, U takes it and the unsolved rest are tested
    again. A point's rate depends on its own samples alone: lambda* and
    its first argmin are those of a scan of every point. The samples are
    certify's, checked there (q clipped at 0); its RATIO or BOUNDED_GAP
    verdict means a > sum_k b_k, summed as here, at every point.
    """
    gap = a - sum(bs)  # row by row, as _rate sums
    qas = _q_alpha(qs, alpha)
    margin = SCAN_MARGIN * max(1.0, float(np.max(a)))
    seed = int(np.argmin(_first_step(alpha, gap, (bs * qas).sum(axis=0))))
    (point,) = _points([seed], a, bs, qas)
    solved = {point: _rate(alpha, *point)}
    rates = np.full(len(a), math.inf)
    rates[seed] = lam = solved[point][0]
    left = np.flatnonzero(np.arange(len(a)) != seed)
    while len(left):
        x = lam + margin
        # a point whose bracket [0, gap] ends at or below x has its root
        # there too, so it is solved untested (first, as h = inf)
        cols = left[gap[left] > x]
        h = np.full(len(a), math.inf)
        h[cols] = x - a[cols]
        # at alpha = 1, exp(-x q) may underflow: h is then inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            for b, qa in zip(bs[:, cols], qas[:, cols]):
                h[cols] += b / ml_array(-x * qa, alpha)
        left = left[~(h[left] < 0.0)]
        left = left[np.argsort(-h[left], kind="stable")]
        got = []
        for point in _points(left, a, bs, qas):
            if point not in solved:
                solved[point] = _rate(alpha, *point)
            got.append(solved[point][0])
            if got[-1] < lam:
                break
        rates[left[:len(got)]] = got
        lam, left = min([lam, *got]), left[len(got):]
    arg = int(np.argmin(rates))
    return float(rates[arg]), arg, max(res for _, res in solved.values())


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
    out = (np.asarray(qs) < -slack) | (np.asarray(qs) > tau + slack)
    if out.any():  # name the first grid time's first delay out of range
        i, k = np.argwhere(out.T)[0]
        raise InfeasiblePointError(f"delays must stay within [0, {tau}] on "
                                   f"the grid: q[{k}]={qs[k][i]:.6g}")
    sum_b = sum(bs)  # row by row, as _min_rate sums; numpy may pair rows
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

    The one core of both routes: ts are the grid times, a and c hold
    one sample per time, bs and qs one row per delay term, and M is the
    envelope's amplitude. alpha, the finiteness of a, bs, qs and c, tau,
    M and the shapes are checked first, whatever the verdict, and once.

    Returns (verdict, certificate); the certificate is None when the
    verdict is NONE. lambda_star and grid_argmin (the first grid time of
    least rate) are those of solving every point; the min-rate scan
    solves only the points that can set them, and residual_max is the
    worst |h| over the points it solved.
    """
    check_orders(alpha)
    # a nan in a or bs would classify as NONE, and one in c give a nan w0
    if not all(np.isfinite(v).all() for v in (a, bs, qs)):
        raise MlfDomainError("a, b and q samples must be finite")
    if not np.isfinite(c).all():
        raise MlfDomainError("c samples must be finite")
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
