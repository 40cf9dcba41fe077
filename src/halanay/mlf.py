"""Two-parameter Mittag-Leffler function on the real line.

The evaluator works in float64. It sums the Taylor series on the positive
axis and in the series band of the negative axis (u = |x|^(1/alpha) <=
6.5, narrowing to 6.5 (alpha/0.2)^2 below alpha = 0.2). Past the band one
quadrature serves every order: the spectral integral in an angle variable
(`_angle`), with no pole for any alpha < 1. Orders beta > 1 step down to
(0, 1] by E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, in at most
STEP_CAP steps; alpha = 1, where the angle form degenerates, has sums of
its own (`_unit_alpha`). The y-free parts of both routes are cached per
order, so runs of calls at one order share them.

ml evaluates one argument; ml_array evaluates an array of them, summing
the series band of the negative axis for all its elements at once and
passing every other element to ml, so both return the same values.
"""

import functools
import math

import numpy as np
from scipy.special import gammaln

from .errors import MlfDomainError, MlfOverflowError, SeriesCapError

__all__ = ["ml", "ml_array"]

SERIES_CAP = 10_000
# most steps the beta > 1 step-down may take, each one an alpha down
STEP_CAP = 10**6

# the series band on u = |x|^(1/alpha), kept in log form so routing never
# has to exponentiate a potentially overflowing power; it narrows below
# _ALPHA_BAND (_ln_u_band)
_LN_U_SERIES = math.log(6.5)
_ALPHA_BAND = 0.2
# terms per ml_array series block, which bounds its (rows, chunk) matrix
_BLOCK_TERMS = 1 << 17

_EXP_MAX = 709.782712893384
_LN_OVER = math.log(740.0)

# _angle_grid: the step in t, the squeeze of the lower tail, the span of
# ln u one grid serves, and its ends: e^-37 below the peak, and r = 800
_ANGLE_STEP = 0.25
_LN_SQUEEZE = math.log(0.1)
_ANGLE_SPAN = 8.0
_ANGLE_DROP = 37.0
_LN_R_CUT = math.log(800.0)
# _unit_alpha: Kummer's sum up to y = 60 and its term count there; the
# algebraic series beyond, to 24 terms past k = beta
_KUMMER_Y = 60.0
_KUMMER_TERMS = 160
_ALGEBRAIC_TERMS = 24

# term indices, sliced per series chunk or _unit_alpha sum
_KS = np.arange(SERIES_CAP, dtype=np.float64)
def ml(x, alpha, beta=1.0):
    """Evaluate E_{alpha,beta}(x) for real x, alpha in (0,1], beta > 0."""
    _check_orders(alpha, beta)
    if not math.isfinite(x):
        raise MlfDomainError(f"argument must be finite, got {x!r}")

    if alpha == 1.0 and beta == 1.0:
        if x > _EXP_MAX:
            raise MlfOverflowError(f"exp({x}) exceeds float64 range")
        return math.exp(x)

    if x == 0.0:
        return _at_zero(beta)

    if x > 0.0:
        # the sum grows like exp(x^(1/alpha)); refuse clearly doomed inputs
        if x > 1.0 and math.log(x) > alpha * _LN_OVER:
            raise MlfOverflowError(
                f"E_({alpha},{beta})({x}) exceeds float64 range"
            )
        return _series(x, alpha, beta)

    if math.log(-x) / alpha <= _ln_u_band(alpha):
        return _series(x, alpha, beta)
    if _at_zero(beta) == 0.0:
        # only at beta > 171, where E_{a,b}(-y) is completely monotone in
        # y: 0 <= E <= 1/Gamma(b)
        return 0.0
    if alpha == 1.0:
        return _unit_alpha(-x, beta)
    if (beta - 1.0) / alpha > STEP_CAP:
        raise MlfDomainError(
            f"E_({alpha},{beta}) past the series band needs more than "
            f"{STEP_CAP} beta step-downs; (beta - 1) / alpha must be at "
            f"most {STEP_CAP}"
        )
    betas = []
    while beta > 1.0:
        betas.append(beta)
        beta -= alpha
    val = _angle(-x, alpha, beta)
    for b in reversed(betas):
        val = (val - _at_zero(b - alpha)) / x
    return val


def ml_array(x, alpha, beta=1.0):
    """Evaluate E_{alpha,beta} elementwise on an array of real x.

    Negative elements inside the series band are summed together, one
    Taylor series per row in blocks of rows, and every other element goes
    through ml, so each value is the one ml returns. At alpha = beta = 1,
    where ml takes exp, no row is summed here. Returns an array of the
    shape of x.
    """
    _check_orders(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise MlfDomainError("argument must be finite")
    flat = x.ravel()
    out = np.empty(flat.shape)
    neg = np.flatnonzero((flat < 0.0) & ((alpha, beta) != (1.0, 1.0)))
    # math.log as in ml, not np.log: near its seam the series loses ~10
    # digits to cancellation, so a last-bit change of ln|x| shows in the sum
    ln_y = np.fromiter(map(math.log, (-flat[neg]).tolist()), float, neg.size)
    band = ln_y / alpha <= _ln_u_band(alpha)
    rows, ln_y = neg[band], ln_y[band]
    other = np.ones(flat.shape, dtype=bool)
    other[rows] = False
    for i in np.flatnonzero(other):
        out[i] = ml(float(flat[i]), alpha, beta)
    block = max(1, _BLOCK_TERMS // _series_chunk(alpha))
    for start in range(0, rows.size, block):
        stop = start + block
        out[rows[start:stop]] = _series_rows(ln_y[start:stop], alpha, beta)
    return out.reshape(x.shape)


def _check_orders(alpha, beta):
    if not math.isfinite(alpha) or not 0.0 < alpha <= 1.0:
        raise MlfDomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not math.isfinite(beta) or beta <= 0.0:
        raise MlfDomainError(f"beta must be finite and positive, got {beta!r}")


def _ln_u_band(alpha):
    """ln of the series band's end in u: 6.5, or 6.5 (alpha/0.2)^2 below
    alpha = 0.2.

    The band's alternating sum loses digits like e^u / alpha^2 for beta =
    alpha (2e-8 relative at alpha 0.005, u = 6.5), while `_angle` holds
    ~1e-15 down to u ~ 1e-10; the narrower band keeps the sum's loss at
    the seam near 1e-13.
    """
    if alpha >= _ALPHA_BAND:
        return _LN_U_SERIES
    return _LN_U_SERIES + 2.0 * math.log(alpha / _ALPHA_BAND)


def _at_zero(beta):
    """1/Gamma(beta); 0.0 only where it underflows, at large beta."""
    try:
        return 1.0 / math.gamma(beta)
    except OverflowError:
        # Gamma(b) overflows near its pole at 0 too (b < ~6e-309), where
        # 1/Gamma(b) = b / Gamma(1 + b) is b itself
        return beta / math.gamma(1.0 + beta) if beta < 1.0 else 0.0


def _series_chunk(alpha):
    chunk = 64 + int(32.0 / alpha)
    return chunk + (chunk & 1)  # even length keeps term parity aligned per chunk


def _series(x, alpha, beta):
    """Taylor sum in log space, vectorized over chunks of terms."""
    ln_ax = math.log(abs(x))
    neg = x < 0.0
    chunk = _series_chunk(alpha)
    total = 0.0
    k0 = 0
    while k0 < SERIES_CAP:
        hi = min(k0 + chunk, SERIES_CAP)
        terms = _KS[k0:hi] * ln_ax
        terms -= _series_row(alpha, beta, k0, hi)
        if neg:
            # |x|^(1/alpha) <= 6.5 here, so no term can overflow
            np.exp(terms, out=terms)
            terms[1::2] *= -1.0
            total += float(terms.sum())
        else:
            # an overflow, in a term or in their sum, is raised just below
            with np.errstate(over="ignore"):
                np.exp(terms, out=terms)
                total += float(terms.sum())
        if not math.isfinite(total):
            raise MlfOverflowError(
                f"E_({alpha},{beta})({x}) exceeds float64 range"
            )
        tail = max(map(abs, terms[-4:].tolist()))
        if tail < 1e-16 * (abs(total) + 1.0):
            return total
        k0 = hi
    raise SeriesCapError(
        f"series for E_({alpha},{beta})({x}) did not converge "
        f"within {SERIES_CAP} terms"
    )


def _series_rows(ln_y, alpha, beta):
    """_series at x = -exp(ln_y) for a block of rows at once.

    Each row adds the same chunks in the same order as _series and stops
    on the same tail test, so a row's sum is the scalar sum; rows that
    have stopped drop out of later chunks.
    """
    chunk = _series_chunk(alpha)
    total = np.zeros(ln_y.shape)
    rows = np.arange(ln_y.size)
    k0 = 0
    while rows.size:
        if k0 >= SERIES_CAP:
            raise SeriesCapError(
                f"series for E_({alpha},{beta}) did not converge "
                f"within {SERIES_CAP} terms"
            )
        hi = min(k0 + chunk, SERIES_CAP)
        terms = np.multiply.outer(ln_y[rows], _KS[k0:hi])
        terms -= _series_row(alpha, beta, k0, hi)
        np.exp(terms, out=terms)
        terms[:, 1::2] *= -1.0
        sums = total[rows] + terms.sum(axis=1)
        total[rows] = sums
        tail = np.abs(terms[:, -4:]).max(axis=1)
        rows = rows[tail >= 1e-16 * (np.abs(sums) + 1.0)]
        k0 = hi
    return total


@functools.lru_cache(maxsize=64)
def _series_row(alpha, beta, k0, hi):
    """ln Gamma(alpha*k + beta), k = k0..hi-1, shared by calls at one alpha."""
    return _frozen(gammaln(alpha * _KS[k0:hi] + beta))


def _frozen(a):
    a.flags.writeable = False
    return a


def _angle(y, alpha, beta):
    """E_{alpha,beta}(-y) for 0 < alpha < 1 and 0 < beta <= 1.

    The spectral integral, after w = sin(p) / sin(pi a - p) (which turns
    dw / (w^2 + 2 w cos(pi a) + 1) into dp / sin(pi a)), reads
        E_{a,b}(-y) = 1/(pi a) int_0^(pi a) exp(-r) r^(1-b)
                      sin(p + pi (b - a)) / sin(pi a - p) dp,
    r = (y w)^(1/a), with no pole left for any a < 1; the last factor is
    1 at b = 1. The trapezoid rule runs on the cached `_angle_grid`.
    """
    ln_u = math.log(y) / alpha
    top = _ANGLE_SPAN * math.ceil(ln_u / _ANGLE_SPAN)
    w, weights, factor = _angle_grid(alpha, beta, top)
    yw = y * w
    vals = np.exp(-yw ** (1.0 / alpha))
    if factor is not None:
        # r^(1-b) from y w: r itself underflows to 0 at small alpha
        vals *= yw ** ((1.0 - beta) / alpha) * factor
    return float(np.dot(vals, weights))


@functools.lru_cache(maxsize=16)
def _angle_grid(alpha, beta, top):
    """w, weights and sine factor of `_angle` for ln u in (top - 8, top].

    In z, p = pi a / (1 + e^-z), nodes resolve the boundary layer at
    p ~ sin(pi a) / y (the peak, r ~ 1) and the cut-off as p -> pi a. r
    varies like e^(z/a) there, so the step in z is 0.25 a; below the peak
    the integrand falls only like e^z, so the lattice runs in t,
    z = z_top + a (t - 0.1 e^-t), which squeezes that tail to a few dozen
    nodes. Sines are taken of the angle nearer to 0 (sin p = sin(eps +
    pi a - p), eps = pi (1 - a)), so none loses digits near pi, as
    2 t / (1 + t^2) of t = tan(half angle): numpy's tan beats its sin.
    """
    big = math.pi * alpha
    eps = math.pi * (1.0 - alpha)
    lead = math.log(big / math.sin(big))
    t_lo = _LN_SQUEEZE + math.log(alpha / _ANGLE_DROP)
    t_hi = 2.0 * lead / alpha + _ANGLE_SPAN + _LN_R_CUT + 1.0
    t = _ANGLE_STEP * np.arange(math.floor(t_lo / _ANGLE_STEP),
                                math.ceil(t_hi / _ANGLE_STEP) + 1)
    squeeze = np.exp(_LN_SQUEEZE - t)
    s = np.exp((t - squeeze) * alpha - (lead + alpha * top))  # e^z
    dc = 0.5 * big / (1.0 + s)
    half = np.array((dc * s, dc))  # p/2 and (pi a - p)/2
    tan = np.tan(np.minimum(half, 0.5 * eps + half[::-1]))
    sines = tan / (1.0 + tan * tan)  # sin(p)/2 and sin(pi a - p)/2
    # dp/dt = p (pi a - p) / (pi a) * a (1 + 0.1 e^-t), times 1/(pi a)
    weights = half[0] * half[1] * (1.0 + squeeze)
    weights *= 4.0 * _ANGLE_STEP / (math.pi * big)
    factor = None if beta == 1.0 else _frozen(np.sin(np.minimum(
        2.0 * half[0] + math.pi * (beta - alpha),
        math.pi * (1.0 - beta) + 2.0 * half[1])) / (2.0 * sines[1]))
    return _frozen(sines[0] / sines[1]), _frozen(weights), factor


def _unit_alpha(y, beta):
    """E_{1,beta}(-y), beta != 1, where w = 1 and the angle form degenerates.

    Up to y = 60, Kummer's transformation gives a sum whose terms past the
    first share one sign, E_{1,b}(-y) = e^-y / Gamma(b) * sum_k (b-1) /
    (b-1+k) y^k/k!. Beyond, the algebraic series sum_{k>=1} (-1)^(k+1)
    y^-k / Gamma(b-k) plus its exponential part e^-y y^(1-b) cos(pi (b-1)),
    which decides the value where 1/Gamma(b-1) nearly vanishes: b near 1
    (e^-y itself at b = 1) and b near 0.
    """
    if y <= _KUMMER_Y:
        ks = _KS[1:_KUMMER_TERMS]
        terms = np.cumprod(y / ks)  # y^k / k!
        # 1/Gamma(b) folded into the weights: at subnormal b the k = 1
        # weight (b-1)/b overflows, while (b-1)/(b Gamma(b)) is near -1
        rg = _at_zero(beta)
        total = rg + float(np.dot(terms, (beta - 1.0) * rg / (ks - 1.0 + beta)))
        return math.exp(-y) * total
    ks = _KS[2:_ALGEBRAIC_TERMS + math.ceil(beta)]
    ratios = np.cumprod((ks - beta) / y)  # term k over term 1
    # 1/Gamma(b-1) as (b-1)/Gamma(b): b - 1 rounds near the pole at -1
    algebraic = (beta - 1.0) * _at_zero(beta) / y * (1.0 + float(ratios.sum()))
    return algebraic + math.exp(-y) * y ** (1.0 - beta) * math.cos(
        math.pi * (beta - 1.0))
