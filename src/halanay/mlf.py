"""Two-parameter Mittag-Leffler function E_{alpha,beta}(-y), y >= 0.

The evaluator serves the functions a decay certificate is made of,
E_alpha(-lambda t^alpha) and the derivative term E_{alpha,alpha}: it takes
finite x <= 0 and ALPHA_MIN <= alpha <= beta <= 1, where E_{alpha,beta}(-y)
is completely monotone in y, and refuses every other input with
MlfDomainError. At alpha = 1 (so beta = 1) it is exp. Otherwise it works in
float64: it sums the Taylor series near the origin, up to a seam on |x|:
0.8 at beta = 1 (and u = |x|^(1/alpha) = 1.5 from alpha = 0.2 on), 0.65 at
beta < 1. Its 1/Gamma rows come from math.gamma, cached per order. Past
the seam one quadrature serves every order: the spectral integral in an
angle variable (`_angle`), with no pole for any alpha < 1. The y-free
parts of both routes are cached per order, so runs of calls at one order
share them. Against 40-digit sums, values hold 1e-14 relative for alpha in
[0.01, 1] and beta in {1, alpha}, across the seams.

ml evaluates one argument. ml_array evaluates an array of them: it sums
the series rows together, one row of terms per order, and the angle rows
together per span of ln u, with the arithmetic ml does on one row; zeros
and alpha = 1 take ml's own expressions, so both return the same values.
_ml_pair gives E_alpha and E_alpha,alpha at one argument from one pass
over the same terms, as the rate solver needs them.
"""

import functools
import math
import sys

import numpy as np

from .errors import MlfDomainError

__all__ = ["ml", "ml_array"]

# the least alpha: a seeded battery over the double range was clean from
# 3e-10 up; from 1e-10 down the angle form overflowed or gave nan
ALPHA_MIN = 1e-9

# the seams of the series (_series_edge), placed by a seeded mpmath
# battery. Past them the angle form takes over:
# at beta = 1 past |x| = 0.8 and, from alpha = 0.2 on, past u =
# |x|^(1/alpha) = 1.5 (the angle form loses digits at small |x|, the
# series at large u). At beta < 1 the terms swell before they fall
# (1/Gamma(a k + b) ~ a k + b at small a), so that sum cancels most and
# its seam sits lowest, at |x| = 0.65
_LN_SEAM_BELOW_ONE = math.log(0.65)
_LN_SEAM = math.log(0.8)
_LN_U_SEAM = math.log(1.5)
_ALPHA_U_SEAM = 0.2
# the most terms in a series row: below the seam every term past alpha k
# = 14 (22 from alpha = 0.2 on, where u reaches 1.5), or past k = 176
# (|t_k| <= 1.13 |x|^k), is under 1e-16; at the seams a row's last 4
# terms reach at most 0.064 of 1e-16 (|sum| + 1), worst at alpha 0.0026
_ROW_CAP = 180
# entries per ml_array block, which bounds its (rows, terms or nodes)
# matrix
_BLOCK_ENTRIES = 1 << 16

# _angle_grid: the step in t, the squeeze of the lower tail, the span of
# ln u one grid serves (ln u in (8 n - 4, 8 n + 4], so that one grid an
# order serves u in (e^-4, e^4], where most calls past the seams land),
# and its ends: e^-37 below the peak, and r = 50 at the span's bottom
_ANGLE_STEP = 0.25
_LN_SQUEEZE = math.log(0.1)
_ANGLE_SPAN = 8
_SPAN_SHIFT = 4
_ANGLE_DROP = 37.0
_R_CUT = 50.0

# sums over the last axis, pairwise as ndarray.sum but without its wrapper
_add = np.add.reduce
# term indices, sliced per series row, and (-1)^k
_KS = np.arange(_ROW_CAP, dtype=np.float64)
_SIGNS = 1.0 - 2.0 * (_KS % 2.0)


def ml(x, alpha, beta=1.0):
    """E_{alpha,beta}(x) for finite x <= 0 and ALPHA_MIN <= alpha <= beta <= 1."""
    check_orders(alpha, beta)
    if not -math.inf < x <= 0.0:
        raise MlfDomainError(f"argument must be finite and at most 0, got {x!r}")
    if alpha == 1.0:
        return math.exp(x)
    if x == 0.0:
        return 1.0 / math.gamma(beta)
    ln_y = math.log(-x)
    if ln_y <= _series_edge(alpha, beta):
        return _series(ln_y, alpha, beta)
    return _angle(-x, ln_y, alpha, beta)


def _ml_pair(x, alpha):
    """E_alpha(x) and E_{alpha,alpha}(x), from one pass on the negative axis.

    E_alpha is ml(x, alpha) to the bit. Over the series terms t_k,
    E_{a,a}(x) = (a / x) sum_k k t_k; over the angle nodes, E_{a,a}(-y) =
    (1/y) sum_j W_j r_j e^(-r_j), the y-derivative of E_a(-y) = sum_j W_j
    e^(-r_j). Elsewhere (alpha = 1, and x = 0 or subnormal, where the
    series' terms keep too few bits to divide by x) it is two ml calls,
    which refuse what ml refuses.
    """
    check_orders(alpha, 1.0)
    if not (-math.inf < x <= -sys.float_info.min and alpha < 1.0):
        return ml(x, alpha), ml(x, alpha, alpha)
    ln_y = math.log(-x)
    if ln_y <= _series_edge(alpha, 1.0):
        e, moment = _series(ln_y, alpha, 1.0, pair=True)
        return e, alpha * moment / x
    e, moment = _angle(-x, ln_y, alpha, 1.0, pair=True)
    return e, moment / -x


def ml_array(x, alpha, beta=1.0):
    """Evaluate E_{alpha,beta} elementwise on an array of finite x <= 0.

    The orders and the elements are held to ml's domain. At alpha = 1 each
    element takes ml's math.exp, and each zero gets ml's 1 / Gamma(beta).
    Negative elements below the series seam are summed together over the
    order's one row of terms; those past it go through the angle form
    together, per span of ln u. Both take blocks of rows, each with ml's
    arithmetic, so each value is the one ml returns. Returns an array of
    the shape of x.
    """
    check_orders(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    # false at nan, +-inf and x > 0
    if not ((x <= 0.0) & (x > -np.inf)).all():
        raise MlfDomainError("argument must be finite and at most 0")
    flat = x.ravel()
    if alpha == 1.0:
        out = np.fromiter(map(math.exp, flat.tolist()), float, flat.size)
        return out.reshape(x.shape)
    out = np.empty(flat.shape)
    out[flat == 0.0] = 1.0 / math.gamma(beta)
    neg = np.flatnonzero(flat < 0.0)
    y = -flat[neg]
    edge = _series_edge(alpha, beta)
    # ml's math.log, which routes each row and gives it its terms or span
    ln_y = np.fromiter(map(math.log, y.tolist()), float, y.size)
    series = ln_y <= edge
    if series.any():
        rows, ln_s = neg[series], ln_y[series]
        block = max(1, _BLOCK_ENTRIES // _series_row(alpha, beta).size)
        for start in range(0, rows.size, block):
            stop = start + block
            out[rows[start:stop]] = _series_rows(ln_s[start:stop], alpha, beta)
    rows, ln_y = neg[~series], ln_y[~series]
    tops = _angle_span(np.ceil(ln_y / alpha))  # as _angle takes them
    for top in map(int, np.unique(tops).tolist()):
        in_span = rows[tops == top]
        block = max(1, _BLOCK_ENTRIES // _angle_grid(alpha, beta, top)[1].size)
        for start in range(0, in_span.size, block):
            part = in_span[start:start + block]
            out[part] = _angle_rows(-flat[part], top, alpha, beta)
    return out.reshape(x.shape)


def check_orders(alpha, beta=1.0):
    """Raise MlfDomainError unless ALPHA_MIN <= alpha <= beta <= 1."""
    # chained comparisons are false at nan
    if not ALPHA_MIN <= alpha <= 1.0:
        raise MlfDomainError(
            f"alpha must lie in [{ALPHA_MIN:g}, 1], got {alpha!r}")
    if not alpha <= beta <= 1.0:
        raise MlfDomainError(
            f"beta must lie in [alpha, 1] = [{alpha!r}, 1], got {beta!r}")


def _series_edge(alpha, beta):
    """ln y at the seam of the series: E(-y) is summed where ln y is at
    most this."""
    if beta == 1.0:
        # u = 1.5 lies past |x| = 0.8 from alpha = 0.2 on
        return _LN_SEAM if alpha < _ALPHA_U_SEAM else alpha * _LN_U_SEAM
    return _LN_SEAM_BELOW_ONE


def _series(ln_y, alpha, beta, pair=False):
    """Taylor sum at x = -exp(ln_y), in log space, over the order's row of
    terms, adjacent pairs first (they nearly cancel). With pair, also
    returns sum_k k t_k."""
    row = _series_row(alpha, beta)
    ks = _KS[:row.size]
    terms = ks * ln_y
    np.exp(terms, terms)
    terms *= row
    total = float(_add(terms[0::2] + terms[1::2]))
    if not pair:
        return total
    terms *= ks
    return total, float(_add(terms[0::2] + terms[1::2]))


def _series_rows(ln_y, alpha, beta):
    """_series at x = -exp(ln_y) for rows at once, the same arithmetic on
    each."""
    row = _series_row(alpha, beta)
    terms = np.multiply.outer(ln_y, _KS[:row.size])
    np.exp(terms, out=terms)
    terms *= row
    return _add(terms[:, 0::2] + terms[:, 1::2], axis=1)


@functools.lru_cache(maxsize=64)
def _series_row(alpha, beta):
    """The series terms of one order, shared by its calls: per term k < n,
    (-1)^k / Gamma(alpha k + beta), which keeps each term's error near an
    ulp where the sum cancels. n = ceil(span / alpha) + 4, at most
    _ROW_CAP, rounded up to whole pairs."""
    span = 14.0 if alpha < _ALPHA_U_SEAM else 22.0
    n = min(math.ceil(span / alpha) + 4, _ROW_CAP)
    n += n & 1
    args = (alpha * _KS[:n] + beta).tolist()
    return _frozen(_SIGNS[:n] / np.fromiter(map(math.gamma, args), float))


def _frozen(a):
    a.flags.writeable = False
    return a


def _angle(y, ln_y, alpha, beta, pair=False):
    """E_{alpha,beta}(-y) for alpha < 1 and alpha <= beta <= 1, ln_y = ln y.

    The spectral integral, after w = sin(p) / sin(pi a - p) (which turns
    dw / (w^2 + 2 w cos(pi a) + 1) into dp / sin(pi a)), reads
        E_{a,b}(-y) = 1/(pi a) int_0^(pi a) exp(-r) r^(1-b)
                      sin(p + pi (b - a)) / sin(pi a - p) dp,
    r = (y w)^(1/a), with no pole left for any a < 1; the last factor is
    1 at b = 1. The trapezoid rule runs on the whole of the cached
    `_angle_grid` of the span of ln u that holds y, which holds r and
    r^(1-b) at the span's bottom y_s: at y, r scales by (y / y_s)^(1/a)
    and r^(1-b) by (y / y_s)^((1-b)/a). With pair, also returns sum_j W_j
    r_j e^(-r_j).
    """
    y_s, r, weights = _angle_grid(alpha, beta,
                                  _angle_span(math.ceil(ln_y / alpha)))
    q = y / y_s
    scale = q ** (1.0 / alpha)
    vals = r * -scale
    np.exp(vals, vals)
    vals *= weights
    e = float(_add(vals))
    if beta != 1.0:
        e *= q ** ((1.0 - beta) / alpha)
    if pair:
        return e, scale * float(_add(vals * r))
    return e


def _angle_rows(y, top, alpha, beta):
    """_angle for rows of y in the span of ln u below top at once, the
    same arithmetic on each (the per-row powers in Python floats, as
    _angle takes them)."""
    y_s, r, weights = _angle_grid(alpha, beta, top)
    qs = (y / y_s).tolist()
    inv = 1.0 / alpha
    # scale * -r is -scale * r, as _angle takes it
    vals = np.multiply.outer([q ** inv for q in qs], -r)
    np.exp(vals, out=vals)
    vals *= weights
    sums = _add(vals, axis=1)
    if beta != 1.0:
        expo = (1.0 - beta) / alpha
        sums *= [q ** expo for q in qs]
    return sums


def _angle_span(unit):
    """The top of the span of ln u, (top - 8, top] with top = 4 mod 8,
    that holds ln u in (unit - 1, unit]; on an int or an array of
    integral floats."""
    return unit + (_SPAN_SHIFT - unit) % _ANGLE_SPAN


def _lattice(lo, hi):
    """t - 0.1 e^-t and (1 + 0.1 e^-t) 0.25 / pi at t = 0.25 k, k = lo..hi."""
    t = _ANGLE_STEP * np.arange(lo, hi + 1)
    squeeze = np.exp(_LN_SQUEEZE - t)
    return t - squeeze, (1.0 + squeeze) * (_ANGLE_STEP / math.pi)


# the alpha-free part of every _angle_grid: t from -60 to 100, past what
# ALPHA_MIN (t ~ -27) and the last float below 1 (t ~ 87) need
_LATTICE_LO, _LATTICE_HI = -240, 400
_SHIFTED, _DILATE = _lattice(_LATTICE_LO, _LATTICE_HI)


@functools.lru_cache(maxsize=16)
def _angle_grid(alpha, beta, top):
    """The bottom y_s of the span ln u in (top - 8, top], and r and the
    weights (times r^(1-b) and the sine factor at b != 1) at y_s, per node
    of `_angle`.

    In z, p = pi a / (1 + e^-z), nodes resolve the boundary layer at
    p ~ sin(pi a) / y (the peak, r ~ 1) and the cut-off as p -> pi a. r
    varies like e^(z/a) there, so the step in z is 0.25 a; below the peak
    the integrand falls only like e^z, so the lattice runs in t,
    z = z_top + a (t - 0.1 e^-t), which squeezes that tail to a few dozen
    nodes. Sines are taken of the angle nearer to 0 (sin p = sin(eps +
    pi a - p), eps = pi (1 - a)), so none loses digits near pi.
    """
    big = math.pi * alpha
    lead = math.log(big / math.sin(big))
    lo = math.floor((_LN_SQUEEZE + math.log(alpha / _ANGLE_DROP))
                    / _ANGLE_STEP)
    hi = math.ceil((2.0 * lead / alpha + _ANGLE_SPAN + math.log(_R_CUT)
                    + 1.0) / _ANGLE_STEP)
    i, j = lo - _LATTICE_LO, hi - _LATTICE_LO + 1
    s = _SHIFTED[i:j] * alpha
    s -= lead + alpha * top
    np.exp(s, s)  # e^z
    d = s + 1.0
    np.reciprocal(d, d)  # 1 - p / (pi a)
    angles = np.array((s * d, d))
    angles *= big  # p and pi a - p
    eps = math.pi * (1.0 - alpha)  # not pi - big, which rounds near 1
    sines = np.sin(np.minimum(angles, eps + angles[::-1]))
    r, weights = nodes = np.empty((2, s.size))
    # dp/dt / (pi a) = p (pi a - p) / (pi a)^2 * a (1 + 0.1 e^-t)
    np.multiply(angles[0], d, weights)
    weights *= _DILATE[i:j]
    # r at the span's bottom y_s, which no y of the span lies below: y_s w
    # first, then its power
    y_s = math.exp(alpha * (top - _ANGLE_SPAN))
    np.divide(sines[0], sines[1], r)
    r *= y_s
    if beta != 1.0:
        # r^(1-b) from y_s w: r itself underflows to 0 at small alpha
        weights *= r ** ((1.0 - beta) / alpha) * np.sin(np.minimum(
            angles[0] + math.pi * (beta - alpha),
            math.pi * (1.0 - beta) + angles[1])) / sines[1]
    np.power(r, 1.0 / alpha, r)
    _frozen(nodes)
    return y_s, r, weights
