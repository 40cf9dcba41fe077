"""Two-parameter Mittag-Leffler function on the real line.

The evaluator works in float64 and splits the axis into regimes: the
Taylor series wherever it is numerically safe, the algebraic tail
expansion for large negative arguments, and a quadrature of the
spectral representation inside the cancellation window between the two
(where the alternating series loses roughly half its digits); for alpha
near 1 that quadrature runs in an angle variable. The alpha-dependent
parts of each route (Gamma rows, quadrature grids) are cached, so runs
of calls at one order, as in a rate scan, share them.

ml evaluates one argument; ml_array evaluates an array of them, summing
the series band of the negative axis for all its elements at once and
passing every other element to ml, so both return the same values.
"""

import functools
import math
import threading

import mpmath
import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import MlfDomainError, MlfOverflowError, SeriesCapError

__all__ = ["ml", "ml_array", "mittag_leffler_deriv"]

SERIES_CAP = 10_000
ASYM_CAP = 2_000

# regime bounds on u = |x|^(1/alpha), kept in log form so routing never
# has to exponentiate a potentially overflowing power
_LN_U_SERIES = math.log(6.5)
_LN_U_ASYM = math.log(25.0)
# terms per ml_array series block, which bounds its (rows, chunk) matrix
_BLOCK_TERMS = 1 << 17

_EXP_MAX = 709.782712893384
_LN_OVER = math.log(740.0)

_MP_LOCK = threading.Lock()

# term indices and the (-1)^(k+1) signs of the tail expansion, sliced per chunk
_KS = np.arange(SERIES_CAP, dtype=np.float64)
_SIGNS = 2.0 * (_KS % 2.0) - 1.0


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

    y = -x
    ln_y = math.log(y)
    lu = ln_y / alpha
    if lu > _LN_U_ASYM:
        val, crude = _asym_neg(alpha, beta, ln_y)
        if not crude or lu > math.log(60.0):
            return val
        # truncation too coarse this close to the seam; use a denser route
    elif lu <= _LN_U_SERIES:
        return _series(x, alpha, beta)
    if beta == 1.0 or beta == alpha:
        if alpha <= 0.995:
            return _spectral(math.exp(lu), alpha, beta)
        return _angular(math.exp(lu), alpha, beta)
    return _mp_series(x, alpha, beta)


def ml_array(x, alpha, beta=1.0):
    """Evaluate E_{alpha,beta} elementwise on an array of real x.

    Negative elements inside the series band are summed together, one
    Taylor series per row in blocks of rows; x == 0 gives 1/Gamma(beta)
    and every other element (positive, window, tail) goes through ml, so
    each value is the one ml returns, whichever route it takes. Returns
    an array of the shape of x.
    """
    _check_orders(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise MlfDomainError("argument must be finite")
    if x.size <= 4:  # ml per element is faster than a block here
        vals = [ml(v, alpha, beta) for v in x.ravel().tolist()]
        return np.array(vals, dtype=np.float64).reshape(x.shape)
    if alpha == 1.0 and beta == 1.0:
        if x.size and x.max() > _EXP_MAX:
            raise MlfOverflowError(f"exp({x.max()}) exceeds float64 range")
        vals = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size)
        return vals.reshape(x.shape)

    flat = x.ravel()
    out = np.empty(flat.shape)
    zero = flat == 0.0
    out[zero] = _at_zero(beta)
    neg = np.flatnonzero(flat < 0.0)
    # math.log as in ml, not np.log: near its seam the series loses ~10
    # digits to cancellation, so a last-bit change of ln|x| shows in the sum
    ln_y = np.fromiter(map(math.log, (-flat[neg]).tolist()), float, neg.size)
    band = ln_y / alpha <= _LN_U_SERIES
    rows, ln_y = neg[band], ln_y[band]
    other = ~zero
    other[rows] = False
    for i in np.flatnonzero(other):
        out[i] = ml(float(flat[i]), alpha, beta)
    block = max(1, _BLOCK_TERMS // _series_chunk(alpha))
    for start in range(0, rows.size, block):
        stop = start + block
        out[rows[start:stop]] = _series_rows(ln_y[start:stop], alpha, beta)
    return out.reshape(x.shape)


def mittag_leffler_deriv(alpha, x):
    """d/dx E_alpha(x), computed as E_{alpha,alpha}(x)/alpha."""
    return ml(x, alpha, alpha) / alpha


def _check_orders(alpha, beta):
    if not math.isfinite(alpha) or not 0.0 < alpha <= 1.0:
        raise MlfDomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not math.isfinite(beta) or beta <= 0.0:
        raise MlfDomainError(f"beta must be finite and positive, got {beta!r}")


def _at_zero(beta):
    try:
        return 1.0 / math.gamma(beta)
    except OverflowError:
        return 0.0


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
        else:
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


def _asym_neg(alpha, beta, ln_y):
    """Algebraic tail expansion at x = -y, truncated at its smallest term.

    Term magnitudes dip sharply next to the Gamma poles (where the
    coefficient 1/Gamma(beta - alpha*k) vanishes), so the truncation
    point is chosen on the smooth reflection-formula envelope
    y^-k * Gamma(alpha*k + 1 - beta) / pi, not on the raw magnitudes.
    Returns (value, crude); crude signals that the smallest envelope
    term exceeds 1e-13 of the value. That term underestimates the
    truncation error by up to ~100x next to the seam, so the bound keeps
    the error of an accepted value near 1e-11 relative.
    """
    lts = []
    sgs = []
    envs = []
    scale = None
    emin = math.inf
    k0 = 1
    while k0 <= ASYM_CAP:
        hi = min(k0 + 128, ASYM_CAP + 1)
        right, lg_z, sg, lg_refl = _asym_row(alpha, beta, k0, hi)
        mk = -_KS[k0:hi] * ln_y
        lt = mk - lg_z
        env = np.where(right, lt, mk + lg_refl - math.log(math.pi))
        lts.append(lt)
        sgs.append(sg)
        envs.append(env)
        if scale is None:
            scale = math.exp(min(float(env.max()), 300.0))
        emin = min(emin, float(env.min()))
        if emin < math.log(1e-18 * scale + 1e-300):
            break
        if float(env[-1]) > emin + 2.0:
            break
        k0 = hi
    if len(lts) > 1:
        lt = np.concatenate(lts)
        sg = np.concatenate(sgs)
        env = np.concatenate(envs)
    m = int(env.argmin())
    with np.errstate(over="ignore"):
        vals = sg[: m + 1] * np.exp(lt[: m + 1])
    val = float(vals.sum())
    crude = math.exp(min(env[m], 300.0)) > 1e-13 * abs(val)
    return val, crude


@functools.lru_cache(maxsize=64)
def _asym_row(alpha, beta, k0, hi):
    """The y-free parts of tail terms k0..hi-1, shared by calls at one alpha.

    Returns the mask z >= 0.5, ln|Gamma(z)|, the term signs and
    ln Gamma(1 - z), for z = beta - alpha*k.
    """
    ks = _KS[k0:hi]
    z = beta - alpha * ks
    lg_z = gammaln(z)
    # gammasgn is NaN at the poles where the coefficient vanishes
    sg = np.where(np.isfinite(lg_z), gammasgn(z) * _SIGNS[k0:hi], 0.0)
    lg_refl = gammaln(1.0 - z)
    return _frozen(z >= 0.5), _frozen(lg_z), _frozen(sg), _frozen(lg_refl)


@functools.lru_cache(maxsize=64)
def _series_row(alpha, beta, k0, hi):
    """ln Gamma(alpha*k + beta), k = k0..hi-1, shared by calls at one alpha."""
    return _frozen(gammaln(alpha * _KS[k0:hi] + beta))


def _frozen(a):
    a.flags.writeable = False
    return a


def _spectral(u, alpha, beta):
    """Quadrature of the spectral density, for beta in {1, alpha} only.

    E_alpha(-u^alpha) = sin(pi a)/(pi a) * int_0^inf exp(-w^(1/a) u) /
    (w^2 + 2 cos(pi a) w + 1) dw; substituting w = e^v makes the
    integrand analytic in a strip around the real v-axis, so the
    trapezoid rule converges geometrically in 1/step. The step is tied
    to the strip half-width: poles of the density sit at height
    (1-alpha)*pi and the double-exponential factor turns to growth at
    height alpha*pi/2.
    """
    s = math.sin(math.pi * alpha)
    step, w_all, ev_all, den_all = _spectral_grid(alpha)
    n = _spectral_len(alpha, step, u)
    w, ev, den = w_all[:n], ev_all[:n], den_all[:n]
    damp = np.exp(-ev * u)
    if beta == 1.0:
        total = float((w * damp / den).sum())
        return s / (alpha * math.pi) * step * total
    total = float((w * ev * damp / den).sum())
    return u ** (1.0 - alpha) * s / (alpha * math.pi) * step * total


def _spectral_len(alpha, step, u):
    v_hi = alpha * math.log(46.0 / u)
    return int(math.ceil((v_hi + 40.0) / step)) + 1


@functools.lru_cache(maxsize=4)
def _spectral_grid(alpha):
    """The u-free parts of the `_spectral` grid v = -40 + step*j: the step,
    w = e^v, e^(v/alpha) and the density's denominator. Long enough for
    any u >= 1; each call takes the prefix it needs.
    """
    # keep >= 5 (resp. 10) grid points per unit of strip half-width
    step = min(math.pi * (1.0 - alpha) / 5.0, math.pi * alpha / 10.0)
    v = -40.0 + step * np.arange(_spectral_len(alpha, step, 1.0))
    w = np.exp(v)
    den = (w + 2.0 * math.cos(math.pi * alpha)) * w + 1.0
    return step, _frozen(w), _frozen(np.exp(v / alpha)), _frozen(den)


def _angular(u, alpha, beta):
    """Quadrature in the angle form, for alpha near 1 and beta in {1, alpha}.

    As alpha -> 1 the spectral density's poles close in on the real
    axis, so `_spectral` would need a step shrinking like 1 - alpha.
    Substituting w = sin(d) / sin(pi a - d) into the spectral integral
    gives E_alpha(-u^alpha) = 1/(pi a) * int_0^(pi a) exp(-u w^(1/a)) dd
    with no pole left. The trapezoid rule runs in z, d = pi a / (1 + e^-z),
    which resolves both the boundary layer of width ~pi (1 - a) / u at
    d = 0 and the cut-off at d -> pi a, where the integrand underflows.
    Both sines are taken of the angle nearer to 0 (sin d = sin(eps +
    pi a - d), eps = pi (1 - a)), so neither loses digits near pi.
    """
    big = math.pi * alpha
    eps = math.pi * (1.0 - alpha)
    step = 0.2
    z_lo = math.log(eps / u) - 40.0
    z_hi = math.log(big / eps) + alpha * math.log(800.0 / u)
    z = z_lo + step * np.arange(int(math.ceil((z_hi - z_lo) / step)) + 1)
    e = np.exp(-z)
    d = big / (1.0 + e)
    dc = d * e  # pi a - d, without the cancellation
    w = np.sin(np.minimum(d, eps + dc)) / np.sin(np.minimum(dc, eps + d))
    pw = w ** (1.0 / alpha)
    # |dd/dz| = d * dc / (pi a); the 1/(pi a) prefactor folds in
    vals = np.exp(-u * pw) * d * dc
    if beta == alpha:
        vals *= pw
    total = step * float(vals.sum()) / (big * big)
    return total if beta == 1.0 else u ** (1.0 - alpha) * total


def _mp_series(x, alpha, beta):
    """High-precision fallback for the rare regimes the fast paths skip."""
    with _MP_LOCK, mpmath.workdps(60):
        xm = mpmath.mpf(x)
        am = mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        eps = mpmath.mpf("1e-40")
        small = 0
        for k in range(100_000):
            term = xm**k / mpmath.gamma(am * k + beta)
            total += term
            if abs(term) < eps * (abs(total) + 1):
                small += 1
                if small >= 4:
                    return float(total)
            else:
                small = 0
    raise SeriesCapError(
        f"high-precision series for E_({alpha},{beta})({x}) stalled"
    )
