"""Two-parameter Mittag-Leffler function on the real line.

The evaluator works in float64 and splits the axis into regimes: the
Taylor series wherever it is numerically safe, the algebraic tail
expansion for large negative arguments, and a quadrature of the
spectral representation inside the cancellation window between the two
(where the alternating series loses roughly half its digits); for alpha
near 1 that quadrature runs in an angle variable. The alpha-dependent
parts of each route (Gamma rows, quadrature grids) are cached, so runs
of calls at one order, as in a rate scan, share them.
"""

import functools
import math
import threading

import mpmath
import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import MlfDomainError, MlfOverflowError, SeriesCapError

__all__ = ["ml", "mittag_leffler_deriv"]

SERIES_CAP = 10_000
ASYM_CAP = 2_000

# regime bounds on u = |x|^(1/alpha), kept in log form so routing never
# has to exponentiate a potentially overflowing power
_LN_U_SERIES = math.log(6.5)
_LN_U_ASYM = math.log(25.0)

_EXP_MAX = 709.782712893384
_LN_OVER = math.log(740.0)

_MP_LOCK = threading.Lock()

# term indices and the (-1)^(k+1) signs of the tail expansion, sliced per chunk
_KS = np.arange(SERIES_CAP, dtype=np.float64)
_SIGNS = 2.0 * (_KS % 2.0) - 1.0


def ml(x, alpha, beta=1.0):
    """Evaluate E_{alpha,beta}(x) for real x, alpha in (0,1], beta > 0."""
    if not math.isfinite(alpha) or not 0.0 < alpha <= 1.0:
        raise MlfDomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not math.isfinite(beta) or beta <= 0.0:
        raise MlfDomainError(f"beta must be finite and positive, got {beta!r}")
    if not math.isfinite(x):
        raise MlfDomainError(f"argument must be finite, got {x!r}")

    if alpha == 1.0 and beta == 1.0:
        if x > _EXP_MAX:
            raise MlfOverflowError(f"exp({x}) exceeds float64 range")
        return math.exp(x)

    if x == 0.0:
        try:
            return 1.0 / math.gamma(beta)
        except OverflowError:
            return 0.0

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


def mittag_leffler_deriv(alpha, x):
    """d/dx E_alpha(x), computed as E_{alpha,alpha}(x)/alpha."""
    return ml(x, alpha, alpha) / alpha


def _series(x, alpha, beta):
    """Taylor sum in log space, vectorized over chunks of terms."""
    ln_ax = math.log(abs(x))
    neg = x < 0.0
    chunk = 64 + int(32.0 / alpha)
    chunk += chunk & 1  # even length keeps term parity aligned per chunk
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


def _asym_neg(alpha, beta, ln_y):
    """Algebraic tail expansion at x = -y, truncated at its smallest term.

    Term magnitudes dip sharply next to the Gamma poles (where the
    coefficient 1/Gamma(beta - alpha*k) vanishes), so the truncation
    point is chosen on the smooth reflection-formula envelope
    y^-k * Gamma(alpha*k + 1 - beta) / pi, not on the raw magnitudes.
    Returns (value, crude); crude signals that even the optimal
    truncation leaves more than ~1e-11 relative error.
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
    crude = math.exp(min(env[m], 300.0)) > 1e-11 * (scale + 1.0)
    return float(vals.sum()), crude


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
