"""Reference implementations the tests compare against.

Everything here is written with a different algorithm than the package uses,
so each comparison exercises two independent routes to the same number.
"""

import math

import numpy as np
from mpmath import mp


def bisect_root(fn, lo, hi, iters=200):
    """Plain bisection, no polishing. Assumes fn(lo) <= 0 <= fn(hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def char_poly_max_eig(S):
    """Largest real eigenvalue via Faddeev-LeVerrier coefficients + np.roots."""
    a = np.asarray(S, dtype=float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    roots = np.roots(coeffs)
    return float(np.max(roots.real))


def caputo_l1_node(values, alpha, k, h):
    """L1 Caputo derivative at node k alone, summed term by term with fsum.

    The weight of the increment values[j] - values[j-1] is
    (k-j+1)^(1-alpha) - (k-j)^(1-alpha), with 0^(1-alpha) read as its
    alpha < 1 limit 0, so alpha = 1 gives the backward difference without
    a branch of its own.
    """
    def power(m):
        return 0.0 if m == 0 else float(m) ** (1.0 - alpha)

    total = math.fsum(
        (power(k - j + 1) - power(k - j)) * (values[j] - values[j - 1])
        for j in range(1, k + 1)
    )
    return total * h**-alpha / math.gamma(2.0 - alpha)


def ml_reference(x, alpha, beta=1.0):
    """Mittag-Leffler series summed in adaptive-precision arithmetic.

    For x < 0 the partial sums cancel down from about exp(|x|**(1/alpha)), so
    the working precision grows with that exponent. Keep |x|**(1/alpha) below
    roughly 90; past that the digit count (and runtime) explodes and the
    closed forms in the tests take over.
    """
    u = 0.0 if x == 0.0 else abs(float(x)) ** (1.0 / alpha)
    dps = 40 + int(u / math.log(10.0))
    with mp.workdps(dps):
        return float(_ml_mp(mp.mpf(float(x)), alpha, beta))


def _ml_mp(xm, alpha, beta):
    """The Mittag-Leffler series at xm in the working precision."""
    # gamma argument formed in working precision: rounding it to a double
    # gets amplified by the huge cancellation and wrecks the sum
    am = mp.mpf(float(alpha))
    bm = mp.mpf(float(beta))
    total = mp.mpf(0)
    floor = mp.mpf(10) ** (10 - mp.dps)
    prev = mp.inf
    k = 0
    while True:
        term = xm ** k / mp.gamma(am * k + bm)
        total += term
        mag = abs(term)
        if mag < floor * (1 + abs(total)) and mag <= prev:
            return total
        prev = mag
        k += 1
        if k > 200000:
            raise RuntimeError("series did not settle")


def rate_root(alpha, a, bs, qs, guess):
    """Root of lambda - a + sum_k b_k / E_alpha(-lambda q_k^alpha) = 0.

    Plain bisection on values computed in 40-digit arithmetic (E_1 is
    exp), over the bracket guess (1 -+ 1e-9), whose signs it checks
    first, to a width below 1e-20 of it. Meant for |lambda q^alpha|^(1 /
    alpha) up to a few units.
    """
    with mp.workdps(40):
        am = mp.mpf(float(alpha))

        def h(lam):
            acc = lam - mp.mpf(a)
            for b, q in zip(bs, qs):
                x = -lam * mp.mpf(float(q)) ** am
                e = mp.exp(x) if alpha == 1.0 else _ml_mp(x, alpha, 1.0)
                acc += mp.mpf(b) / e
            return acc

        width = mp.mpf(guess) * mp.mpf("1e-9")
        lo, hi = mp.mpf(guess) - width, mp.mpf(guess) + width
        if not h(lo) < 0 < h(hi):
            raise ValueError(f"no root within 1e-9 of {guess!r}")
        for _ in range(40):
            mid = (lo + hi) / 2
            if h(mid) <= 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def rk4_dde(sys, t_end, h):
    """Classical method-of-steps RK4 for alpha = 1 delay systems.

    Dense history between nodes is cubic Hermite from stored states and
    slopes; delayed arguments at or before 0 read the initial function.
    Returns (times, states).
    """
    d = sys.dim
    n = int(round(t_end / h))
    ts = h * np.arange(n + 1)

    def A(t):
        return np.array([[sys.A[i][j].eval(t) for j in range(d)] for i in range(d)])

    def B(t):
        return np.array([[sys.B[i][j].eval(t) for j in range(d)] for i in range(d)])

    def phi(s):
        return np.array([p.eval(s) for p in sys.phi])

    xs = np.zeros((n + 1, d))
    fs = np.zeros((n + 1, d))
    done = 0

    def hist(s):
        if s <= 0.0:
            return phi(s)
        i = min(max(int(math.ceil(s / h - 1e-12)), 1), done)
        th = (s - ts[i - 1]) / h
        h00 = (1 + 2 * th) * (1 - th) ** 2
        h10 = th * (1 - th) ** 2
        h01 = th * th * (3 - 2 * th)
        h11 = th * th * (th - 1)
        return (h00 * xs[i - 1] + h * h10 * fs[i - 1]
                + h01 * xs[i] + h * h11 * fs[i])

    def f(t, x):
        return A(t) @ x + B(t) @ hist(t - sys.q[0].eval(t))

    xs[0] = phi(0.0)
    fs[0] = f(0.0, xs[0])
    for k in range(n):
        t = ts[k]
        x = xs[k]
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        xs[k + 1] = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        done = k + 1
        fs[k + 1] = f(ts[k + 1], xs[k + 1])
    return ts, xs


def trapezoid_direct(sys, t_end, h):
    """Implicit fractional product-trapezoid rule, one node at a time.

    Every node recomputes its product-trapezoid weights from the closed
    forms, sums the full history with fsum and solves its own d x d system
    (I - g2 A') x = x0 + g2 (hist + known) for the current state, where
    f = A x + sum_k B_k x(t - q_k). Delayed arguments at or before 0 read
    the initial function; later ones interpolate linearly between the two
    bracketing nodes. A delay k whose time lies a fraction w_k of a step
    past the newest node interpolates with the current state: it adds
    w_k B_k to A', and (1 - w_k) B_k x_(k-1) to the known part. Returns
    (times, states, rhs).
    """
    alpha, d = sys.alpha, sys.dim
    n = int(round(t_end / h))
    ts = [h * k for k in range(n + 1)]
    g2 = h**alpha / math.gamma(alpha + 2.0)

    def mat(rows, t):
        return np.array([[e.eval(t) for e in row] for row in rows])

    def corr_w(k, j):
        if j == 0:
            return (k - 1) ** (alpha + 1.0) - (k - 1 - alpha) * k**alpha
        m = k - j
        return ((m + 1) ** (alpha + 1.0) + (m - 1) ** (alpha + 1.0)
                - 2.0 * m ** (alpha + 1.0))

    def weighted(fs, w):
        return np.array([math.fsum(w[j] * fs[j][c] for j in range(len(fs)))
                         for c in range(d)])

    x0 = np.array([p.eval(0.0) for p in sys.phi])
    xs, fs = [x0], []
    for k in range(n + 1):
        t = ts[k]
        a, b_row = mat(sys.A, t), mat(sys.B, t)
        known = np.zeros(d)
        for j, q in enumerate(sys.q):
            b = b_row[:, j * d:(j + 1) * d]
            s = t - min(max(q.eval(t), 0.0), sys.tau)
            if s <= 0.0:
                known = known + b @ np.array([p.eval(s) for p in sys.phi])
                continue
            pos = s / h
            i = math.floor(pos)
            if i < k - 1:
                frac = pos - i
                known = known + b @ ((1.0 - frac) * xs[i] + frac * xs[i + 1])
            else:
                w = pos - (k - 1)
                a = a + w * b
                known = known + (1.0 - w) * b @ xs[k - 1]
        if k == 0:
            fs.append(a @ x0 + known)
            continue
        hist = weighted(fs, [corr_w(k, j) for j in range(k)])
        x = np.linalg.solve(np.eye(d) - g2 * a, x0 + g2 * (hist + known))
        xs.append(x)
        fs.append(a @ x + known)
    return np.array(ts), np.array(xs), np.array(fs)
