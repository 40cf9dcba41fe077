"""Order-preserving structure checks and the l1 decay certificate.

A delay system x' (in the Caputo sense) = A(t) x + sum_k B_k(t) x(t - q_k(t))
is order preserving when A(t) is Metzler and every B_k(t) is
nonnegative. Column sums of A and of each B_k then bound the l1 norm of
any nonnegative solution by a scalar comparison inequality with one
delay term per k, which halanay.certify certifies from the same sampled
arrays; certify_positive returns its verdict and certificate unchanged.
The resulting envelope is sup_s ||phi(s)||_1 times
E_alpha(-lambda* t^alpha). At dim 1 the column sums are the entries
themselves, so a scalar comparison inequality is this route's d = 1 case.

DelaySystem.sample is the one place A, B and the delays q are evaluated;
both routes and fdde.solve take their coefficients from it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import halanay as _hal
from .errors import StructureError
from .mlf import check_orders

__all__ = [
    "DelaySystem",
    "certify_positive",
    "initial_amplitude",
]

SIGN_SLACK = -1e-12  # absorbs expression-evaluation rounding
AMPLITUDE_SAMPLES = 10_000


@dataclass(frozen=True)
class DelaySystem:
    alpha: float
    dim: int
    A: list  # dim x dim nested list of TimeExpr
    B: list  # dim x (K*dim) block row [B_1 ... B_K] of TimeExpr
    q: tuple  # K TimeExpr, one delay per block of B; a bare one means K = 1
    tau: float
    phi: list  # dim TimeExpr in the history variable on [-tau, 0]

    def __post_init__(self):
        q = tuple(self.q) if isinstance(self.q, (tuple, list)) else (self.q,)
        object.__setattr__(self, "q", q)
        check_orders(self.alpha)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.q:
            raise ValueError("q must hold at least one delay")
        for name, mat, cols in (("A", self.A, self.dim),
                                ("B", self.B, len(self.q) * self.dim)):
            if len(mat) != self.dim or any(len(row) != cols for row in mat):
                raise ValueError(f"{name} must be {self.dim}x{cols}")
        if len(self.phi) != self.dim:
            raise ValueError(f"phi must have {self.dim} components")

    def sample(self, ts):
        """A(t), B(t) and the delays q(t) on the n times ts, shaped (dim,
        dim, n), (dim, K*dim, n) and (K, n); each entry evaluated once."""
        out = []
        for rows in (self.A, self.B, (self.q,)):  # q as a 1 x K matrix
            vals = np.empty((len(rows), len(rows[0]), len(ts)))
            for i, row in enumerate(rows):
                for j, entry in enumerate(row):
                    vals[i, j] = entry.eval_array(ts)
            out.append(vals)
        return out[0], out[1], out[2][0]


def initial_amplitude(sys, kind="l1"):
    """sup over s in [-tau, 0] of ||phi(s)||_1 ('l1') or phi(s)^T phi(s) ('sq').

    Reads only sys.phi and sys.tau. Uniform sampling; phi is assumed
    smooth enough that the grid sup is an adequate stand-in for the
    continuous one. A bad kind raises ValueError before phi is evaluated.

    Each component is sampled on its own, folded in place (|phi_i| or
    phi_i^2) and added, in component order, to one running total, so
    memory does not grow with dim.
    """
    if kind not in ("l1", "sq"):
        raise ValueError(f"kind must be 'l1' or 'sq', got {kind!r}")
    fold = np.abs if kind == "l1" else np.square
    ss = np.linspace(-sys.tau, 0.0, AMPLITUDE_SAMPLES)
    total = np.zeros_like(ss)
    for p in sys.phi:
        vals = p.eval_array(ss)  # a fresh array, so folding in place is safe
        total += fold(vals, out=vals)
    return float(np.max(total))


def certify_positive(sys, grid, a_bounded=None):
    """Certify the l1 envelope from the column sums of A and of each B_k.

    Returns halanay.certify's (verdict, certificate); the certificate is
    None when neither condition holds (the verdict carries the
    diagnostics). Structure violations raise, since the comparison
    argument needs them.
    """
    ts = grid.times()
    a_vals, b_vals, q_vals = sys.sample(ts)
    off = ~np.eye(sys.dim, dtype=bool)
    bad = []
    if not np.min(a_vals[off], initial=np.inf) >= SIGN_SLACK:
        bad.append("A has a negative off-diagonal entry on the grid")
    if not np.min(b_vals) >= SIGN_SLACK:
        bad.append("B has a negative entry on the grid")
    if bad:
        raise StructureError("; ".join(bad))
    # the column sums: a(t) = -max_j sum_i A_ij(t) and, one row per delay,
    # b_k(t) = max_j sum_i (B_k)_ij(t); B passed the structure check, so
    # clamping b only absorbs rounding
    a_fun = -a_vals.sum(axis=0).max(axis=0)
    b_rows = b_vals.sum(axis=0).reshape(len(sys.q), sys.dim, len(ts))
    return _hal.certify(
        sys.alpha, sys.tau, ts, a_fun, np.maximum(b_rows.max(axis=1), 0.0),
        q_vals, np.zeros_like(ts), initial_amplitude(sys, "l1"), a_bounded=a_bounded,
    )
