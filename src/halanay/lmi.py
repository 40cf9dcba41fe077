"""Time-parametrized matrix-inequality route to an l2 decay envelope.

At each grid time the block matrix

    S(t) = [ A(t)^T + A(t) + gamma(t) I    B(t)      ]
           [ B(t)^T                       -sigma(t) I ]

must be negative semidefinite. Together with gamma bounded away from 0
and sup sigma/gamma < 1, the squared norm V = x^T x then obeys the same
scalar comparison inequality the halanay module certifies, giving
||x(t)|| <= sqrt(M2 * E_alpha(-lambda* t^alpha)) with M2 = sup phi^T phi;
halanay.certify certifies gamma and sigma as its a and b, and
halanay.classify_conditions alone classifies them when a block fails.
The blocks of the whole grid are assembled as one stack and their top
eigenvalues come from a single batched symmetric eigen solve.

certify_lmi returns (verdict, certificate) like the positive route:
the verdict (LmiReport) is the scalar problem's ConditionVerdict plus
what the eigen scan found, and the certificate is None when the blocks
or the scalar conditions fail.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import halanay as _hal
from .errors import InfeasiblePointError
from .positivity import initial_amplitude

__all__ = ["LmiReport", "lmi_block", "max_eigen_sym", "certify_lmi"]


EIGEN_TOL = 1e-10  # semidefiniteness slack on the largest block eigenvalue


@dataclass(frozen=True)
class LmiReport(_hal.ConditionVerdict):
    feasible: bool  # blocks semidefinite and the verdict not NONE
    worst_eigen: float  # max over grid of the largest block eigenvalue
    worst_t: float


def lmi_block(A, B, gamma_val, sigma_val):
    """Assemble [[A^T+A+gamma I, B], [B^T, -sigma I]]; exactly symmetric.

    A and B may also be stacks of shape (n, d, d), with gamma_val and
    sigma_val of shape (n,); the result is then the (n, 2d, 2d) stack.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if B.shape != A.shape:
        raise ValueError(f"B shape {B.shape} does not match A shape {A.shape}")
    eye = np.eye(A.shape[-1])
    g = np.asarray(gamma_val, dtype=float)[..., None, None]
    s = np.asarray(sigma_val, dtype=float)[..., None, None]
    return np.block([[np.swapaxes(A, -1, -2) + A + g * eye, B],
                     [np.swapaxes(B, -1, -2), -s * eye]])


def max_eigen_sym(S):
    """Largest eigenvalue of a symmetric matrix, or of each matrix in a stack.

    S has shape (m, m), giving a float, or (n, m, m), giving n values.
    Each matrix must be symmetric to 1e-12 relative to its largest entry.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {S.shape}")
    St = np.swapaxes(S, -1, -2)
    asym = np.max(np.abs(S - St), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(S), axis=(-2, -1), initial=0.0)
    if np.any(asym > 1e-12 * np.maximum(1.0, scale)):
        raise ValueError("matrix is not symmetric within tolerance")
    top = np.linalg.eigvalsh(0.5 * (S + St))[..., -1]
    return float(top) if top.ndim == 0 else top


def certify_lmi(sys, gamma, sigma, grid):
    """Scan the grid for block feasibility and certify the l2 envelope.

    gamma and sigma are TimeExpr, nonnegative on the grid; the amplitude
    is M2 = sup phi^T phi, and sys has one delay (ValueError otherwise,
    before anything is sampled). Returns (verdict, certificate). Infeasibility (a positive
    eigenvalue beyond EIGEN_TOL, gamma touching 0, or sigma/gamma
    reaching 1) is reported, not raised; the certificate is then None.
    """
    if len(sys.q) != 1:
        raise ValueError(f"certify_lmi takes a single delay, got {len(sys.q)}")
    M2 = initial_amplitude(sys, "sq")
    ts = grid.times()
    g_vals = gamma.eval_array(ts)
    s_vals = sigma.eval_array(ts)
    if np.min(g_vals) < 0 or np.min(s_vals) < 0:
        raise InfeasiblePointError("gamma and sigma must be nonnegative on the grid")
    a_vals, b_vals, q_vals = sys.sample(ts)
    eigs = max_eigen_sym(lmi_block(
        np.moveaxis(a_vals, -1, 0), np.moveaxis(b_vals, -1, 0), g_vals, s_vals
    ))
    arg = int(np.argmax(eigs))
    worst_eigen = float(eigs[arg])
    # gamma and sigma play a and b of the scalar inequality; its verdict is
    # NONE exactly when min gamma = 0 or max sigma/gamma >= 1
    coeffs = (g_vals, s_vals[None], q_vals, np.zeros_like(ts))
    if worst_eigen <= EIGEN_TOL:
        verdict, cert = _hal.certify(sys.alpha, sys.tau, ts, *coeffs, M2)
    else:
        verdict, cert = _hal.classify_conditions(sys.tau, *coeffs), None
    return LmiReport(
        **asdict(verdict),
        feasible=cert is not None,
        worst_eigen=worst_eigen,
        worst_t=float(ts[arg]),
    ), cert
