import pathlib

import numpy as np
import pytest

from halanay.expr import TimeExpr

REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def config_dir():
    return REPO / "configs"


@pytest.fixture
def eval_counts(monkeypatch):
    """TimeExpr.eval_array calls during the test, keyed by id of the expression."""
    calls = {}
    original = TimeExpr.eval_array

    def counted(self, ts):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self, ts)

    monkeypatch.setattr(TimeExpr, "eval_array", counted)
    return calls


def on_grid(fn, traj):
    """fn(t) at every node of a trajectory, as check_envelope takes it."""
    return np.array([fn(t) for t in traj.grid])


def column_sums(sys_, ts):
    """a(t) = -max_j sum_i A_ij(t) and, one row per delay k, b_k(t) =
    max_j sum_i (B_k)_ij(t) at ts, summed here from the sampled matrices."""
    A, B, _ = sys_.sample(ts)
    d = sys_.dim
    b_rows = [B[:, k * d:(k + 1) * d].sum(axis=0).max(axis=0)
              for k in range(len(sys_.q))]
    return -A.sum(axis=0).max(axis=0), np.array(b_rows)
