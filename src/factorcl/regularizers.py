"""Training-time regularizers over task factors.

Orthogonality pushes U, V toward column-orthonormal Gram matrices so
post-training singular-value pruning has the usual SVD error meaning;
the Hoyer ratio ||sigma||_1 / ||sigma||_2 pushes singular-value mass
into few entries so pruning removes more.  Both come in two forms: an
eager value for reporting/tests, and a graph builder used inside the
training objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericError
from .factorized import TaskFactors

HOYER_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    lambda_orth: float
    lambda_sparse: float

    def __post_init__(self):
        for name in ("lambda_orth", "lambda_sparse"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {val}")


def gram_deviation(m: np.ndarray) -> float:
    """Plain Frobenius norm of M^T M - I."""
    r = m.shape[1]
    return float(np.linalg.norm(m.T.astype(np.float64) @ m.astype(np.float64) - np.eye(r)))


def l_orth(factors: TaskFactors) -> float:
    """Sum over layers of (1/r^2)(||U^T U - I||_F + ||V^T V - I||_F).

    Norms are non-squared and the scaling is 1/r^2, matching the
    objective the trainer optimizes.
    """
    total = 0.0
    for u, v in zip(factors.u, factors.v):
        r = u.shape[1]
        total += (gram_deviation(u) + gram_deviation(v)) / (r * r)
    return total


def l_sparse(factors: TaskFactors, guarded: bool = False) -> float:
    """Hoyer ratio ||sigma||_1 / ||sigma||_2 summed over layers.

    The exact form divides by ||sigma||_2 and raises on an all-zero
    layer; the guarded form adds a tiny epsilon to the denominator and
    is what training uses.
    """
    total = 0.0
    for i, s in enumerate(factors.sigma):
        s64 = np.abs(s.astype(np.float64))
        l2 = float(np.sqrt((s64 * s64).sum()))
        if guarded:
            total += float(s64.sum()) / (l2 + HOYER_EPS)
        else:
            if l2 == 0.0:
                raise NumericError(f"layer {i}: Hoyer ratio undefined for all-zero sigma")
            total += float(s64.sum()) / l2
    return total


# -- graph builders ------------------------------------------------------------


def l_orth_graph(g: ad.Graph, u_leaves: list[int], v_leaves: list[int]) -> int:
    """Graph node computing l_orth over the given factor leaves."""
    total = None
    for u, v in zip(u_leaves, v_leaves):
        r = g.value(u).shape[1]
        neg_eye = g.constant(-np.eye(r, dtype=ad.DTYPE))
        term = None
        for leaf in (u, v):
            dev = g.frobenius_norm(g.add(g.matmul(g.transpose(leaf), leaf), neg_eye))
            term = dev if term is None else g.add(term, dev)
        term = g.scale(term, 1.0 / (r * r))
        total = term if total is None else g.add(total, term)
    return total


def l_sparse_graph(g: ad.Graph, sigma_leaves: list[int], eps: float = HOYER_EPS) -> int:
    """Graph node computing the guarded Hoyer ratio over sigma leaves."""
    total = None
    for s in sigma_leaves:
        num = g.l1_norm(s)
        den = g.add(g.l2_norm(s), g.constant(np.asarray(eps, dtype=ad.DTYPE)))
        ratio = g.div(num, den)
        total = ratio if total is None else g.add(total, ratio)
    return total
