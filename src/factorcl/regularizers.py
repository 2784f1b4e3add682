"""Training-time regularizers over task factors.

Orthogonality pushes U, V toward column-orthonormal Gram matrices so
post-training singular-value pruning has the usual SVD error meaning;
the Hoyer ratio ||sigma||_1 / ||sigma||_2 pushes singular-value mass
into few entries so pruning removes more.  Each penalty is one formula,
the forward of a tape op (``gram_deviation``, ``hoyer``): the graph
builders put those ops in the training objective, and the eager values
for reports and tests evaluate the same forward functions in float64.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import NumericError
from .factorized import TaskFactors


def gram_deviation(m: np.ndarray) -> float:
    """Plain Frobenius norm of M^T M - I."""
    return float(ad.gram_deviation(m.astype(np.float64)))


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


def l_sparse(factors: TaskFactors) -> float:
    """Hoyer ratio ||sigma||_1 / ||sigma||_2 summed over layers.

    This exact form raises on an all-zero layer; training's
    :func:`l_sparse_graph` adds ``autodiff.HOYER_EPS`` to the denominator.
    """
    total = 0.0
    for i, s in enumerate(factors.sigma):
        if not s.any():
            raise NumericError(f"layer {i}: Hoyer ratio undefined for all-zero sigma")
        total += float(ad.hoyer(s.astype(np.float64), 0.0))
    return total


# -- graph builders ------------------------------------------------------------


def l_orth_graph(g: ad.Graph, u_leaves: list[int], v_leaves: list[int]) -> int:
    """Graph node computing l_orth over the given factor leaves."""
    total = None
    for u, v in zip(u_leaves, v_leaves):
        r = g.value(u).shape[1]
        term = g.scale(g.add(g.gram_deviation(u), g.gram_deviation(v)), 1.0 / (r * r))
        total = term if total is None else g.add(total, term)
    return total


def l_sparse_graph(g: ad.Graph, sigma_leaves: list[int]) -> int:
    """Graph node computing the guarded Hoyer ratio over sigma leaves."""
    total = None
    for s in sigma_leaves:
        ratio = g.hoyer(s)
        total = ratio if total is None else g.add(total, ratio)
    return total
