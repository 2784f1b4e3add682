"""Dense 2-D linear algebra for factorized layers.

Matrices are plain ``numpy`` arrays: 2-D, C-contiguous, float32.  A conv
weight is stored as its ``c x (n*h*w)`` matrix, with row-major
``(n, h, w)`` inner ordering, so factor shapes line up with the
per-layer bookkeeping elsewhere in the package.

The SVD is a one-sided Jacobi iteration (accurate at the small sizes we
care about), run in float64 internally and returned as float32.  A QR
pre-reduction shrinks the working matrix to ``min(rows, cols)`` square.
Each round of the round-robin schedule rotates a batch of disjoint column
pairs: one Gram gemm gives every pair's angle, and one gemm with a
matrix of 2x2 rotation blocks applies them all, so a round costs two
gemms and a few scalar operations per pair.

Everything here is a pure function over immutable inputs; results are
deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float32

# Relative off-diagonal threshold at which a column pair counts as
# orthogonal, and the sweep limit (quadratic convergence makes the
# limit generous).
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-D float32 C-order array, validating shape."""
    m = np.ascontiguousarray(np.asarray(data, dtype=DTYPE))
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    return m


@dataclass(frozen=True)
class SvdFactors:
    """Reduced SVD ``u @ diag(sigma) @ v.T``.

    ``u`` is ``m x r``, ``v`` is ``n x r``, both column-orthonormal;
    ``sigma`` is non-negative and sorted descending.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]


@lru_cache(maxsize=None)
def _jacobi_schedule(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin schedule: n-1 rounds of disjoint column pairs covering all pairs.

    Each round is ``(take, put)``: flat indices into the ``n x n`` Gram of
    its pairs' ``app``, ``aqq``, ``apq`` entries, and of the rotation's
    ``[p,p]``, ``[q,q]``, ``[q,p]``, ``[p,q]`` entries.
    """
    if n < 2:
        return ()
    players = list(range(n)) if n % 2 == 0 else list(range(n + 1))
    dummy = None if n % 2 == 0 else len(players) - 1
    half = len(players) // 2
    rounds = []
    arr = players[:]
    for _ in range(len(players) - 1):
        pairs = [
            (min(arr[i], arr[-1 - i]), max(arr[i], arr[-1 - i]))
            for i in range(half)
            if dummy is None or (arr[i] != dummy and arr[-1 - i] != dummy)
        ]
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            pp, qq, qp, pq = p * n + p, q * n + q, q * n + p, p * n + q
            rounds.append((np.concatenate([pp, qq, pq]), np.concatenate([pp, qq, qp, pq])))
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return tuple(rounds)


def _one_sided_jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi SVD of a float64 matrix with rows >= cols.

    Returns unsorted ``(w_columns_normalized, sigma, v)``; columns whose
    norm underflowed are left as-is for the caller to repair.
    """
    m, n = a.shape
    x = np.concatenate([a, np.eye(n)])  # [W; V]: one rotation moves both
    for _ in range(_JACOBI_MAX_SWEEPS):
        worst = 0.0
        for take, put in _jacobi_schedule(n):
            # disjoint pairs: one Gram of the round's start serves them all
            gram = x[:m].T @ x[:m]
            entries = gram.take(take).tolist()
            k = len(entries) // 3
            cs, ss = [1.0] * k, [0.0] * k
            for i in range(k):
                app, aqq, apq = entries[i], entries[k + i], entries[2 * k + i]
                denom = math.sqrt(app * aqq)
                rel = abs(apq) / (denom if denom > 0.0 else 1.0)
                worst = max(worst, rel)
                if rel > _JACOBI_TOL:  # else the pair keeps an identity block
                    zeta = (aqq - app) / (2.0 * apq)
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                    t = t if zeta != 0.0 else 1.0
                    cs[i] = 1.0 / math.sqrt(1.0 + t * t)
                    ss[i] = cs[i] * t
            if not any(ss):
                continue
            # column p becomes c*w_p - s*w_q and column q becomes s*w_p + c*w_q
            rot = np.eye(n)
            rot.put(put, cs + cs + [-s for s in ss] + ss)
            x = x @ rot
        if worst <= _JACOBI_TOL:
            break
    w, v = x[:m], x[m:]
    sigma = np.sqrt(np.einsum("ij,ij->j", w, w))
    safe = np.where(sigma > 0.0, sigma, 1.0)
    return w / safe[None, :], sigma, v


def _complete_columns(u: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Replace columns flagged in ``dead`` with an orthonormal completion."""
    m, r = u.shape
    keep = ~dead
    basis = u[:, keep]
    q, _ = np.linalg.qr(np.concatenate([basis, np.eye(m)], axis=1))
    fill = q[:, basis.shape[1] : basis.shape[1] + int(dead.sum())]
    out = u.copy()
    out[:, dead] = fill
    return out


def svd(m: np.ndarray) -> SvdFactors:
    """Full-rank reduced SVD with ``r = min(rows, cols)``.

    Sign convention, on the factor of the longer side: for a tall or
    square input the largest-magnitude entry of every ``u`` column is
    non-negative, and for a wide input (``rows < cols``, decomposed as
    its transpose) that of every ``v`` column.  Equal singular values
    keep their pre-sort column order.
    """
    m = as_matrix(m)
    if not np.isfinite(m).all():
        raise NumericError("svd requires finite entries")
    rows, cols = m.shape
    a = m.astype(np.float64)
    transposed = rows < cols
    if transposed:
        a = a.T
    # QR pre-reduction: Jacobi then runs on a min-dim square matrix.
    q, r = np.linalg.qr(a)
    u_small, sigma, v = _one_sided_jacobi(r)
    u = q @ u_small

    dead = sigma <= sigma.max(initial=0.0) * 1e-12
    if dead.any():
        u = _complete_columns(u, dead)

    order = np.argsort(-sigma, kind="stable")
    u, sigma, v = u[:, order], sigma[order], v[:, order]

    flip = np.sign(u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])])
    flip = np.where(flip == 0.0, 1.0, flip)
    u = u * flip
    v = v * flip

    if transposed:
        u, v = v, u
    return SvdFactors(
        u=np.ascontiguousarray(u, dtype=DTYPE),
        sigma=np.ascontiguousarray(sigma, dtype=DTYPE),
        v=np.ascontiguousarray(v, dtype=DTYPE),
    )


def reconstruct(f: SvdFactors) -> np.ndarray:
    """Full reconstruction ``u @ diag(sigma) @ v.T`` (float64 accumulation)."""
    return rank_k_approx(f, f.rank)


def rank_k_approx(f: SvdFactors, k: int) -> np.ndarray:
    """Best rank-``k`` truncation: ``sum_{i<=k} sigma_i u_i v_i^T``.

    The dropped tail costs ``sum_{i>k} sigma_i^2`` in squared Frobenius
    norm when the factors are orthonormal.
    """
    r = f.rank
    if not 1 <= k <= r:
        raise ValueError(f"k must be in [1, {r}], got {k}")
    out = dense_weight(*(a.astype(np.float64) for a in (f.u[:, :k], f.sigma[:k], f.v[:, :k])))
    return np.ascontiguousarray(out, dtype=DTYPE)  # float64 throughout, rounded once


def dense_weight(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dense weight ``(U * sigma) V^T`` of one layer's factor columns, at their precision.

    The one formula from factors to weights: extraction, rank-k truncation
    and the autodiff ``factor_product`` op all evaluate it.
    """
    # contiguous copies pin the exact gemm inputs, keeping prefix
    # extraction bitwise stable after later columns are appended
    uc = np.ascontiguousarray(u)
    sc = np.ascontiguousarray(sigma)
    vc = np.ascontiguousarray(v)
    return np.ascontiguousarray((uc * sc) @ vc.T)


def random_orthonormal(rows: int, cols: int, seed: int) -> np.ndarray:
    """Column-orthonormal matrix from a seeded Gaussian fill plus QR."""
    if cols > rows:
        raise ValueError(f"cols ({cols}) must not exceed rows ({rows})")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    # Fix the QR sign ambiguity so the output is unique per seed.
    d = np.sign(np.diagonal(r))
    d = np.where(d == 0.0, 1.0, d)
    return np.ascontiguousarray(q * d, dtype=DTYPE)
