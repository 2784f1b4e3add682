"""Dense 2-D linear algebra for factorized layers.

Matrices are plain ``numpy`` arrays: 2-D, C-contiguous, float32.  A conv
weight is stored as its ``c x (n*h*w)`` matrix, with row-major
``(n, h, w)`` inner ordering, so factor shapes line up with the
per-layer bookkeeping elsewhere in the package.

The SVD is a one-sided Jacobi iteration (accurate at the small sizes we
care about), run in float64 internally and returned as float32.  A QR
pre-reduction shrinks the working matrix to ``min(rows, cols)`` square
and rotations are applied in round-robin batches of disjoint column
pairs, which keeps the Python overhead flat in the matrix size.

Everything here is a pure function over immutable inputs; results are
deterministic for identical inputs.
"""

from __future__ import annotations

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


def as_matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``data`` to a 2-D float32 C-order array, validating shape."""
    m = np.ascontiguousarray(np.asarray(data, dtype=DTYPE))
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    if rows is not None and m.shape != (rows, cols):
        raise ShapeError(f"expected shape ({rows}, {cols}), got {m.shape}")
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
def _round_robin_pairs(n: int) -> tuple[np.ndarray, ...]:
    """Round-robin schedule: n-1 rounds of disjoint column pairs covering all pairs."""
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
            rounds.append(np.array(pairs, dtype=np.intp))
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return tuple(rounds)


def _one_sided_jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi SVD of a float64 matrix with rows >= cols.

    Returns unsorted ``(w_columns_normalized, sigma, v)``; columns whose
    norm underflowed are left as-is for the caller to repair.
    """
    m, n = a.shape
    w = a.copy()
    v = np.eye(n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        worst = 0.0
        for pairs in _round_robin_pairs(n):
            p, q = pairs[:, 0], pairs[:, 1]
            wp, wq = w[:, p], w[:, q]
            app = np.einsum("ij,ij->j", wp, wp)
            aqq = np.einsum("ij,ij->j", wq, wq)
            apq = np.einsum("ij,ij->j", wp, wq)
            denom = np.sqrt(app * aqq)
            rel = np.abs(apq) / np.where(denom > 0.0, denom, 1.0)
            if rel.size:
                worst = max(worst, float(rel.max()))
            active = rel > _JACOBI_TOL
            if not active.any():
                continue
            zeta = (aqq[active] - app[active]) / (2.0 * apq[active])
            t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            t = np.where(zeta == 0.0, 1.0, t)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            pa, qa = p[active], q[active]
            wp, wq = w[:, pa], w[:, qa]
            w[:, pa] = wp * c - wq * s
            w[:, qa] = wp * s + wq * c
            vp, vq = v[:, pa], v[:, qa]
            v[:, pa] = vp * c - vq * s
            v[:, qa] = vp * s + vq * c
        if worst <= _JACOBI_TOL:
            break
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

    Sign convention: the largest-magnitude entry of every ``u`` column is
    non-negative.  Equal singular values keep their pre-sort column order.
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
    out = _rank_k_f64(f, k)
    return np.ascontiguousarray(out, dtype=DTYPE)


def _rank_k_f64(f: SvdFactors, k: int) -> np.ndarray:
    """Rank-k reconstruction carried out entirely in float64."""
    u = f.u[:, :k].astype(np.float64)
    v = f.v[:, :k].astype(np.float64)
    s = f.sigma[:k].astype(np.float64)
    return (u * s[None, :]) @ v.T


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
