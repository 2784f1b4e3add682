"""Post-training singular-value sorting and energy pruning.

After a task trains, each layer's singular values are sorted by
magnitude (folding signs into U so reconstruction is unchanged) and the
smallest prefix of columns whose squared sum reaches a (1 - e) fraction
of the total energy is kept.  No fine-tuning happens afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .factorized import TaskFactors


@dataclass(frozen=True)
class PruneConfig:
    """energy_e in [0, 1) controls pruning intensity; higher prunes more.

    Pruning keeps the minimal k with retained/total energy >= 1 - e.
    """

    energy_e: float

    def __post_init__(self):
        if not 0.0 <= self.energy_e < 1.0:
            raise ConfigError(f"energy_e must be in [0, 1), got {self.energy_e}")


def sort_by_magnitude(f: TaskFactors) -> TaskFactors:
    """Jointly permute (U columns, sigma, V columns) to |sigma| descending.

    Negative entries are folded positive by negating the matching U
    column, leaving U diag(sigma) V^T unchanged.
    """
    u_out, s_out, v_out = [], [], []
    for u, s, v in zip(f.u, f.sigma, f.v):
        order = np.argsort(-np.abs(s), kind="stable")
        u2 = np.ascontiguousarray(u[:, order])
        s2 = s[order].copy()
        v2 = np.ascontiguousarray(v[:, order])
        neg = s2 < 0
        if np.any(neg):
            s2 = np.abs(s2)
            u2[:, neg] = -u2[:, neg]
        u_out.append(u2)
        s_out.append(s2)
        v_out.append(v2)
    return TaskFactors(task=f.task, u=u_out, sigma=s_out, v=v_out)


def retained_rank(sigma: np.ndarray, cfg: PruneConfig) -> int:
    """Minimal prefix length meeting the energy criterion; one column of an all-zero layer."""
    r = sigma.shape[0]
    if r == 0:
        return 0
    if np.any(sigma < 0) or np.any(np.diff(sigma) > 0):
        raise ValueError("sigma must be sorted descending and non-negative")
    energy = sigma.astype(np.float64) ** 2
    total = float(energy.sum())
    if total == 0.0:
        return 1
    hit = np.cumsum(energy) / total >= 1.0 - cfg.energy_e
    return int(np.argmax(hit)) + 1 if np.any(hit) else r


def _truncate(f: TaskFactors, ranks) -> TaskFactors:
    """Keep the leading ``ranks[l]`` columns of each layer's U, sigma and V."""
    u_out, s_out, v_out = [], [], []
    for u, s, v, k in zip(f.u, f.sigma, f.v, ranks):
        u_out.append(np.ascontiguousarray(u[:, :k]))
        s_out.append(s[:k].copy())
        v_out.append(np.ascontiguousarray(v[:, :k]))
    return TaskFactors(task=f.task, u=u_out, sigma=s_out, v=v_out)


def compress(f: TaskFactors, cfg: PruneConfig) -> TaskFactors:
    """Sort each layer by magnitude and keep its leading retained_rank columns."""
    f = sort_by_magnitude(f)
    return _truncate(f, [retained_rank(s, cfg) for s in f.sigma])


def cap_ranks(f: TaskFactors, caps) -> TaskFactors:
    """Truncate each layer to at most caps[l] leading columns.

    Used by the fixed-capacity mode where total stored width may never
    exceed the first task's expansion width; sigma is sorted, so the
    kept prefix is the best available truncation.
    """
    return _truncate(f, [min(s.shape[0], max(int(cap), 0)) for s, cap in zip(f.sigma, caps)])
