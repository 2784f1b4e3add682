"""Continual-learning metrics: accuracy matrix, ACC, BWT, size accounting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class MetricsReport:
    """Results of one continual run.

    acc_matrix[j, i] is the test accuracy on task i+1 measured after
    training task j+1; entries above the diagonal are NaN (task not yet
    seen).  ACC averages the final row; BWT averages the change of each
    earlier task's accuracy between its own row and the final row.

    ``parity_crossings`` lists each layer whose stored factors ended up
    costing more than its dense weight: ``{"layer", "width",
    "parity_width", "first_task"}``, the layer's final stored width, its
    parity width and the first task whose append passed it.

    ``prune_error[l][t-1]``, laid out like ``rank_allocation``, is
    ||W_trained - W_appended||_F / ||W_trained||_F for layer l of task t:
    the relative error of pruning (and in ``fixed`` mode capping) the
    trained factors, of the layer's expansion rank, to the appended ones
    (0.0 for a zero W_trained).  Dense mode has none.
    """

    acc_matrix: np.ndarray
    acc: float
    bwt: float
    size_bytes: int
    rank_allocation: list[list[int]] = field(default_factory=list)
    wall_clock: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    parity_crossings: list[dict] = field(default_factory=list)
    prune_error: list[list[float]] = field(default_factory=list)

    @property
    def size_mb(self) -> float:
        """Decimal megabytes: 4 bytes per stored real, divided by 10^6."""
        return self.size_bytes / 1e6

    def to_json(self) -> str:
        matrix = [
            [None if np.isnan(v) else float(v) for v in row] for row in self.acc_matrix
        ]
        return json.dumps(
            {
                "acc_matrix": matrix,
                "acc": self.acc,
                "bwt": self.bwt,
                "size_bytes": self.size_bytes,
                "size_mb": self.size_mb,
                "rank_allocation": self.rank_allocation,
                "wall_clock": self.wall_clock,
                "config": self.config,
                "parity_crossings": self.parity_crossings,
                "prune_error": self.prune_error,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        """Parse :meth:`to_json` output; :class:`DataError` for anything else."""
        try:
            blob = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"not JSON ({exc})") from None
        if not isinstance(blob, dict):
            raise DataError(f"expected a JSON object, got a {type(blob).__name__}")
        missing = [k for k in ("acc_matrix", "acc", "bwt", "size_bytes") if k not in blob]
        if missing:
            raise DataError(f"missing {', '.join(missing)}")
        try:
            matrix = np.array(
                [[np.nan if v is None else v for v in row] for row in blob["acc_matrix"]],
                dtype=np.float64,
            )
        except (TypeError, ValueError):
            raise DataError("acc_matrix is not a matrix of accuracies") from None
        for key in ("acc", "bwt", "size_bytes"):
            if not isinstance(blob[key], (int, float)) or isinstance(blob[key], bool):
                raise DataError(f"{key} is not a number")
        return cls(
            acc_matrix=matrix,
            acc=blob["acc"],
            bwt=blob["bwt"],
            size_bytes=blob["size_bytes"],
            rank_allocation=blob.get("rank_allocation", []),
            wall_clock=blob.get("wall_clock", []),
            config=blob.get("config", {}),
            parity_crossings=blob.get("parity_crossings", []),
            prune_error=blob.get("prune_error", []),
        )


def as_matrix(rows) -> np.ndarray:
    """Normalize a list of lower-triangular rows into a NaN-padded square."""
    t = len(rows)
    out = np.full((t, t), np.nan)
    for j, row in enumerate(rows):
        if len(row) != j + 1:
            raise DataError(f"row {j} should have {j + 1} accuracies, got {len(row)}")
        out[j, : j + 1] = row
    return out


def compute_metrics(
    acc_rows,
    size_bytes: int,
    rank_allocation=None,
    wall_clock=None,
    config=None,
    parity_crossings=None,
    prune_error=None,
) -> MetricsReport:
    matrix = as_matrix(acc_rows)
    t = matrix.shape[0]
    lower = matrix[np.tril_indices(t)]
    if np.any(np.isnan(lower)):
        raise DataError("accuracy matrix has unpopulated lower-triangular entries")
    if lower.min() < 0.0 or lower.max() > 1.0:
        raise DataError("accuracies must lie in [0, 1]")
    acc = float(matrix[t - 1].mean())  # final row is fully populated
    if t == 1:
        bwt = 0.0
    else:
        diffs = [matrix[t - 1, i] - matrix[i, i] for i in range(t - 1)]
        bwt = float(np.mean(diffs))
    return MetricsReport(
        acc_matrix=matrix,
        acc=acc,
        bwt=bwt,
        size_bytes=int(size_bytes),
        rank_allocation=rank_allocation or [],
        wall_clock=wall_clock or [],
        config=config or {},
        parity_crossings=parity_crossings or [],
        prune_error=prune_error or [],
    )
