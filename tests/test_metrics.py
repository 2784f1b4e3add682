import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl.errors import DataError
from factorcl.metrics import MetricsReport, as_matrix, compute_metrics


def bwt_oracle(matrix: np.ndarray) -> float:
    """BWT = (1/(T-1)) * sum_i (R[T-1, i] - R[i, i]) computed naively."""
    t = matrix.shape[0]
    if t == 1:
        return 0.0
    return sum(matrix[t - 1, i] - matrix[i, i] for i in range(t - 1)) / (t - 1)


def test_acc_is_final_row_mean():
    report = compute_metrics([[0.9], [0.8, 0.6]], size_bytes=100)
    assert report.acc == pytest.approx(0.7)


def test_bwt_two_task_trace():
    # R = [[0.9, -], [0.8, 0.7]] -> BWT = (0.8 - 0.9) / 1
    report = compute_metrics([[0.9], [0.8, 0.7]], size_bytes=100)
    assert report.bwt == pytest.approx(-0.1)


def test_constant_columns_give_zero_bwt():
    rows = [[0.9], [0.9, 0.6], [0.9, 0.6, 0.8]]
    assert compute_metrics(rows, size_bytes=0).bwt == 0.0


def test_single_task_bwt_defined_zero():
    report = compute_metrics([[0.5]], size_bytes=0)
    assert report.bwt == 0.0 and report.acc == 0.5


def test_upper_triangle_is_nan():
    m = compute_metrics([[0.9], [0.8, 0.7]], size_bytes=0).acc_matrix
    assert np.isnan(m[0, 1]) and not np.isnan(m[1, 0])


def test_row_length_mismatch_rejected():
    with pytest.raises(DataError):
        compute_metrics([[0.9], [0.8]], size_bytes=0)


def test_out_of_range_accuracy_rejected():
    with pytest.raises(DataError):
        compute_metrics([[1.2]], size_bytes=0)
    with pytest.raises(DataError):
        compute_metrics([[-0.1]], size_bytes=0)


def test_nan_in_lower_triangle_rejected():
    with pytest.raises(DataError):
        compute_metrics([[0.9], [np.nan, 0.7]], size_bytes=0)


def test_as_matrix_round_trips_rows():
    m = as_matrix([[0.1], [0.2, 0.3]])
    assert m.shape == (2, 2) and m[1, 1] == 0.3


def test_size_mb_is_decimal_megabytes():
    report = compute_metrics([[1.0]], size_bytes=2_500_000)
    assert report.size_mb == pytest.approx(2.5)


def test_json_round_trip():
    report = compute_metrics(
        [[0.9], [0.8, 0.7]],
        size_bytes=4321,
        rank_allocation=[[3, 1], [2, 2]],
        wall_clock=[0.5, 0.6],
        config={"mode": "full", "seed": 3},
        prune_error=[[1.5e-6, 0.25], [0.0, 1.0]],
    )
    back = MetricsReport.from_json(report.to_json())
    np.testing.assert_array_equal(np.isnan(back.acc_matrix), np.isnan(report.acc_matrix))
    np.testing.assert_allclose(back.acc_matrix[1], report.acc_matrix[1])
    assert back.acc == report.acc and back.bwt == report.bwt
    assert back.size_bytes == 4321
    assert back.rank_allocation == [[3, 1], [2, 2]]
    assert back.config == {"mode": "full", "seed": 3}
    assert back.prune_error == [[1.5e-6, 0.25], [0.0, 1.0]]


def test_metrics_json_of_earlier_runs_has_no_prune_error():
    blob = json.loads(compute_metrics([[0.9]], size_bytes=8).to_json())
    del blob["prune_error"]
    assert MetricsReport.from_json(json.dumps(blob)).prune_error == []


@given(t=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_bwt_matches_oracle(t, seed):
    rng = np.random.default_rng(seed)
    rows = [list(rng.random(j + 1)) for j in range(t)]
    report = compute_metrics(rows, size_bytes=0)
    assert report.bwt == pytest.approx(bwt_oracle(report.acc_matrix))
    assert 0.0 <= report.acc <= 1.0
