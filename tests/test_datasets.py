import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl.datasets import BLOB_NOISE, TaskDataset, TaskStreamSpec, generate_stream
from factorcl.errors import ConfigError, DataError, FormatError


def blob_spec(**kw):
    base = dict(
        kind="synthetic_blobs",
        tasks=2,
        classes_per_task=2,
        samples_per_class=50,
        input_shape=(2, 3, 3),
        seed=0,
        overlap=0.1,
        scale=3.0,
    )
    base.update(kw)
    return TaskStreamSpec(**base)


def linear_probe_accuracy(data: TaskDataset) -> float:
    """Closed-form least-squares one-hot classifier (independent of the package)."""
    x = data.train_x.reshape(data.train_x.shape[0], -1).astype(np.float64)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    targets = np.eye(data.classes)[data.train_y]
    coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
    xt = data.test_x.reshape(data.test_x.shape[0], -1).astype(np.float64)
    xt = np.hstack([xt, np.ones((xt.shape[0], 1))])
    pred = (xt @ coef).argmax(axis=1)
    return float((pred == data.test_y).mean())


def class_mean_spectrum(data: TaskDataset) -> np.ndarray:
    x = data.train_x.reshape(data.train_x.shape[0], -1).astype(np.float64)
    means = np.stack([x[data.train_y == c].mean(axis=0) for c in range(data.classes)])
    return np.linalg.svd(means, compute_uv=False)


# -- determinism and shapes ------------------------------------------------------


def test_same_seed_bitwise_identical():
    a = generate_stream(blob_spec())
    b = generate_stream(blob_spec())
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.train_x, db.train_x)
        np.testing.assert_array_equal(da.train_y, db.train_y)
        np.testing.assert_array_equal(da.test_x, db.test_x)
        np.testing.assert_array_equal(da.test_y, db.test_y)


def test_different_seed_differs():
    a = generate_stream(blob_spec(seed=0))[0]
    b = generate_stream(blob_spec(seed=1))[0]
    assert not np.array_equal(a.train_x, b.train_x)


def test_tasks_within_stream_differ():
    a, b = generate_stream(blob_spec())
    assert not np.array_equal(a.train_x, b.train_x)


def test_split_sizes_and_dtypes():
    data = generate_stream(blob_spec(samples_per_class=50))[0]
    assert data.train_x.shape == (80, 2, 3, 3)
    assert data.test_x.shape == (20, 2, 3, 3)
    assert data.train_x.dtype == np.float32 and data.train_y.dtype == np.int64
    assert set(np.unique(data.train_y)) == {0, 1}
    assert data.input_shape == (2, 3, 3)


@given(seed=st.integers(0, 2**32 - 1), t_seed=st.integers(0, 5))
@settings(max_examples=15, deadline=None)
def test_generation_finite_and_labeled(seed, t_seed):
    data = generate_stream(blob_spec(seed=seed, tasks=t_seed + 1, overlap=0.5))[t_seed]
    assert np.all(np.isfinite(data.train_x))
    assert data.train_y.min() >= 0 and data.train_y.max() < data.classes


# -- the difficulty knob -----------------------------------------------------------


def test_well_separated_blobs_linearly_classifiable():
    # sanity floor: a plain least-squares probe should be nearly perfect
    for task in generate_stream(blob_spec(overlap=0.0, samples_per_class=100)):
        assert linear_probe_accuracy(task) >= 0.99


def test_low_overlap_centers_span_a_plane():
    spec = blob_spec(
        classes_per_task=6, samples_per_class=200, input_shape=(12, 1, 1), overlap=0.0
    )
    s = class_mean_spectrum(generate_stream(spec)[0])
    # fan directions live in 2 dimensions; the rest is sample noise
    assert np.sum(s > 0.05 * s[0]) == 2


def test_high_overlap_centers_span_class_count_dims():
    spec = blob_spec(
        classes_per_task=6, samples_per_class=200, input_shape=(12, 1, 1), overlap=1.0
    )
    s = class_mean_spectrum(generate_stream(spec)[0])
    assert np.sum(s > 0.05 * s[0]) == 6


def test_center_radius_matches_scale():
    data = generate_stream(blob_spec(samples_per_class=500, scale=3.0))[0]
    x = data.train_x.reshape(data.train_x.shape[0], -1).astype(np.float64)
    mean0 = x[data.train_y == 0].mean(axis=0)
    # ~400 samples, noise std 0.45/dim: the class mean sits on the radius-3 sphere
    noise_floor = 3 * BLOB_NOISE * 3.0 * np.sqrt(18 / 400)
    assert abs(np.linalg.norm(mean0) - 3.0) < noise_floor


def test_per_task_overlap_schedule():
    spec = blob_spec(tasks=3, overlap=(0.0, 0.5, 1.0))
    assert spec.overlap_for(1) == 0.0
    assert spec.overlap_for(3) == 1.0
    stream = generate_stream(spec)
    assert len(stream) == 3


# -- validation ---------------------------------------------------------------------


def test_overlap_out_of_range_rejected():
    with pytest.raises(ConfigError):
        blob_spec(overlap=1.5)
    with pytest.raises(ConfigError):
        blob_spec(overlap=-0.1)
    with pytest.raises(ConfigError):
        blob_spec(overlap=(0.5, 2.0))


def test_per_task_overlap_length_mismatch():
    with pytest.raises(ConfigError):
        blob_spec(tasks=3, overlap=(0.1, 0.2))


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        blob_spec(kind="mystery")


def test_degenerate_sizes_rejected():
    with pytest.raises(ConfigError):
        blob_spec(tasks=0)
    with pytest.raises(ConfigError):
        blob_spec(classes_per_task=1)
    for scale in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            blob_spec(scale=scale)


@pytest.mark.parametrize("field", ["tasks", "classes_per_task", "samples_per_class", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_counts_must_be_integers(field, value):
    # checked where the spec is made, not as a TypeError inside generate_stream
    with pytest.raises(ConfigError, match=field):
        blob_spec(**{field: value})


def test_input_too_small_for_class_count():
    with pytest.raises(ConfigError):
        generate_stream(blob_spec(classes_per_task=8, input_shape=(2, 2, 2)))


def test_dataset_label_validation():
    x = np.zeros((4, 1, 2, 2), np.float32)
    with pytest.raises(DataError):
        TaskDataset(train_x=x, train_y=np.array([0, 1, 2, 3]), test_x=x,
                    test_y=np.zeros(4, np.int64), classes=2)


# -- split_file streams ---------------------------------------------------------------


@pytest.fixture
def labeled_file(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 2, 2, 2)).astype(np.float32)
    y = np.repeat(np.arange(4), 30)
    path = tmp_path / "data.npz"
    np.savez(path, x=x, y=y)
    return str(path)


def file_spec(path, partitions=((0, 1), (2, 3)), **kw):
    base = dict(
        kind="split_file",
        tasks=len(partitions),
        classes_per_task=2,
        samples_per_class=30,
        input_shape=(2, 2, 2),
        path=path,
        partitions=partitions,
    )
    base.update(kw)
    return TaskStreamSpec(**base)


def test_split_file_partitions_and_remaps(labeled_file):
    stream = generate_stream(file_spec(labeled_file))
    for task in stream:
        assert set(np.unique(task.train_y)) == {0, 1}
        assert task.train_x.shape[0] + task.test_x.shape[0] == 60
    a = generate_stream(file_spec(labeled_file))
    np.testing.assert_array_equal(a[0].train_x, stream[0].train_x)


def test_split_file_overlapping_partitions_rejected(labeled_file):
    with pytest.raises(ConfigError):
        file_spec(labeled_file, partitions=((1, 2), (2, 3)))


def test_split_file_missing_class(labeled_file):
    with pytest.raises(DataError):
        generate_stream(file_spec(labeled_file, partitions=((0, 1), (2, 9))))


def test_split_file_requires_path_and_partitions():
    with pytest.raises(ConfigError):
        TaskStreamSpec(
            kind="split_file", tasks=2, classes_per_task=2, samples_per_class=30,
            input_shape=(2, 2, 2),
        )


def test_split_file_shape_mismatch(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, x=np.zeros((10, 5), np.float32), y=np.zeros(10, np.int64))
    with pytest.raises(DataError):
        generate_stream(file_spec(str(path), partitions=((0,),) , classes_per_task=2))


def test_split_file_missing_arrays(tmp_path):
    path = tmp_path / "empty.npz"
    np.savez(path, z=np.zeros(3))
    with pytest.raises(DataError):
        generate_stream(file_spec(str(path)))


def test_split_file_refuses_a_member_that_inflates_out_of_proportion(tmp_path):
    path = tmp_path / "inflating.npz"
    np.savez_compressed(path, x=np.zeros((500000, 2, 2, 2), np.float32),
                        y=np.repeat(np.arange(4), 30))
    assert path.stat().st_size < 20_000
    with pytest.raises(FormatError, match="array x would inflate") as err:
        generate_stream(file_spec(str(path)))
    assert str(path) in str(err.value)
