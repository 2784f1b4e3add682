import json
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from factorcl import autodiff as ad
from factorcl import checkpoint as ck
from factorcl import factorized as fz
from factorcl.cli import CONFIG_KEYS, NETWORK_KEYS, STREAM_KEYS, TRAIN_KEYS, load_config, main
from factorcl.datasets import TaskDataset
from factorcl.errors import ConfigError
from factorcl.metrics import MetricsReport, compute_metrics


def write_config(path, **overrides):
    cfg = {
        "kind": "synthetic_blobs",
        "tasks": 3,
        "classes_per_task": 2,
        "samples_per_class": 30,
        "input_shape": [2, 3, 3],
        "seed": 5,
        "overlap": 0.1,
        "scale": 3.0,
        "channels": [3, 3],
        "epochs": 2,
        "lr_drop_epochs": [1],
        "energy_e": 0.01,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "cfg.json")
    out = root / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ub")
    config = write_config(root / "cfg.json", mode="baseline_ub", tasks=2)
    out = root / "run_ub"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return out


# -- config parsing -------------------------------------------------------------------


def test_load_config_builds_all_three(tmp_path):
    stream_spec, spec, cfg = load_config(write_config(tmp_path / "c.json"))
    assert stream_spec.tasks == 3
    assert spec.num_layers == 2 and spec.layers[0].n == 2
    assert cfg.epochs == 2 and cfg.seed == 5


def test_load_config_rejects_unknown_and_missing(tmp_path):
    bad = tmp_path / "bad.json"
    write_config(bad, mystery=1)
    with pytest.raises(ConfigError):
        load_config(bad)
    blob = json.loads(write_config(tmp_path / "m.json").read_text())
    del blob["channels"]
    (tmp_path / "m.json").write_text(json.dumps(blob))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "m.json")


def test_load_config_rejects_non_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("epochs: 3")
    with pytest.raises(ConfigError):
        load_config(path)


def only_error_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize("overrides", [
    {"dropout": 1.5},
    {"input_shape": [2, 6, 6], "kernel": 9, "padding": 0},
    {"stride": 0},
    {"lambda_orth": -1},
    {"energy_e": 1.5},
    {"min_rank": 0},
    {"beta1": 1.5},
    {"beta1": -0.1},
    {"beta2": 1.0},
    {"eps": 0},
    {"eps": -1e-8},
    {"base_lr": 0},
    {"base_lr": -1e-3},
    {"base_lr": float("inf")},
    {"base_lr": float("nan")},
    {"lr_drop_factor": 0},
    {"lr_drop_factor": -10},
    {"dropout": "x"},
    {"kernel": "x"},
    {"kernel": None},
    {"beta1": "x"},
    {"stride": "x"},
    {"channels": ["a"]},
    {"tasks": "x"},
    {"epochs": 2.5},
    {"batch_size": 8.0},
    {"tasks": 2.0},
    {"samples_per_class": 10.5},
    {"seed": "x"},
    {"seed": None},
    {"min_rank": True},
    {"kernel": 3.0},
    {"seed": -1},
    {"channels": []},
    {"channels": [4.5]},
    {"input_shape": [2.5, 6, 6]},
    {"stride": 1.5},
    {"scale": float("nan")},
])
def test_train_reports_bad_config_values_as_one_error_line(tmp_path, capsys, overrides):
    config = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    only_error_line(capsys)
    assert not out.exists()


def test_train_refuses_a_geometry_past_the_unfold_cap_before_building_anything(tmp_path, capsys):
    # layer 0 unfolds an image to 5 * 4201^2 values; layer 1 strides to one
    config = write_config(tmp_path / "cfg.json", input_shape=[5, 1, 1], channels=[1, 1],
                          kernel=1, stride=[1, 4201], padding=[2100, 0])
    with pytest.raises(ConfigError, match="unfold"):
        load_config(config)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert "unfold" in only_error_line(capsys)


def test_train_reports_an_unreadable_split_file_as_one_error_line(tmp_path, capsys):
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"not an npz!")
    config = write_config(tmp_path / "cfg.json", kind="split_file",
                          partitions=[[0, 1], [2, 3], [4, 5]])
    blob = json.loads(config.read_text())
    config.write_text(json.dumps({**blob, "path": str(junk)}))  # write_config's own argument is `path`
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert str(junk) in only_error_line(capsys)
    assert not out.exists()


def _damage_member(path, member: str) -> None:
    """Flip two bytes of ``member``'s data, 300 bytes past its name in the archive."""
    blob = bytearray(path.read_bytes())
    at = blob.index(member.encode()) + 300
    blob[at] ^= 0xFF
    blob[at + 1] ^= 0xFF
    path.write_bytes(bytes(blob))


def test_train_reports_a_damaged_split_file_member_as_one_error_line(tmp_path, capsys):
    split = tmp_path / "split.npz"
    rng = np.random.default_rng(0)
    np.savez(split, x=rng.normal(size=(60, 2, 3, 3)), y=np.repeat(np.arange(6), 10))
    _damage_member(split, "x.npy")
    config = write_config(tmp_path / "cfg.json", kind="split_file",
                          partitions=[[0, 1], [2, 3], [4, 5]])
    blob = json.loads(config.read_text())
    config.write_text(json.dumps({**blob, "path": str(split)}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert only_error_line(capsys) == f"error: not a readable npz archive: {split}"
    assert not out.exists()


def test_dropout_is_an_unknown_config_key(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", dropout=0.25)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert only_error_line(capsys) == "error: unknown config keys: dropout"
    assert not out.exists()


# -- train artifacts -------------------------------------------------------------------


def test_train_writes_all_artifacts(train_run):
    names = {p.name for p in train_run.iterdir()}
    expected = {"space.cacl", "metrics.json", "ranks.csv"}
    expected |= {f"task{t}_data.npz" for t in (1, 2, 3)}
    assert names == expected


def test_rank_csv_sums_match_model(train_run):
    space = ck.load_space(train_run / "space.cacl")
    lines = (train_run / "ranks.csv").read_text().strip().splitlines()
    assert lines[0] == "task,layer_0,layer_1"
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 3
    for l in range(2):
        assert sum(row[1 + l] for row in rows) == space.rank_table[l][-1]


def test_metrics_json_parses(train_run):
    report = MetricsReport.from_json((train_run / "metrics.json").read_text())
    assert report.acc_matrix.shape == (3, 3)
    assert report.bwt == 0.0
    assert report.config["mode"] == "full"


# -- eval ------------------------------------------------------------------------------


def test_eval_matches_final_row_exactly(train_run, capsys):
    report = MetricsReport.from_json((train_run / "metrics.json").read_text())
    for t in (1, 2, 3):
        code = main([
            "eval", "--model", str(train_run / "space.cacl"),
            "--task", str(t), "--data", str(train_run / f"task{t}_data.npz"),
        ])
        assert code == 0
        printed = float(capsys.readouterr().out.split()[-1])
        assert printed == report.acc_matrix[2, t - 1]


def test_eval_scores_a_dataset_of_several_chunks_within_the_budget(train_run, tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(ad, "_SCRATCH", threading.local())  # this thread has no scratch yet
    report = MetricsReport.from_json((train_run / "metrics.json").read_text())
    data = ck.load_dataset(train_run / "task1_data.npz")
    chunk = fz._chunk_images(ck.load_space(train_run / "space.cacl").spec)
    copies = 2 * chunk // len(data.test_y) + 1  # the test split, repeated over two chunks
    ck.save_dataset(tmp_path / "many.npz", TaskDataset(
        train_x=data.train_x, train_y=data.train_y, test_x=np.concatenate([data.test_x] * copies),
        test_y=np.tile(data.test_y, copies), classes=data.classes,
    ))
    code = main([
        "eval", "--model", str(train_run / "space.cacl"),
        "--task", "1", "--data", str(tmp_path / "many.npz"),
    ])
    assert code == 0
    assert float(capsys.readouterr().out.split()[-1]) == report.acc_matrix[2, 0]
    for slot in ("padded", "cols"):
        assert vars(ad._SCRATCH)[slot].nbytes <= fz.CHUNK_BYTES, slot


def test_eval_rejects_out_of_range_task(train_run, capsys):
    code = main([
        "eval", "--model", str(train_run / "space.cacl"),
        "--task", "7", "--data", str(train_run / "task1_data.npz"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_eval_reports_data_of_the_wrong_geometry_as_one_error_line(train_run, tmp_path, capsys):
    data = ck.load_dataset(train_run / "task1_data.npz")
    three = np.concatenate([data.test_x, data.test_x[:, :1]], axis=1)  # 3 channels, model has 2
    ck.save_dataset(tmp_path / "three.npz", TaskDataset(
        train_x=three, train_y=data.test_y, test_x=three, test_y=data.test_y,
        classes=data.classes,
    ))
    code = main([
        "eval", "--model", str(train_run / "space.cacl"),
        "--task", "1", "--data", str(tmp_path / "three.npz"),
    ])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_eval_reports_an_empty_test_split_as_one_error_line(train_run, tmp_path, capsys):
    data = ck.load_dataset(train_run / "task1_data.npz")
    ck.save_dataset(tmp_path / "empty.npz", TaskDataset(
        train_x=data.train_x, train_y=data.train_y, test_x=data.test_x[:0],
        test_y=data.test_y[:0], classes=data.classes,
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an accuracy over no samples warns, then prints nan
        code = main([
            "eval", "--model", str(train_run / "space.cacl"),
            "--task", "1", "--data", str(tmp_path / "empty.npz"),
        ])
    assert code == 1
    assert "empty test split" in only_error_line(capsys)


@pytest.mark.parametrize("edit, says", [
    (lambda arrays: arrays.update(classes=np.array([2, 3])), "classes"),
    (lambda arrays: arrays.pop("train_x"), "train_x"),
    (lambda arrays: arrays.update(test_y=np.full(arrays["test_y"].shape, 0.5)), "test_y"),
    (lambda arrays: arrays.update(classes=np.array(2.7)), "classes"),
], ids=["vector-classes", "no-train_x", "float-labels", "fractional-classes"])
def test_eval_reports_a_malformed_dataset_as_one_error_line(train_run, tmp_path, capsys, edit, says):
    with np.load(train_run / "task1_data.npz") as blob:
        arrays = dict(blob)
    edit(arrays)
    np.savez(tmp_path / "bad.npz", **arrays)
    code = main([
        "eval", "--model", str(train_run / "space.cacl"),
        "--task", "1", "--data", str(tmp_path / "bad.npz"),
    ])
    assert code == 1
    assert says in only_error_line(capsys)


def test_eval_reports_a_damaged_dataset_member_as_one_error_line(train_run, tmp_path, capsys):
    data = tmp_path / "task1_data.npz"
    data.write_bytes((train_run / "task1_data.npz").read_bytes())
    _damage_member(data, "train_x.npy")
    code = main([
        "eval", "--model", str(train_run / "space.cacl"), "--task", "1", "--data", str(data),
    ])
    assert code == 1
    assert only_error_line(capsys) == f"error: not a readable npz archive: {data}"


def test_eval_refuses_a_dataset_that_inflates_out_of_proportion(train_run, tmp_path, capsys):
    data = tmp_path / "inflating.npz"  # about 15 KB, inflating to 14.8 MB
    np.savez_compressed(
        data, train_x=np.zeros((50000, 2, 6, 6), np.float32), train_y=np.zeros(50000, np.int64),
        test_x=np.zeros((10, 2, 6, 6), np.float32), test_y=np.zeros(10, np.int64),
        classes=np.array(2),
    )
    code = main([
        "eval", "--model", str(train_run / "space.cacl"), "--task", "1", "--data", str(data),
    ])
    assert code == 1
    line = only_error_line(capsys)
    assert str(data) in line and "train_x" in line


def test_eval_reads_dense_models(dense_run, capsys):
    assert (dense_run / "models.cacd").is_file()
    code = main([
        "eval", "--model", str(dense_run / "models.cacd"),
        "--task", "2", "--data", str(dense_run / "task2_data.npz"),
    ])
    assert code == 0
    assert "accuracy" in capsys.readouterr().out


def _nan_weight(blob: bytes) -> bytes:
    # the first real after the 28 + 24L header bytes is task 1's first layer weight
    at = 28 + 24 * 2
    return blob[:at] + np.float32(np.nan).tobytes() + blob[at + 4:]


def _short_weight(blob: bytes) -> bytes:
    # task 1's first weight (3 x 18, column order) loses its last column
    start = 28 + 24 * 2
    return blob[: start + 4 * 3 * 17] + blob[start + 4 * 3 * 18:]


@pytest.mark.parametrize("name, make, says", [
    ("nan.cacd", _nan_weight, "non-finite"),
    ("short.cacd", _short_weight, "offset"),
    ("models.npz", None, "CACD"),  # the dense-model file of earlier releases
])
def test_eval_reports_a_bad_dense_model_as_one_error_line(dense_run, tmp_path, capsys, name, make, says):
    path = tmp_path / name
    if make is None:
        models = ck.load_dense_models(dense_run / "models.cacd")
        np.savez(path, tasks=np.array(models.num_tasks), w0_0=models.weights[0][0])
    else:
        path.write_bytes(make((dense_run / "models.cacd").read_bytes()))
    code = main([
        "eval", "--model", str(path),
        "--task", "1", "--data", str(dense_run / "task1_data.npz"),
    ])
    assert code == 1
    assert says in only_error_line(capsys)


# -- docs ------------------------------------------------------------------------------


def readme_config_tables() -> list[list[str]]:
    """The keys each table under README's "Config keys" heading lists in its first column."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n### Config keys\n", 1)[1].split("\n## ", 1)[0]
    tables = []
    for line in section.splitlines():
        if line.startswith("| key |"):
            tables.append([])
        elif line.startswith("| `"):
            tables[-1] += re.findall(r"`(\w+)`", line.split("|")[1])
    return tables


def test_readme_config_tables_list_exactly_the_config_keys():
    stream, network, train = readme_config_tables()
    assert set(stream) == STREAM_KEYS
    assert set(network) == NETWORK_KEYS
    assert set(train) == TRAIN_KEYS - STREAM_KEYS  # the shared seed is listed once
    listed = stream + network + train
    assert len(listed) == len(set(listed)) and set(listed) == CONFIG_KEYS


# -- report ----------------------------------------------------------------------------


def test_report_aggregates_mean_std(tmp_path, capsys):
    accs = [0.90, 0.80, 0.70]
    for i, acc in enumerate(accs):
        run = tmp_path / f"seed{i}"
        run.mkdir()
        report = compute_metrics([[acc]], size_bytes=2_000_000)
        (run / "metrics.json").write_text(report.to_json())
    assert main(["report", "--runs", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    mean = 100 * np.mean(accs)
    std = 100 * np.std(accs)
    assert f"{mean:.2f}({std:.2f})" in out
    assert "2.00(0.00)" in out  # Size(MB)
    assert "runs: 3" in out


def test_report_empty_dir_fails(tmp_path, capsys):
    assert main(["report", "--runs", str(tmp_path)]) == 1


@pytest.mark.parametrize("edit", [
    lambda text: text[: len(text) // 2],
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "acc_matrix"}),
    lambda text: json.dumps([json.loads(text)]),
], ids=["truncated", "no_acc_matrix", "json_array"])
def test_report_names_a_bad_metrics_file_in_one_error_line(tmp_path, capsys, edit):
    good = compute_metrics([[0.9]], size_bytes=1000).to_json()
    for run, text in (("a_good", good), ("b_bad", edit(good))):
        (tmp_path / run).mkdir()
        (tmp_path / run / "metrics.json").write_text(text)
    assert main(["report", "--runs", str(tmp_path)]) == 1
    assert str(tmp_path / "b_bad" / "metrics.json") in only_error_line(capsys)


# -- corrupt inputs ----------------------------------------------------------------------


def test_truncated_model_exits_nonzero(train_run, tmp_path, capsys):
    blob = (train_run / "space.cacl").read_bytes()
    bad = tmp_path / "broken.cacl"
    bad.write_bytes(blob[: len(blob) // 2])
    code = main([
        "eval", "--model", str(bad),
        "--task", "1", "--data", str(train_run / "task1_data.npz"),
    ])
    assert code == 1
    assert "offset" in capsys.readouterr().err
