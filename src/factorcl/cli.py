"""Command-line entry point.

Subcommands:
    train     run a continual stream from a flat JSON config; write the model,
              metrics.json, ranks.csv and each task's dataset
    eval      accuracy of one task's extracted sub-network on a saved dataset
    report    aggregate metrics.json files from several runs into mean(std)

Config files are a single flat JSON object: the fields of TaskStreamSpec
(STREAM_KEYS), the network geometry (NETWORK_KEYS) and the fields of
TrainConfig (TRAIN_KEYS).  ``seed`` feeds both the stream generator and
the trainer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ck
from . import factorized as fz
from . import trainer as tr
from .datasets import TaskStreamSpec, generate_stream
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .metrics import MetricsReport

STREAM_KEYS = {f.name for f in dataclasses.fields(TaskStreamSpec)}
NETWORK_KEYS = {"channels", "kernel", "stride", "padding"}
TRAIN_KEYS = {f.name for f in dataclasses.fields(tr.TrainConfig)}
CONFIG_KEYS = STREAM_KEYS | NETWORK_KEYS | TRAIN_KEYS


def load_config(path) -> tuple[TaskStreamSpec, fz.NetworkSpec, tr.TrainConfig]:
    try:
        blob = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(blob, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = sorted(set(blob) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(
        k for k in ("kind", "tasks", "classes_per_task", "samples_per_class",
                    "input_shape", "channels")
        if k not in blob
    )
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")

    try:
        return _specs_from(blob)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a value of the wrong type or form
        raise ConfigError(f"bad config value: {exc}") from exc


def _specs_from(blob: dict) -> tuple[TaskStreamSpec, fz.NetworkSpec, tr.TrainConfig]:
    stream_kwargs = {k: blob[k] for k in STREAM_KEYS if k in blob}
    stream_kwargs["input_shape"] = tuple(blob["input_shape"])
    if "overlap" in blob and isinstance(blob["overlap"], list):
        stream_kwargs["overlap"] = tuple(blob["overlap"])
    if "partitions" in blob and blob["partitions"] is not None:
        stream_kwargs["partitions"] = tuple(tuple(p) for p in blob["partitions"])
    stream_spec = TaskStreamSpec(**stream_kwargs)

    c, h, w = stream_spec.input_shape
    spec = fz.NetworkSpec.build(
        channels=blob["channels"],
        in_channels=c,
        input_hw=(h, w),
        kernel=blob.get("kernel", 3),
        stride=blob.get("stride", 1),
        padding=blob.get("padding", 1),
    )

    train_kwargs = {k: blob[k] for k in TRAIN_KEYS if k in blob}
    if "lr_drop_epochs" in train_kwargs:
        train_kwargs["lr_drop_epochs"] = tuple(train_kwargs["lr_drop_epochs"])
    return stream_spec, spec, tr.TrainConfig(**train_kwargs)


def _write_rank_csv(path, rank_allocation: list[list[int]], tasks: int) -> None:
    layers = len(rank_allocation)
    lines = [",".join(["task"] + [f"layer_{l}" for l in range(layers)])]
    for t in range(tasks if layers else 0):
        lines.append(f"{t + 1}," + ",".join(str(rank_allocation[l][t]) for l in range(layers)))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    stream_spec, spec, cfg = load_config(args.config)
    stream = generate_stream(stream_spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, report = tr.run_continual(stream, spec, cfg)

    if cfg.mode == "baseline_ub":
        ck.save_dense_models(out / "models.cacd", model)
    else:
        ck.save_space(out / "space.cacl", model)
    (out / "metrics.json").write_text(report.to_json())
    _write_rank_csv(out / "ranks.csv", report.rank_allocation, len(stream))
    for t, data in enumerate(stream, 1):
        ck.save_dataset(out / f"task{t}_data.npz", data)
    print(f"ACC {report.acc:.4f}  BWT {report.bwt:+.4f}  Size {report.size_mb:.6f} MB")
    print(f"artifacts written to {out}")
    return 0


def _load_model(path):
    blob = Path(path).read_bytes()
    if blob[:4] == ck.MAGIC:
        space = ck.space_from_bytes(blob)
        return lambda t, x: fz.predict_logits(space, t, x), space.num_tasks
    if blob[:4] == ck.DENSE_MAGIC:
        models = ck.dense_from_bytes(blob)
        return models.predict_logits, models.num_tasks
    raise FormatError(
        f"{path} is neither a shared space ({ck.MAGIC.decode()}) nor dense "
        f"models ({ck.DENSE_MAGIC.decode()})", offset=0
    )


def cmd_eval(args) -> int:
    predict, num_tasks = _load_model(args.model)
    if not 1 <= args.task <= num_tasks:
        raise ConfigError(f"task {args.task} out of range 1..{num_tasks}")
    data = ck.load_dataset(args.data)
    if len(data.test_y) == 0:
        raise DataError(f"{args.data} has an empty test split: accuracy is undefined")
    acc = tr.accuracy(predict(args.task, data.test_x), data.test_y)
    # full precision so downstream comparisons can be exact
    print(f"task {args.task} accuracy {acc:.17g}")
    return 0


def _read_metrics(path: Path) -> MetricsReport:
    try:
        return MetricsReport.from_json(path.read_text())
    except (DataError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_report(args) -> int:
    runs = sorted(p for p in Path(args.runs).iterdir() if (p / "metrics.json").is_file())
    if not runs:
        raise DataError(f"no run directories with metrics.json under {args.runs}")
    reports = [_read_metrics(p / "metrics.json") for p in runs]
    acc = np.array([r.acc for r in reports]) * 100.0
    bwt = np.array([r.bwt for r in reports]) * 100.0
    size = np.array([r.size_mb for r in reports])
    print(f"runs: {len(reports)} ({', '.join(p.name for p in runs)})")
    print("metric      mean(std)")
    print(f"ACC%        {acc.mean():.2f}({acc.std():.2f})")
    print(f"BWT%        {bwt.mean():.2f}({bwt.std():.2f})")
    print(f"Size(MB)    {size.mean():.2f}({size.std():.2f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcl",
        description="Continual learning over a shared factorized space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a continual stream from a config file")
    p.add_argument("--config", required=True, help="flat JSON config file")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate one task of a saved model")
    p.add_argument("--model", required=True, help="space.cacl or models.cacd file")
    p.add_argument("--task", required=True, type=int, help="1-based task id")
    p.add_argument("--data", required=True, help="task dataset npz file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="aggregate metrics.json over run directories")
    p.add_argument("--runs", required=True, help="directory containing run directories")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, FormatError, NumericError, ShapeError,
            TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
