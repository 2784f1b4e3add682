#!/usr/bin/env python3
"""
The command-line workflow end to end.

  factorcl train  --config cfg.json --out run/
  factorcl eval   --model run/space.cacl --data run/task2_data.npz --task 2
  factorcl report --runs .

train writes the final space, the per-task datasets, metrics.json, and
ranks.csv. eval reloads from disk and prints a task's accuracy. Between
eval and report, the demo reads run/metrics.json and prints what pruning
did to each task's layers: the trained rank (the layer's expansion rank),
the rank kept, and the relative error of the kept weight. report
aggregates metrics.json files across the run directories under --runs.
"""

import json
import os
import subprocess
import sys
import tempfile

from factorcl.cli import load_config
from factorcl.metrics import MetricsReport

CONFIG = {
    "kind": "synthetic_blobs",
    "tasks": 3,
    "classes_per_task": 2,
    "samples_per_class": 150,
    "input_shape": [2, 6, 6],
    "seed": 9,
    "overlap": 0.15,
    "scale": 3.0,
    "channels": [8, 8],
    "epochs": 60,
    "batch_size": 32,
    "lr_drop_epochs": [35, 50],
    "lambda_orth": 1.0,
    "lambda_sparse": 0.7,
    "energy_e": 1e-2,
    "mode": "full",
}


def run(*args: str) -> str:
    cmd = [sys.executable, "-m", "factorcl.cli", *args]
    print(f"$ factorcl {' '.join(args)}")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    print(proc.stdout, end="")
    return proc.stdout


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        out = os.path.join(tmp, "run")
        with open(cfg_path, "w") as fh:
            json.dump(CONFIG, fh)

        run("train", "--config", cfg_path, "--out", out)
        print("artifacts:", sorted(os.listdir(out)), "\n")

        run("eval", "--model", os.path.join(out, "space.cacl"),
            "--data", os.path.join(out, "task2_data.npz"), "--task", "2")
        print()

        print("pruning, from run/metrics.json:")
        _, spec, _ = load_config(cfg_path)
        with open(os.path.join(out, "metrics.json")) as fh:
            report = MetricsReport.from_json(fh.read())
        for t in range(len(report.acc_matrix)):
            for l, shape in enumerate(spec.layers):
                print(f"task {t + 1} layer {l}: rank {shape.expansion_rank()} -> "
                      f"{report.rank_allocation[l][t]}, "
                      f"relative error {report.prune_error[l][t]:.6f}")
        print()

        run("report", "--runs", tmp)


if __name__ == "__main__":
    main()
