"""Self-test of the benchmark: tracing changes no bits and its counts repeat.

    python3 -m pytest bench/test_bench.py
"""

import run

run.use_source_tree()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = wl.Workload(
    name="self-test",
    why="two short tasks at the canonical geometry",
    stream={**wl.CANONICAL_STREAM, "tasks": 2},
    channels=(8, 8),
    strides=(1, 2),
    train={**wl.CANONICAL_TRAIN, "epochs": 3, "lr_drop_epochs": (2,)},
    acc_floor=0.0,
    shares=(1.0, 1.0, 1.0),
)

COUNTS = (
    "autodiff.backward.calls_per_step",
    "autodiff.im2col.calls_per_step",
    "autodiff.col2im.calls_per_step",
    "autodiff.conv2d.calls_per_step",
    "factorized.compose_weights.calls_per_step",
    "autodiff.tape_nodes_per_step",
    "autodiff.im2col.bytes_per_step",
    "trainer.steps",
    "compression.kept_rank_ratio",
    "compression.trained_columns",
    "checkpoint.bytes_per_roundtrip",
    "linalg.svd.calls",
)


def patched_functions():
    return [tracing._get(owner, key) for owner, key, _ in tracing.TARGETS]


def test_tracing_keeps_the_fingerprint_and_restores_every_function():
    before = patched_functions()
    metrics, checks, record = run.traced(SMALL, 1, run.WarningCount())
    assert patched_functions() == before
    assert checks.failed == 0, checks.notes
    assert record["fingerprint"] == record["untraced_fingerprint"]

    _, plain_checks, plain = run.measure(SMALL, 1, 0.5)
    assert plain_checks.failed == 0, plain_checks.notes
    assert plain["fingerprint"] == record["fingerprint"]

    # both backward passes of a full-mode step, three im2col per pass and layer pair
    assert metrics["autodiff.backward.calls_per_step"][0] == 2.0
    assert metrics["autodiff.im2col.calls_per_step"][0] == 6.0
    assert metrics["autodiff.col2im.calls_per_step"][0] == 4.0


def test_count_metrics_repeat_exactly():
    first, _, _ = run.traced(SMALL, 1, run.WarningCount())
    second, _, _ = run.traced(SMALL, 1, run.WarningCount())
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
