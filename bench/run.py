"""factorcl benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload stream5-full --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
run is timed with tracing off and reports the end-to-end metrics; with
``--trace 1`` it makes a short untimed warm-up pass, then one untraced
and one traced pass of fixed size, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the fingerprint, sample counts
and a description of the machine.  Durations are CPU time of this
process (see ``workloads.clock``); the run's length and phase shares are
wall time.  Numbers from different machines are not comparable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread: the benchmark is a single closed-loop client, and on a
# small shared machine a second BLAS thread mostly adds run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7  # before the first protocol; more are interleaved with the run
SETUP_SHARE = 0.02  # of the run's time, beside the workload's train, serve and SVD shares
MIN_SERVE_BLOCKS = 100  # at least 100 batch-1 predicts, so p90 has 10 samples beyond it
MIN_SVDS = 100
TRACE_BLOCKS = 40  # a trace pass is of fixed size, so its counts repeat exactly
TRACE_SVDS = 60


def use_source_tree() -> None:
    """Import factorcl from the checkout's src/; exit nonzero when it is not there."""
    if not (SRC / "factorcl" / "__init__.py").is_file():
        sys.exit(f"error: no factorcl package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import factorcl

    if Path(factorcl.__file__).resolve().parent != SRC / "factorcl":
        sys.exit(f"error: factorcl was imported from {factorcl.__file__}, not {SRC}")


class WarningCount(logging.Handler):
    """Takes the trainer's parity warnings off stderr and counts them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def quantile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def mean_ms(samples: list[float]) -> float:
    """Mean, not median: a shared host can switch between two speeds for
    seconds at a time, and a median jumps from one to the other as the
    share of fast time in a run crosses one half; the mean moves with it."""
    return statistics.fmean(samples) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def machine() -> dict:
    desc = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            desc["cpu"] = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        desc["cpu"] = None
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    desc["caches"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        desc["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        desc["blas"] = None
    desc["blas_threads"] = blas_threads()
    return desc


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = {l.split()[-1] for l in f if "openblas" in l and ".so" in l}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def measure(w, seed: int, seconds: float):
    """Untraced run: end-to-end metrics, checks and the record line.

    Serving and SVD need a trained model, so the run starts with one
    training protocol.  After it, whichever phase is furthest behind its
    share of the run goes next, one unit at a time: a whole training
    protocol, a block of three requests, one SVD, or one set-up (whose
    inputs are dropped; the first few come before training).  Interleaving spreads
    a phase over the rest of the run, so a few seconds of a busy neighbour
    do not land on it alone.  A protocol that would end past ``seconds``
    is not started, and none beyond the workload's ``max_protocols``.
    ``stream5-full`` trains once (its protocol takes 15-22 s): its
    ``train_s`` and step times are one contiguous sample at the start of
    the run, serving and SVD share the rest, and the check that repeated
    training keeps the fingerprint does not run there.  A run lasts
    ``seconds``, or longer when the first protocol overruns it: serving
    and SVD always get their shares of ``seconds``.
    """
    import workloads as wl

    checks = wl.Checks()
    setup_times = []

    def set_up():
        t0 = wl.clock()
        inputs = wl.set_up(w, seed)
        setup_times.append(wl.clock() - t0)
        return inputs

    for _ in range(SETUP_REPEATS):
        inputs = set_up()

    shares = (*w.shares, SETUP_SHARE)
    begin, cpu_begin = time.perf_counter(), wl.clock()
    first = wl.train(inputs, w.acc_floor, checks)
    train_times, intervals = [first.seconds], list(first.intervals)
    server = wl.Server(first.model, inputs.stream, seed, checks)
    decomposer = wl.Decomposer(wl.svd_groups(first.model), checks)
    spent = [time.perf_counter() - begin, 0.0, 0.0, 0.0]  # wall seconds per phase
    last_train = spent[0]
    training = True
    while True:
        elapsed = time.perf_counter() - begin
        # serving and SVD get their shares even when training overran the run
        short = [p for p, done, needed in ((1, server.blocks, MIN_SERVE_BLOCKS),
                                           (2, len(decomposer.times), MIN_SVDS))
                 if done < needed or spent[p] < shares[p] * seconds]
        if elapsed >= seconds and not short:
            break
        training = training and elapsed + last_train <= seconds
        if w.max_protocols is not None:
            training = training and len(train_times) < w.max_protocols
        ready = short if elapsed >= seconds else [p for p in (0, 1, 2, 3) if p or training]
        phase = min(ready, key=lambda p: spent[p] / shares[p])
        t0 = time.perf_counter()
        if phase == 0:
            again = wl.train(inputs, w.acc_floor, checks)
            checks.check(again.fingerprint == first.fingerprint,
                         "repeated training changed the fingerprint")
            train_times.append(again.seconds)
            intervals += again.intervals
            del again
        elif phase == 1:
            server.block()
        elif phase == 2:
            decomposer.call()
        else:
            set_up()
        took = time.perf_counter() - t0
        spent[phase] += took
        if phase == 0:
            last_train = took
    wall, cpu = time.perf_counter() - begin, wl.clock() - cpu_begin

    lat = server.latency
    svd_times = decomposer.times
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_s": (statistics.median(train_times), "s"),
        "step_ms_mean": (mean_ms(intervals), "ms"),
        "step_ms_p90": (quantile_ms(intervals, 90), "ms"),
        "acc": (first.acc, "ratio"),
        "size_bytes": (first.size_bytes, "B"),
        "predict1_ms_mean": (mean_ms(lat["predict1"]), "ms"),
        "predict1_ms_p90": (quantile_ms(lat["predict1"], 90), "ms"),
        "predict256_ms_mean": (mean_ms(lat["predict256"]), "ms"),
        "roundtrip_ms_mean": (mean_ms(lat["roundtrip"]), "ms"),
        "serve_requests_per_s": (sum(map(len, lat.values())) / sum(map(sum, lat.values())), "1/s"),
        "svd_ms_mean": (mean_ms(svd_times), "ms"),
        "svd_ms_p90": (quantile_ms(svd_times, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {
        "fingerprint": first.fingerprint,
        "ranks": first.ranks,
        "train_repeats": len(train_times),
        "wall_s": round(wall, 3),
        "cpu_share": round(cpu / wall, 4),
        "setup_repeats": len(setup_times),
        "spent_s": [round(x, 3) for x in spent],
        "samples": {"steps": len(intervals), "svd": len(svd_times),
                    **{k: len(v) for k, v in lat.items()}},
        "roundtrip_bytes": server.roundtrip_bytes,
    }
    return metrics, checks, record


def warm_up(w, seed: int) -> None:
    """A one-epoch pass of the same workload, untimed and unchecked.

    First calls pay for allocation, page faults and linalg's cached Jacobi
    schedules; without this they would fall on the untraced pass, which
    comes first, and bias the tracing overhead down.
    """
    import dataclasses

    import workloads as wl

    short = dataclasses.replace(w, train={**w.train, "epochs": 1, "lr_drop_epochs": ()})
    checks = wl.Checks()
    inputs = wl.set_up(short, seed)
    run = wl.train(inputs, 0.0, checks)
    wl.Server(run.model, inputs.stream, seed, checks).block()
    wl.Decomposer(wl.svd_groups(run.model), checks).call()


def traced(w, seed: int, counter: WarningCount):
    """A warm-up, then one untraced and one traced pass of fixed size:
    per-layer metrics and overhead."""
    import tracing
    import workloads as wl

    warm_up(w, seed)
    checks = wl.Checks()
    passes = []
    for tracer in (None, tracing.Tracer()):
        warned = counter.count
        begin = wl.clock()
        with tracer or nullcontext():
            inputs = wl.set_up(w, seed)
            run = wl.train(inputs, w.acc_floor, checks)
            server = wl.Server(run.model, inputs.stream, seed, checks)
            for _ in range(TRACE_BLOCKS):
                server.block()
            decomposer = wl.Decomposer(wl.svd_groups(run.model), checks)
            for _ in range(TRACE_SVDS):
                decomposer.call()
        passes.append((wl.clock() - begin, run, counter.count - warned))
    (plain_s, plain, _), (traced_s, run, warned) = passes
    checks.check(run.fingerprint == plain.fingerprint, "tracing changed the fingerprint")

    steps = tracer.step_calls["trainer.adam_step"]

    def per_step(value):
        return value / steps if steps else 0.0

    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.busy_s"] = (tracer.busy[name], "s")
    for name in ("autodiff.backward", "autodiff.conv2d_backward", "factorized.graph_forward",
                 "factorized.forward_features", "trainer.train_task", "trainer.train_dense_task"):
        metrics[f"{name}.self_s"] = (tracer.self_time[name], "s")
    for name in ("autodiff.backward", "autodiff.im2col", "autodiff.col2im", "autodiff.conv2d",
                 "factorized.compose_weights"):
        metrics[f"{name}.calls_per_step"] = (per_step(tracer.step_calls[name]), "calls/step")
    step_ratio = statistics.fmean(run.intervals) / statistics.fmean(plain.intervals)
    metrics.update({
        "autodiff.tape_nodes_per_step": (per_step(tracer.tape_nodes), "nodes/step"),
        "autodiff.im2col.bytes_per_step": (per_step(tracer.im2col_step_bytes), "B/step"),
        "trainer.steps": (steps, "count"),
        "trainer.parity_warnings": (warned, "count"),
        "compression.kept_rank_ratio": (
            tracer.kept_columns / tracer.trained_columns if tracer.trained_columns else 0.0, "ratio"),
        "compression.trained_columns": (tracer.trained_columns, "count"),
        "checkpoint.bytes_per_roundtrip": (server.roundtrip_bytes, "B"),
        "linalg.svd.calls": (tracer.calls["linalg.svd"], "count"),
        "trace.overhead_pct": (100.0 * (traced_s - plain_s) / plain_s, "%"),
        "trace.step_overhead_pct": (100.0 * (step_ratio - 1.0), "%"),
        "trace.untraced_pass_s": (plain_s, "s"),
        "trace.traced_pass_s": (traced_s, "s"),
    })
    record = {
        "fingerprint": run.fingerprint,
        "untraced_fingerprint": plain.fingerprint,
        "ranks": run.ranks,
    }
    return metrics, checks, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]

    logger = logging.getLogger("factorcl.trainer")
    counter = WarningCount()
    logger.addHandler(counter)
    logger.propagate = False
    try:
        if args.trace:
            metrics, checks, record = traced(w, args.seed, counter)
        else:
            metrics, checks, record = measure(w, args.seed, args.seconds)
    finally:
        logger.removeHandler(counter)
        logger.propagate = True

    record.update(workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  parity_warnings=counter.count, failures=checks.notes, machine=machine())
    print(json.dumps(record))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
