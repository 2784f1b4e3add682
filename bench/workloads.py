"""Workloads and the phases of one benchmark pass: set-up, train, serve, SVD.

Every workload runs every phase, so every end-to-end metric is measured
on every workload.  Workloads differ in stream, network, training mode
and in the share of the run each phase gets: the phase a workload is
named for gets most of the time, the others are probes that show
whether a change aimed elsewhere leaks into it.

One client drives the library's public functions in a closed loop: each
call starts when the previous one has returned.  Nothing here starts a
thread or a process.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from factorcl import checkpoint as ck
from factorcl import datasets as ds
from factorcl import factorized as fz
from factorcl import linalg as la
from factorcl import trainer as tr

# Every duration the benchmark reports is the process's CPU time.  The
# client is one thread and BLAS is pinned to one thread, so on a machine
# of its own this equals wall time; on a shared virtual machine it leaves
# out the stretches in which the host ran someone else, which otherwise
# make whole runs slower or faster than their neighbours.
clock = time.process_time


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: dict  # TaskStreamSpec fields other than the seed
    channels: tuple[int, ...]
    strides: tuple[int, ...]
    train: dict  # TrainConfig fields other than the seed
    acc_floor: float
    shares: tuple[float, float, float]  # of the run's time: train, serve, SVD
    max_protocols: int | None = None  # training protocols per run; None: as the share allows


# tests/test_acceptance.py: stream5 / cfg5, network net5
CANONICAL_STREAM = dict(
    kind="synthetic_blobs", tasks=5, classes_per_task=2, samples_per_class=200,
    input_shape=(2, 6, 6), overlap=0.15, scale=3.0,
)
CANONICAL_TRAIN = dict(
    epochs=100, batch_size=32, lr_drop_epochs=(60, 85), lambda_orth=1.0,
    lambda_sparse=0.7, energy_e=1e-2, mode="full",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream5-full",
            why="the canonical 5-task full-mode protocol: tiny tensors, so a step is "
                "bound by Python and the tape (two backward passes, regularizers, prefix)",
            stream=CANONICAL_STREAM, channels=(8, 8), strides=(1, 2),
            train=CANONICAL_TRAIN, acc_floor=0.9, shares=(0.5, 0.3, 0.2), max_protocols=1,
        ),
        Workload(
            name="wide-dense",
            why="dense upper-bound mode on 3x16x16 inputs and 16 channels: bound by "
                "im2col, col2im and gemm; never composes factors or runs regularizers",
            stream={**CANONICAL_STREAM, "tasks": 3, "input_shape": (3, 16, 16)},
            channels=(16, 16), strides=(1, 2),
            train={**CANONICAL_TRAIN, "epochs": 8, "lr_drop_epochs": (5, 7),
                   "mode": "baseline_ub"},
            acc_floor=0.9, shares=(0.6, 0.2, 0.2),
        ),
    )
}


@dataclass
class Checks:
    """Output checks, counted as attempted and failed operations."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


# -- set-up -------------------------------------------------------------------------


@dataclass
class Inputs:
    stream: list[ds.TaskDataset]
    spec: fz.NetworkSpec
    cfg: tr.TrainConfig


def set_up(w: Workload, seed: int) -> Inputs:
    stream = ds.generate_stream(ds.TaskStreamSpec(seed=seed, **w.stream))
    c, h, wd = w.stream["input_shape"]
    spec = fz.NetworkSpec.build(w.channels, in_channels=c, input_hw=(h, wd), stride=w.strides)
    cfg = tr.TrainConfig(seed=seed, **w.train)
    return Inputs(stream, spec, cfg)


# -- models: shared spaces and dense baselines behind one interface -----------------


def predict(model, t: int, x: np.ndarray) -> np.ndarray:
    if isinstance(model, fz.SharedSpace):
        return fz.predict_logits(model, t, x)
    return model.predict_logits(t, x)


def dense_bytes(models: tr.DenseTaskModels) -> bytes:
    parts = [a for ws, h in zip(models.weights, models.heads) for a in (*ws, h.weight, h.bias)]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


def state_bytes(model) -> bytes:
    """The .cacl bytes of a shared space; the weight bytes of dense models."""
    if isinstance(model, fz.SharedSpace):
        return ck.space_to_bytes(model)
    return dense_bytes(model)


def first_tasks(model, t: int):
    """The model cut back to its first t tasks."""
    if isinstance(model, fz.SharedSpace):
        r = [model.rank_upto(l, t) for l in range(model.spec.num_layers)]
        return fz.SharedSpace(
            spec=model.spec,
            u=tuple(u[:, :k] for u, k in zip(model.u, r)),
            sigma=tuple(s[:k] for s, k in zip(model.sigma, r)),
            v=tuple(v[:, :k] for v, k in zip(model.v, r)),
            rank_table=tuple(row[:t] for row in model.rank_table),
            heads=model.heads[:t],
            isolated=model.isolated,
        )
    return tr.DenseTaskModels(model.spec, model.weights[:t], model.heads[:t])


def svd_groups(model) -> list[list[np.ndarray]]:
    """Each task's layer weights, as one group."""
    if isinstance(model, fz.SharedSpace):
        return [fz.extract_subnetwork(model, t)[0] for t in range(1, model.num_tasks + 1)]
    return [list(ws) for ws in model.weights]


def round_trip(model):
    """Serialize and reload; returns the reloaded model and the bytes."""
    if isinstance(model, fz.SharedSpace):
        blob = ck.space_to_bytes(model)
        return ck.space_from_bytes(blob), blob
    buf = io.BytesIO()
    ck.save_dense_models(buf, model)
    blob = buf.getvalue()
    return ck.load_dense_models(io.BytesIO(blob)), blob


# -- training -----------------------------------------------------------------------


class StepClock:
    """Reads the clock at every Adam.step return: the one hook in an untraced run.

    A step's time is the gap since the previous step of the same task, so
    the first step of each task (which follows expand, compress and
    evaluation) gives no sample.
    """

    def __init__(self):
        self.intervals: list[float] = []

    def __enter__(self) -> "StepClock":
        original = self._original = vars(tr.Adam)["step"]
        last = [0.0]

        def step(adam, *args, **kwargs):
            original(adam, *args, **kwargs)
            now = clock()
            if adam.step_count > 1:
                self.intervals.append(now - last[0])
            last[0] = now

        tr.Adam.step = step
        return self

    def __exit__(self, *exc) -> None:
        tr.Adam.step = self._original


@dataclass
class TrainRun:
    model: object
    acc: float
    size_bytes: int
    seconds: float  # CPU time of run_continual
    intervals: list[float]
    fingerprint: str
    ranks: list[list[int]]


def train(inputs: Inputs, acc_floor: float, checks: Checks) -> TrainRun:
    with StepClock() as steps:
        begin = clock()
        model, report = tr.run_continual(inputs.stream, inputs.spec, inputs.cfg)
        seconds = clock() - begin

    logits = [predict(model, t, d.test_x) for t, d in enumerate(inputs.stream, 1)]
    digest = hashlib.sha256(state_bytes(model))
    for out in logits:
        digest.update(out.tobytes())

    checks.check(report.bwt == 0.0, f"bwt {report.bwt!r} != 0.0")
    checks.check(report.acc >= acc_floor, f"acc {report.acc:.4f} below {acc_floor}")
    for t in range(1, len(inputs.stream) + 1):
        prefix = first_tasks(model, t)
        for i in range(1, t + 1):
            same = predict(prefix, i, inputs.stream[i - 1].test_x).tobytes() == logits[i - 1].tobytes()
            checks.check(same, f"task {i} logits differ on the first {t} tasks")
    return TrainRun(model, report.acc, report.size_bytes, seconds, steps.intervals,
                    digest.hexdigest(), report.rank_allocation)


# -- serving ------------------------------------------------------------------------

# The repo records no serving traffic, so the mix is an assumption: equal
# shares of the three kinds.  A block holds one request of each kind in a
# seeded order, so a round trip comes once in every three requests.
KINDS = ("predict1", "predict256", "roundtrip")


class Server:
    """Closed-loop request mix; later predicts use the latest reloaded model.

    Each task has one batch-1 and one batch-256 request, drawn from the
    test sets of all tasks; a predict picks its task at random.  Responses
    are compared bitwise with references computed before the first
    request; each round trip must give back the same model bytes.
    """

    def __init__(self, model, stream, seed: int, checks: Checks):
        self.rng = np.random.default_rng([seed, 2])
        pool = np.concatenate([d.test_x for d in stream])
        tasks = range(1, len(stream) + 1)
        self.requests = {
            "predict1": [(t, pool[self.rng.integers(0, len(pool), 1)]) for t in tasks],
            "predict256": [(t, pool[self.rng.integers(0, len(pool), 256)]) for t in tasks],
        }
        self.refs = {kind: [predict(model, t, x).tobytes() for t, x in reqs]
                     for kind, reqs in self.requests.items()}
        self.shared = isinstance(model, fz.SharedSpace)
        self.ref_state = state_bytes(model)
        self.model = model
        self.checks = checks
        self.latency: dict[str, list[float]] = {k: [] for k in KINDS}
        self.blocks = 0
        self.roundtrip_bytes = 0

    def block(self) -> None:
        checks = self.checks
        for kind in self.rng.permutation(KINDS):
            if kind == "roundtrip":
                t0 = clock()
                self.model, blob = round_trip(self.model)
                self.latency[kind].append(clock() - t0)
                self.roundtrip_bytes = len(blob)
                after = blob if self.shared else dense_bytes(self.model)
                checks.check(after == self.ref_state, "round trip changed the model bytes")
                continue
            k = int(self.rng.integers(len(self.requests[kind])))
            t, x = self.requests[kind][k]
            t0 = clock()
            out = predict(self.model, t, x)
            self.latency[kind].append(clock() - t0)
            checks.check(out.tobytes() == self.refs[kind][k], f"{kind} response differs")
        self.blocks += 1


# -- SVD ----------------------------------------------------------------------------


def svd_ok(m: np.ndarray, f: la.SvdFactors) -> bool:
    """Criterion 2's tolerances: reconstruction, Gram deviation, sorted sigma."""
    denom = max(float(np.linalg.norm(m)), 1e-30)
    rec = float(np.linalg.norm(la.reconstruct(f).astype(np.float64) - m)) / denom
    r = f.u.shape[1]
    gram = max(
        float(np.linalg.norm(f.u.astype(np.float64).T @ f.u - np.eye(r))),
        float(np.linalg.norm(f.v.astype(np.float64).T @ f.v - np.eye(r))),
    )
    return rec <= 1e-4 and gram <= 1e-5 and bool(np.all(np.diff(f.sigma) <= 0))


class Decomposer:
    """SVDs groups of matrices in order, cycling; one group is one timed unit.

    A group is one task's layer weights, so a unit is "the spectrum of one
    task" and the timings do not split into one mode per layer shape.  A
    repeated matrix must give its first result bitwise.
    """

    def __init__(self, groups: list[list[np.ndarray]], checks: Checks):
        self.groups = groups
        self.checks = checks
        self.first: dict[tuple[int, int], bytes] = {}
        self.times: list[float] = []

    def call(self) -> None:
        g = len(self.times) % len(self.groups)
        t0 = clock()
        results = [la.svd(m) for m in self.groups[g]]
        self.times.append(clock() - t0)
        for i, (m, f) in enumerate(zip(self.groups[g], results)):
            digest = hashlib.sha256(f.u.tobytes() + f.sigma.tobytes() + f.v.tobytes()).digest()
            key = (g, i)
            if key in self.first:
                self.checks.check(digest == self.first[key], f"svd of matrix {key} not repeatable")
            else:
                self.checks.check(svd_ok(m, f), f"svd of matrix {key} {m.shape} out of tolerance")
                self.first[key] = digest
