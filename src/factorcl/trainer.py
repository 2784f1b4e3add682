"""Continual training loop and its ablation modes.

Per task: expand fresh factors, train them against the frozen shared
space, sort and energy-prune the singular values, append.  The shared
space is never touched after append, which is what makes backward
transfer exactly zero.

Each step takes one backward pass of one objective, task loss +
lambda_orth * orthogonality + lambda_sparse * Hoyer sparsity, and one
Adam step; factorized and dense training share that one minibatch loop.
This is exactly the per-group split of the training pseudo-code (U and
V descend task + orthogonality, sigma descends task + sparsity): the
orthogonality term reads only the U and V leaves and the Hoyer term
only the sigma leaves, so neither adds to the other group's gradient,
and the pass sums each leaf's remaining contributions in the same
reverse-tape order as a pass over that group's own loss would.

A step's tape has one shape for every batch of a size, so a task builds
it once per batch size and re-runs it for later steps, feeding in the
batch and its labels; the result is bitwise that of a fresh tape per
step, and the re-run writes its activations and their gradients into
buffers the tape allocated on its first step.  Adam keeps the
parameters, moments and gradient in flat buffers, so its update is one
vectorized formula over all of them.  Each trainable leaf holds its
parameter's view into Adam's buffer, so a step is never fed its
parameters: the tape reads what Adam last wrote.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import compression as cp
from . import factorized as fz
from . import regularizers as reg
from .datasets import TaskDataset
from .errors import ConfigError, TrainingError, is_int
from .metrics import MetricsReport, compute_metrics

log = logging.getLogger(__name__)

MODES = ("full", "fixed", "st", "baseline_ub")
# Adam's moment decays and denominator fuzz, and the learning-rate divisor
# at each of ``TrainConfig.lr_drop_epochs``.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
LR_DROP_FACTOR = 10.0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    base_lr: float = 1e-3
    lr_drop_epochs: tuple[int, ...] = (80, 120, 180)
    lambda_orth: float = 1.0
    lambda_sparse: float = 0.1
    energy_e: float = 1e-5
    mode: str = "full"
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            if not is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        drops = tuple(self.lr_drop_epochs)
        if any(b <= a for a, b in zip(drops, drops[1:])) or any(
            d >= self.epochs or d < 0 for d in drops
        ):
            raise ConfigError(
                f"lr_drop_epochs must be strictly increasing and < epochs, got {drops}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigError(f"base_lr must be finite and positive, got {self.base_lr}")
        for name in ("lambda_orth", "lambda_sparse"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        self.prune_config()  # validates

    def prune_config(self) -> cp.PruneConfig:
        return cp.PruneConfig(self.energy_e)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    drops = sum(1 for d in cfg.lr_drop_epochs if epoch >= d)
    return cfg.base_lr / LR_DROP_FACTOR**drops


class Adam:
    """Adaptive-moment descent over a dict of named float32 parameters.

    The parameters, the two moments and the gradient live in three flat
    float32 buffers: ``flat``, ``moments`` (one row per moment) and
    ``grad``.  Construction copies every ``params[key]`` into ``flat`` and
    re-binds the entry to its view there, so one vectorized update serves
    all keys and reaches the caller's dict in place.  ``step`` takes a
    gradient for every key; each element gets the same formula, at the
    same precision, as a per-key loop would give it.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.step_count = 0
        total = sum(p.size for p in params.values())
        self.flat = np.empty(total, dtype=ad.DTYPE)
        self.grad = np.empty(total, dtype=ad.DTYPE)
        self.moments = np.zeros((2, total), dtype=ad.DTYPE)
        self._grads: dict[str, np.ndarray] = {}  # key -> its view into self.grad
        start = 0
        for key, p in params.items():
            stop = start + p.size
            params[key] = self.flat[start:stop].reshape(p.shape)
            params[key][...] = p
            self._grads[key] = self.grad[start:stop].reshape(p.shape)
            start = stop

    def step(self, grads: dict[str, np.ndarray], lr: float):
        if grads.keys() != self._grads.keys():
            raise KeyError(f"Adam.step needs a gradient for each of {sorted(self._grads)}, "
                           f"got {sorted(grads)}")
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for key, view in self._grads.items():
            view[...] = grads[key]
        grad, (m, v) = self.grad, self.moments
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        self.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def _epoch_order(cfg: TrainConfig, task: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, task, epoch]))
    return rng.permutation(n)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


class _StepTape:
    """One training step's tape for one batch size: built once, then re-run.

    The first step builds the tape with its batch; every later step of
    that size feeds the values that change (the batch and its labels) and
    re-runs it, so the tape's shape and every check made while building it
    stay as they were built.  The parameter leaves hold the ``params``
    arrays themselves, which Adam updates in place.
    """

    def __init__(self, spec: fz.NetworkSpec, params: dict[str, np.ndarray], build,
                 x: np.ndarray, y: np.ndarray):
        g = self.graph = ad.Graph()
        weights, penalties = build(g)
        self.x = g.leaf(x)
        feats = fz.graph_forward(g, weights, spec, self.x)
        hw = g.leaf(params["head_w"], trainable=True, name="head_w")
        hb = g.leaf(params["head_b"], trainable=True, name="head_b")
        self.task_loss = self.loss = g.softmax_cross_entropy(g.linear(feats, hw, hb), y)
        for term in penalties():
            self.loss = g.add(self.loss, term)

    def run(self, x: np.ndarray, y: np.ndarray):
        g = self.graph
        g.feed(self.x, x)
        g.feed(self.task_loss, y)
        g.rerun()

    def objective(self) -> float:
        return float(self.graph.value(self.loss))

    def grads(self) -> dict[str, np.ndarray]:
        g = self.graph
        return {g.nodes[nid].name: d for nid, d in g.backward(self.loss).items()}


def _fit(
    data: TaskDataset,
    spec: fz.NetworkSpec,
    cfg: TrainConfig,
    task: int,
    params: dict[str, np.ndarray],
    build,
) -> None:
    """The minibatch loop behind both trainers; updates ``params`` in place.

    ``build(g)`` puts the conv weights on the tape and returns
    ``(weights, penalties)``: the weight nodes and ``penalties()``, which
    returns the weighted regularizer nodes.  The tape calls ``penalties``
    after building the task loss, so the regularizers follow it on the tape.
    Leaf names are the keys: every trainable leaf is named by its key in
    ``params``, and its gradient updates that entry.  ``build`` runs once
    per batch size, so at most twice a task: once for full batches and
    once for a short last batch.  While training, each entry is a view
    into Adam's parameter buffer; at the end it is an array of its own.
    """
    adam = Adam(params)
    n = data.train_x.shape[0]
    tapes: dict[int, _StepTape] = {}
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        order = _epoch_order(cfg, task, epoch, n)
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            x, y = data.train_x[batch], data.train_y[batch]
            tape = tapes.get(len(batch))
            if tape is None:
                tape = tapes[len(batch)] = _StepTape(spec, params, build, x, y)
            else:
                tape.run(x, y)
            if not np.isfinite(tape.objective()):
                raise TrainingError(
                    "non-finite training objective", task=task, epoch=epoch, step=step
                )
            adam.step(tape.grads(), lr)
    # the trained arrays own their memory instead of viewing Adam's buffer
    for key, view in params.items():
        params[key] = view.copy()


def train_task(
    data: TaskDataset,
    shared: fz.SharedSpace | None,
    fresh: fz.TaskFactors,
    head: fz.TaskHead,
    cfg: TrainConfig,
    spec: fz.NetworkSpec | None = None,
) -> tuple[fz.TaskFactors, fz.TaskHead]:
    """Compression-aware training of one task's residual factors and head.

    ``shared`` (may be None for isolated training) is read-only; only
    the fresh factors and head are updated.  The residual trains on top of
    the weights the latest stored task serves; with no stored task it
    trains alone.
    """
    if shared is not None:
        spec = shared.spec
    if spec is None:
        raise ValueError("need a NetworkSpec when training without a shared space")
    layers = range(spec.num_layers)
    prefix = None
    if shared is not None and shared.num_tasks > 0:
        prefix = fz.extract_subnetwork(shared, shared.num_tasks)[0]

    params: dict[str, np.ndarray] = {}
    for l in layers:
        params[f"u{l}"] = fresh.u[l].copy()
        params[f"sigma{l}"] = fresh.sigma[l].copy()
        params[f"v{l}"] = fresh.v[l].copy()
    params["head_w"] = head.weight.copy()
    params["head_b"] = head.bias.copy()

    def factors() -> fz.TaskFactors:
        return fz.TaskFactors(
            task=fresh.task,
            u=[params[f"u{l}"] for l in layers],
            sigma=[params[f"sigma{l}"] for l in layers],
            v=[params[f"v{l}"] for l in layers],
        )

    def build(g: ad.Graph):
        composed = fz.compose_weights(g, prefix, factors())

        def penalties() -> list[int]:
            terms = []
            if cfg.lambda_orth > 0:
                orth = reg.l_orth_graph(g, composed.u_leaves, composed.v_leaves)
                terms.append(g.scale(orth, cfg.lambda_orth))
            if cfg.lambda_sparse > 0:
                sparse = reg.l_sparse_graph(g, composed.sigma_leaves)
                terms.append(g.scale(sparse, cfg.lambda_sparse))
            return terms

        return composed.weights, penalties

    _fit(data, spec, cfg, fresh.task, params, build)
    return factors(), fz.TaskHead(weight=params["head_w"], bias=params["head_b"])


# -- dense reference models -------------------------------------------------------


@dataclass
class DenseTaskModels:
    """Independent unfactorized per-task models (upper-bound reference)."""

    spec: fz.NetworkSpec
    weights: list[list[np.ndarray]] = field(default_factory=list)
    heads: list[fz.TaskHead] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        return len(self.heads)

    def predict_logits(self, t: int, x: np.ndarray) -> np.ndarray:
        if not 1 <= t <= self.num_tasks:
            raise ValueError(f"task {t} out of range 1..{self.num_tasks}")
        return fz.run_network(self.weights[t - 1], self.heads[t - 1], self.spec, x)

    def param_count(self) -> int:
        total = sum(w.size for ws in self.weights for w in ws)
        return total + sum(h.param_count for h in self.heads)

    def size_bytes(self) -> int:
        return 4 * self.param_count()


def train_dense_task(
    data: TaskDataset, spec: fz.NetworkSpec, cfg: TrainConfig, task: int
) -> tuple[list[np.ndarray], fz.TaskHead]:
    """Plain dense conv training, no factorization or regularizers."""
    states = np.random.SeedSequence([cfg.seed, task, 7919]).generate_state(spec.num_layers + 1)
    params: dict[str, np.ndarray] = {}
    for l, shape in enumerate(spec.layers):
        rng = np.random.default_rng(int(states[l]))
        scale = np.sqrt(2.0 / shape.q)
        params[f"w{l}"] = (rng.normal(size=(shape.c, shape.q)) * scale).astype(ad.DTYPE)
    head_rng = np.random.default_rng(int(states[-1]))
    head_scale = 1.0 / np.sqrt(spec.head_input_dim)
    params["head_w"] = (
        head_rng.normal(size=(spec.head_input_dim, data.classes)) * head_scale
    ).astype(ad.DTYPE)
    params["head_b"] = np.zeros(data.classes, dtype=ad.DTYPE)
    layers = range(spec.num_layers)

    def build(g: ad.Graph):
        return [g.leaf(params[f"w{l}"], trainable=True, name=f"w{l}") for l in layers], lambda: []

    _fit(data, spec, cfg, task, params, build)
    weights = [params[f"w{l}"] for l in layers]
    return weights, fz.TaskHead(weight=params["head_w"], bias=params["head_b"])


# -- the continual loop --------------------------------------------------------------


def _accuracies(predict, stream: list[TaskDataset], t: int) -> list[float]:
    """Test accuracy of tasks 1..t, task i scored on ``predict(i, x)``."""
    return [accuracy(predict(i, d.test_x), d.test_y) for i, d in enumerate(stream[:t], 1)]


def _prune_error(trained: fz.TaskFactors, kept: fz.TaskFactors) -> list[float]:
    """Per layer, ||W_trained - W_kept||_F / ||W_trained||_F; 0.0 where W_trained is 0."""
    errors = []
    for l in range(len(trained.sigma)):
        w = fz.dense_weight(trained.u[l], trained.sigma[l], trained.v[l])
        lost = w - fz.dense_weight(kept.u[l], kept.sigma[l], kept.v[l])
        norm = float(np.linalg.norm(w))
        errors.append(float(np.linalg.norm(lost)) / norm if norm > 0 else 0.0)
    return errors


def run_continual(stream: list[TaskDataset], spec: fz.NetworkSpec, cfg: TrainConfig):
    """Train the stream under cfg.mode; returns (model, MetricsReport).

    The model is a SharedSpace for factorized modes and DenseTaskModels
    for the dense upper-bound mode.  Task i is always evaluated through
    its extracted sub-network, so the accuracy matrix has constant
    columns below the diagonal by construction.
    """
    if not stream:
        raise ConfigError("task stream is empty")
    acc_rows: list[list[float]] = []
    wall: list[float] = []

    if cfg.mode == "baseline_ub":
        models = DenseTaskModels(spec=spec)
        for t, data in enumerate(stream, 1):
            begin = time.perf_counter()
            weights, head = train_dense_task(data, spec, cfg, t)
            models.weights.append(weights)
            models.heads.append(head)
            wall.append(time.perf_counter() - begin)
            acc_rows.append(_accuracies(models.predict_logits, stream, t))
        report = compute_metrics(
            acc_rows, models.size_bytes(),
            rank_allocation=[], wall_clock=wall, config=asdict(cfg),
        )
        return models, report

    space = fz.empty_space(spec, isolated=(cfg.mode == "st"))
    caps = [s.expansion_rank() for s in spec.layers] if cfg.mode == "fixed" else None
    crossed: dict[int, int] = {}  # layer -> first task whose append passed parity width
    prune_error: list[list[float]] = []  # [task][layer]; the report is [layer][task]
    for t, data in enumerate(stream, 1):
        begin = time.perf_counter()
        fresh, head = fz.expand(spec, t, cfg.seed, data.classes)
        use_shared = cfg.mode in ("full", "fixed") and space.num_tasks > 0
        trained, trained_head = train_task(
            data, space if use_shared else None, fresh, head, cfg, spec=spec
        )
        pruned = cp.compress(trained, cfg.prune_config())
        if caps is not None:
            remaining = [caps[l] - space.total_width(l) for l in range(spec.num_layers)]
            pruned = cp.cap_ranks(pruned, remaining)
        prune_error.append(_prune_error(trained, pruned))
        space = fz.append(space, pruned, trained_head)
        for l, shape in enumerate(spec.layers):
            if l not in crossed and space.total_width(l) > shape.expansion_rank():
                crossed[l] = t
        wall.append(time.perf_counter() - begin)
        acc_rows.append(_accuracies(lambda i, x: fz.predict_logits(space, i, x), stream, t))

    crossings = [
        {"layer": l, "width": space.total_width(l),
         "parity_width": spec.layers[l].expansion_rank(), "first_task": t}
        for l, t in sorted(crossed.items())
    ]
    if crossings:
        log.warning(
            "stored factors cost more than a dense layer in %d layer(s): %s",
            len(crossings),
            "; ".join(
                f"layer {c['layer']} width {c['width']} > parity width "
                f"{c['parity_width']} since task {c['first_task']}"
                for c in crossings
            ),
        )
    rank_alloc = [np.diff(row, prepend=0).tolist() for row in space.rank_table]
    report = compute_metrics(
        acc_rows, fz.size_bytes(space),
        rank_allocation=rank_alloc, wall_clock=wall, config=asdict(cfg),
        parity_crossings=crossings, prune_error=[list(row) for row in zip(*prune_error)],
    )
    return space, report
