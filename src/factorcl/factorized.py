"""SVD-parameterized continual network.

Each conv layer's weight lives as factor triples (U, sigma, V) over the
2-D reshaped weight matrix.  Completed tasks occupy a frozen, append-only
shared space; the current task trains a residual triple on top:

    W_l = U_shared diag(sigma_shared) V_shared^T + U_t diag(sigma_t) V_t^T

Per-task cumulative ranks recorded at append time act as task
identifiers: extracting the first R_{l,t} columns reproduces task t's
weights bitwise no matter how many tasks were added afterwards.

Stored factors become a dense weight through one formula,
:func:`dense_weight` (from ``linalg``).  It serves extraction, so the
frozen prefix a new task trains against is bitwise the weights its
predecessors serve, and it is the forward of the tape's
``factor_product`` op, which builds the residual's weight in training.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError, is_int
from .linalg import DTYPE, dense_weight, random_orthonormal


@dataclass(frozen=True)
class LayerShape:
    """Conv weight dimensions: c output channels, (n, h, w) kernel volume."""

    c: int
    n: int
    h: int
    w: int

    def __post_init__(self):
        dims = (self.c, self.n, self.h, self.w)
        if not all(map(is_int, dims)) or min(dims) < 1:
            raise ConfigError(f"layer dimensions must be positive integers, got {self}")

    @property
    def q(self) -> int:
        return self.n * self.h * self.w

    def expansion_rank(self) -> int:
        # width at which factorized params (c*r + q*r + r) stay below dense c*q
        return max(1, (self.c * self.q) // (self.c + self.q + 1))


# Cap on the values one image unfolds to, summed over layers (q * out_h * out_w
# each), and on the values one layer outputs for it (c * out_h * out_w): the
# im2col index table, the columns and the gemm output of a predict grow with them.
MAX_UNFOLD = 1 << 24


def _feature_dim(layers, input_hw, strides, paddings) -> int:
    """Flattened size of the conv stack's output: the head's input width.

    The one walk over the geometry: a geometry that would unfold one
    image to over :data:`MAX_UNFOLD` values, or have a layer output as
    many for it, is refused here, before anything of that size is
    allocated.
    """
    if not layers:
        raise ConfigError("network needs at least one layer")
    if not all(map(is_int, input_hw)):
        raise ConfigError(f"input_hw must be integers, got {input_hw}")
    h, w = input_hw
    unfold = 0
    for l, (shape, stride, pad) in enumerate(zip(layers, strides, paddings)):
        if not (is_int(stride) and is_int(pad)) or stride < 1 or pad < 0:
            raise ConfigError(f"stride must be an integer >= 1 and padding an integer >= 0, "
                              f"got {stride} and {pad}")
        h, w = ad.conv_output_size(h, w, shape.h, shape.w, stride, pad)
        if h < 1 or w < 1:
            raise ConfigError("feature map collapsed to zero size")
        unfold += shape.q * h * w
        if unfold > MAX_UNFOLD:
            raise ConfigError(f"layers 0..{l} unfold an image to {unfold} values, over "
                              f"the cap of {MAX_UNFOLD}")
        if shape.c * h * w > MAX_UNFOLD:
            raise ConfigError(f"layer {l} outputs {shape.c * h * w} values an image, over "
                              f"the cap of {MAX_UNFOLD}")
    return layers[-1].c * h * w


@dataclass(frozen=True)
class NetworkSpec:
    """Static architecture: conv stack geometry; the head input width derives from it."""

    layers: tuple[LayerShape, ...]
    input_hw: tuple[int, int]
    strides: tuple[int, ...]
    paddings: tuple[int, ...]
    head_input_dim: int = field(init=False)

    def __post_init__(self):
        n_layers = len(self.layers)
        for name in ("strides", "paddings"):
            if len(getattr(self, name)) != n_layers:
                raise ConfigError(f"{name} must have one entry per layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.n != prev.c:
                raise ConfigError(
                    f"layer input channels {nxt.n} do not match previous output {prev.c}"
                )
        features = _feature_dim(self.layers, self.input_hw, self.strides, self.paddings)
        object.__setattr__(self, "head_input_dim", features)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @classmethod
    def build(
        cls,
        channels,
        in_channels: int,
        input_hw: tuple[int, int],
        kernel: int = 3,
        stride=1,
        padding=1,
    ) -> "NetworkSpec":
        """Conv stack helper; head width inferred from geometry.

        ``stride`` and ``padding`` may be scalars (shared by all layers)
        or one value per layer.
        """
        layers = []
        prev = in_channels
        for c in channels:
            layers.append(LayerShape(c=c, n=prev, h=kernel, w=kernel))
            prev = c
        n = len(layers)

        def per_layer(value):
            return tuple(value) if isinstance(value, (tuple, list)) else (value,) * n

        return cls(
            layers=tuple(layers),
            input_hw=tuple(input_hw),
            strides=per_layer(stride),
            paddings=per_layer(padding),
        )


@dataclass
class TaskHead:
    """Per-task linear classifier; trainable only while its task is active."""

    weight: np.ndarray  # (head_input_dim, classes)
    bias: np.ndarray  # (classes,)

    @property
    def classes(self) -> int:
        return self.weight.shape[1]

    @property
    def param_count(self) -> int:
        return self.weight.size + self.bias.size

    def copy(self) -> "TaskHead":
        return TaskHead(weight=self.weight.copy(), bias=self.bias.copy())

    def check(self, head_input_dim: int, task: int) -> None:
        """Refuse a weight but ``(head_input_dim, classes ≥ 1)`` or a bias but ``(classes,)``."""
        w, b = self.weight.shape, self.bias.shape
        if len(w) != 2 or w[0] != head_input_dim or w[1] < 1 or b != (w[1],):
            raise ShapeError(f"task {task}: head weight {w} / bias {b} do not fit "
                             f"{head_input_dim} inputs and at least one class")


@dataclass
class TaskFactors:
    """One task's per-layer factor triples (U, sigma, V)."""

    task: int
    u: list[np.ndarray]
    sigma: list[np.ndarray]
    v: list[np.ndarray]

    def ranks(self) -> tuple[int, ...]:
        return tuple(s.shape[0] for s in self.sigma)


@dataclass(frozen=True)
class SharedSpace:
    """Append-only store of compressed task factors plus task identifiers.

    ``rank_table[l][t-1]`` is the cumulative rank R_{l,t} after task t.
    With ``isolated`` set, tasks share nothing and extraction reads each
    task's own column segment instead of the full prefix.
    """

    spec: NetworkSpec
    u: tuple[np.ndarray, ...]
    sigma: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    rank_table: tuple[tuple[int, ...], ...]
    heads: tuple[TaskHead, ...]
    isolated: bool = False

    @property
    def num_tasks(self) -> int:
        return len(self.heads)

    def rank_upto(self, layer: int, t: int) -> int:
        """Cumulative rank R_{layer,t}; R_{layer,0} = 0."""
        if t == 0:
            return 0
        return self.rank_table[layer][t - 1]

    def columns(self, layer: int, t: int) -> tuple[int, int]:
        """Stored columns ``[lo, hi)`` that task t's weights use.

        The prefix up to R_{layer,t}, or in isolated mode task t's own
        segment.
        """
        lo = self.rank_upto(layer, t - 1) if self.isolated and t > 0 else 0
        return lo, self.rank_upto(layer, t)

    def total_width(self, layer: int) -> int:
        return self.u[layer].shape[1]


def empty_space(spec: NetworkSpec, isolated: bool = False) -> SharedSpace:
    return SharedSpace(
        spec=spec,
        u=tuple(np.zeros((s.c, 0), dtype=DTYPE) for s in spec.layers),
        sigma=tuple(np.zeros(0, dtype=DTYPE) for _ in spec.layers),
        v=tuple(np.zeros((s.q, 0), dtype=DTYPE) for s in spec.layers),
        rank_table=tuple(() for _ in spec.layers),
        heads=(),
        isolated=isolated,
    )


def expand(spec: NetworkSpec, t: int, seed: int, classes: int) -> tuple[TaskFactors, TaskHead]:
    """Fresh trainable factors and head for task ``t``.

    Per layer r = floor(c*q / (c + q + 1)) clamped to >= 1, so factorized
    storage never exceeds the dense weight.  U, V start column-orthonormal;
    sigma starts in (0.5, 1.0]: graded so pruning order is meaningful, but
    bounded away from zero so the sparsity penalty (whose gradient blows up
    as ||sigma|| -> 0) cannot erase a direction before the task has produced
    any gradient signal for it.
    """
    states = np.random.SeedSequence([seed, t]).generate_state(3 * spec.num_layers + 2)
    u, sigma, v = [], [], []
    for l, shape in enumerate(spec.layers):
        r = shape.expansion_rank()
        u.append(random_orthonormal(shape.c, r, seed=int(states[3 * l])))
        v.append(random_orthonormal(shape.q, r, seed=int(states[3 * l + 1])))
        rng = np.random.default_rng(int(states[3 * l + 2]))
        sigma.append((0.5 + 0.5 * (1.0 - rng.random(r))).astype(DTYPE))
    head_rng = np.random.default_rng(int(states[-2]))
    scale = 1.0 / np.sqrt(spec.head_input_dim)
    head = TaskHead(
        weight=(head_rng.normal(size=(spec.head_input_dim, classes)) * scale).astype(DTYPE),
        bias=np.zeros(classes, dtype=DTYPE),
    )
    return TaskFactors(task=t, u=u, sigma=sigma, v=v), head


def _check_residual(spec: NetworkSpec, factors: TaskFactors) -> None:
    for l, shape in enumerate(spec.layers):
        r = factors.sigma[l].shape[0]
        if factors.u[l].shape != (shape.c, r) or factors.v[l].shape != (shape.q, r):
            raise ShapeError(
                f"layer {l}: factors U{factors.u[l].shape} / sigma({r},) / "
                f"V{factors.v[l].shape} do not fit weight {shape.c}x{shape.q}"
            )


@dataclass
class ComposedWeights:
    """Graph nodes for Eq-style additive weights plus the trainable leaf ids."""

    weights: list[int]
    u_leaves: list[int]
    sigma_leaves: list[int]
    v_leaves: list[int]


def compose_weights(
    g: ad.Graph,
    prefix: list[np.ndarray] | None,
    residual: TaskFactors,
) -> ComposedWeights:
    """Build the per-layer additive weight graph.

    ``prefix`` holds the frozen shared weights the residual trains on top
    of, the extracted weights of the latest stored task
    (``extract_subnetwork(shared, shared.num_tasks)[0]``), or None when
    nothing is stored.  Each layer's prefix enters as one frozen leaf,
    which backward never visits; the residual triple enters as trainable
    leaves named ``u{l}``, ``sigma{l}`` and ``v{l}``, joined by one
    ``factor_product`` node.
    """
    weights, u_ids, s_ids, v_ids = [], [], [], []
    for l in range(len(residual.u)):
        u = g.leaf(residual.u[l], trainable=True, name=f"u{l}")
        s = g.leaf(residual.sigma[l], trainable=True, name=f"sigma{l}")
        v = g.leaf(residual.v[l], trainable=True, name=f"v{l}")
        w_res = g.factor_product(u, s, v)
        if prefix is not None:
            if prefix[l].shape != g.value(w_res).shape:
                raise ShapeError(
                    f"layer {l}: residual weight {g.value(w_res).shape} does not fit "
                    f"the frozen prefix {prefix[l].shape}"
                )
            w_res = g.add(g.leaf(prefix[l], name=f"prefix{l}"), w_res)
        weights.append(w_res)
        u_ids.append(u)
        s_ids.append(s)
        v_ids.append(v)
    return ComposedWeights(weights=weights, u_leaves=u_ids, sigma_leaves=s_ids, v_leaves=v_ids)


def graph_forward(
    g: ad.Graph,
    weights: list[int],
    spec: NetworkSpec,
    x_node: int,
) -> int:
    """Training-time conv stack forward on graph nodes; returns flattened feature node.

    ``x_node`` is batch-major ``(N, C, H, W)`` and the result is
    ``(N, head_input_dim)``.  In between, activations are batch-innermost
    ``(C, H, W, N)``: one transpose on entry and one before the flatten.
    Inference runs :func:`forward_features`, the same stack on plain arrays.
    """
    batch = g.value(x_node).shape[0]
    h = g.transpose(x_node, (1, 2, 3, 0))
    for l, shape in enumerate(spec.layers):
        h = g.conv2d(
            weights[l], h, kernel=(shape.n, shape.h, shape.w),
            stride=spec.strides[l], padding=spec.paddings[l],
        )
        h = g.relu(h)
    return g.reshape(g.transpose(h, (3, 0, 1, 2)), (batch, spec.head_input_dim))


# Inference unfolds, and each layer outputs, at most this many bytes at a time.
CHUNK_BYTES = 1 << 20


@functools.lru_cache(maxsize=64)
def _chunk_images(spec: NetworkSpec) -> int:
    """Images per :func:`forward_features` chunk, at least one, computed once per geometry.

    As many as keep every layer's im2col columns, gather source (its
    input pixels and the zero row) and gemm output within
    :data:`CHUNK_BYTES`.
    """
    h, w = spec.input_hw
    per_image = 0  # float32 values per image of the widest buffer
    for shape, stride, pad in zip(spec.layers, spec.strides, spec.paddings):
        out_h, out_w = ad.conv_output_size(h, w, shape.h, shape.w, stride, pad)
        per_image = max(per_image, shape.q * out_h * out_w, shape.n * h * w + 1,
                        shape.c * out_h * out_w)
        h, w = out_h, out_w
    return max(1, CHUNK_BYTES // (per_image * np.dtype(DTYPE).itemsize))


def _conv_stack(weights, spec: NetworkSpec, x) -> np.ndarray:
    """The conv stack with its ReLUs on batch-major ``x``: batch-innermost ``(C, H, W, N)``."""
    h = np.ascontiguousarray(np.transpose(x, (1, 2, 3, 0)), dtype=DTYPE)
    for l, shape in enumerate(spec.layers):
        h = ad.conv2d_forward(
            weights[l], h, kernel=(shape.n, shape.h, shape.w),
            stride=spec.strides[l], padding=spec.paddings[l],
        )
        np.maximum(h, 0, out=h)  # h is this layer's fresh conv output
    return h


def forward_features(weights, spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Inference-mode conv stack on plain arrays.

    Takes batch-major ``(N, C, H, W)`` input and returns C-contiguous
    ``(N, head_input_dim)`` features; the conv stack runs batch-innermost
    ``(C, H, W, N)`` in between, over chunks of :func:`_chunk_images`
    images, so its unfold scratch and each layer's output stay within
    :data:`CHUNK_BYTES` whatever N is.  Each chunk's features are copied
    into its rows of one C-ordered array.  An input whose channels or image size are not the
    spec's is a :class:`ShapeError`: a strided stack could otherwise map a
    smaller image to the head's width.
    """
    got, expected = np.shape(x), (spec.layers[0].n, *spec.input_hw)
    if len(got) != 4 or got[1:] != expected:
        raise ShapeError(f"input must be (N, {', '.join(map(str, expected))}), got {got}")
    n = got[0]
    chunk = 1 if n <= 1 else _chunk_images(spec)  # one image is always one chunk
    # the flatten of the transpose is a strided view: the head gemm takes
    # another BLAS path on it, so the features are copied to C order
    feats = np.empty((n, spec.head_input_dim), dtype=DTYPE)
    for start in range(0, n, chunk):
        h = _conv_stack(weights, spec, x[start:start + chunk])
        c, out_h, out_w, m = h.shape
        feats[start:start + m].reshape(m, c, out_h, out_w)[...] = h.transpose(3, 0, 1, 2)
    return feats


def run_network(weights, head: TaskHead, spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Dense-weight inference: conv features then task head logits."""
    return forward_features(weights, spec, x) @ head.weight + head.bias


def extract_subnetwork(shared: SharedSpace, t: int) -> tuple[list[np.ndarray], TaskHead]:
    """Task t's frozen dense weights and head, via its rank identifiers.

    Uses only the first R_{l,t} stored columns (or task t's own segment
    in isolated mode), so the result is bitwise stable across all later
    appends.
    """
    if not 1 <= t <= shared.num_tasks:
        raise ValueError(f"task {t} out of range 1..{shared.num_tasks}")
    weights = []
    for l in range(shared.spec.num_layers):
        lo, hi = shared.columns(l, t)
        u, s, v = shared.u[l][:, lo:hi], shared.sigma[l][lo:hi], shared.v[l][:, lo:hi]
        weights.append(dense_weight(u, s, v))
    return weights, shared.heads[t - 1]


def predict_logits(shared: SharedSpace, t: int, x: np.ndarray) -> np.ndarray:
    weights, head = extract_subnetwork(shared, t)
    return run_network(weights, head, shared.spec, x)


def append(shared: SharedSpace, pruned: TaskFactors, head: TaskHead) -> SharedSpace:
    """New SharedSpace with task columns concatenated after existing ones.

    Existing arrays are never mutated; earlier extraction results stay
    bitwise identical.  Factors and head are stored as float32; a head
    that does not fit and values non-finite as float32 are rejected.
    """
    _check_residual(shared.spec, pruned)
    head.check(shared.spec.head_input_dim, pruned.task)
    u, sigma, v = ([a.astype(DTYPE, copy=False) for a in arrs]
                   for arrs in (pruned.u, pruned.sigma, pruned.v))
    head = TaskHead(weight=np.array(head.weight, DTYPE, order="C"), bias=np.array(head.bias, DTYPE))
    if not all(np.isfinite(a).all() for a in (*u, *sigma, *v, head.weight, head.bias)):
        raise NumericError(f"task {pruned.task}: non-finite factors or head cannot be appended")
    for l, s in enumerate(sigma):
        if s.size and (np.any(s < 0) or np.any(np.diff(s) > 0)):
            raise ValueError(f"layer {l}: appended sigma must be sorted non-negative")
    new_u, new_s, new_v, new_table = [], [], [], []
    for l in range(shared.spec.num_layers):
        new_u.append(np.ascontiguousarray(np.concatenate([shared.u[l], u[l]], axis=1)))
        new_s.append(np.ascontiguousarray(np.concatenate([shared.sigma[l], sigma[l]])))
        new_v.append(np.ascontiguousarray(np.concatenate([shared.v[l], v[l]], axis=1)))
        prev = shared.rank_table[l][-1] if shared.rank_table[l] else 0
        new_table.append(shared.rank_table[l] + (prev + sigma[l].shape[0],))
    return SharedSpace(
        spec=shared.spec,
        u=tuple(new_u),
        sigma=tuple(new_s),
        v=tuple(new_v),
        rank_table=tuple(new_table),
        heads=shared.heads + (head,),
        isolated=shared.isolated,
    )


def param_count(shared: SharedSpace) -> int:
    """Stored reals: per layer (c + q + 1) * R_total, plus all head params."""
    total = 0
    for l, shape in enumerate(shared.spec.layers):
        width = shared.total_width(l)
        total += (shape.c + shape.q + 1) * width
    total += sum(h.param_count for h in shared.heads)
    return total


def size_bytes(shared: SharedSpace) -> int:
    return 4 * param_count(shared)
