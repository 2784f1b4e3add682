"""Reverse-mode automatic differentiation over a small fixed op set.

The graph is a Wengert tape: every operation appends a node holding the
op kind, the ids of its input nodes and the cached forward value.  Leaf
nodes carry parameter arrays and a ``trainable`` flag; frozen leaves
participate in the forward pass but are never handed a gradient.

Forward computation is factored into pure per-op functions so the tape
can be replayed at a different precision with substituted leaf values.
That is what :func:`grad_check` uses: analytic float32 gradients are
compared against central finite differences evaluated by replaying the
graph in float64.

A graph is owned by one thread while it is being built and
differentiated; independent graphs never share state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError

DTYPE = np.float32


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold image patches into a ``(n*kh*kw, N*Ho*Wo)`` matrix.

    The inner patch ordering is row-major ``(channel, kh, kw)`` so the
    rows line up with a conv weight stored as its ``c x (n*kh*kw)`` matrix.
    """
    n_im, c_in, h, w = x.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n_im, c_in, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols.transpose(1, 2, 3, 0, 4, 5).reshape(c_in * kh * kw, n_im * out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch columns back to images."""
    n_im, c_in, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(c_in, kh, kw, n_im, out_h, out_w).transpose(3, 0, 1, 2, 4, 5)
    img = np.zeros((n_im, c_in, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            img[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        img = img[:, :, padding:-padding, padding:-padding]
    return img


def conv_output_size(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def conv2d_forward(w: np.ndarray, x: np.ndarray, kernel: tuple[int, int, int],
                   stride: int = 1, padding: int = 0) -> np.ndarray:
    """Graph-free convolution for inference; same arithmetic as the conv2d op."""
    return _f_conv2d([w, x], {"kernel": kernel, "stride": stride, "padding": padding})


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# --- per-op forward functions: pure in (input values, aux), dtype-agnostic ---


def _f_matmul(v, aux):
    return v[0] @ v[1]


def _f_add(v, aux):
    return v[0] + v[1]


def _f_scale(v, aux):
    return v[0] * v[0].dtype.type(aux["alpha"])


def _f_transpose(v, aux):
    return np.ascontiguousarray(v[0].T)


def _f_diag_embed(v, aux):
    return np.diag(v[0])


def _f_relu(v, aux):
    return np.maximum(v[0], 0)


def _f_reshape(v, aux):
    out = v[0].reshape(aux["shape"])
    # ascontiguousarray would promote 0-d to 1-d, so only copy when needed
    return out if out.flags["C_CONTIGUOUS"] else np.ascontiguousarray(out)


def _f_div(v, aux):
    return v[0] / v[1]


def _f_frobenius(v, aux):
    return np.sqrt((v[0] * v[0]).sum())


def _f_l1(v, aux):
    return np.abs(v[0]).sum()


def _f_linear(v, aux):
    x, w, b = v
    return x @ w + b


def _f_softmax_ce(v, aux):
    logits = v[0]
    labels = aux["labels"]
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return (lse - z[np.arange(logits.shape[0]), labels]).mean()


def _f_conv2d(v, aux):
    w, x = v
    c_in, kh, kw = aux["kernel"]
    stride, padding = aux["stride"], aux["padding"]
    n_im = x.shape[0]
    out_h, out_w = conv_output_size(x.shape[2], x.shape[3], kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    out = w @ cols
    return np.ascontiguousarray(
        out.reshape(w.shape[0], n_im, out_h, out_w).transpose(1, 0, 2, 3)
    )


def _f_dropout(v, aux):
    mask = aux["mask"]
    if mask is None:
        return v[0].copy()
    return v[0] * mask.astype(v[0].dtype)


_FORWARD = {
    "matmul": _f_matmul,
    "add": _f_add,
    "scale": _f_scale,
    "transpose": _f_transpose,
    "diag_embed": _f_diag_embed,
    "relu": _f_relu,
    "reshape": _f_reshape,
    "div": _f_div,
    "frobenius_norm": _f_frobenius,
    "l2_norm": _f_frobenius,
    "l1_norm": _f_l1,
    "linear": _f_linear,
    "softmax_cross_entropy": _f_softmax_ce,
    "conv2d": _f_conv2d,
    "dropout": _f_dropout,
}


# --- per-op vector-Jacobian products: grad list, one entry per input ---


def _b_matmul(g, v, out, aux):
    return [g @ v[1].T, v[0].T @ g]


def _b_add(g, v, out, aux):
    return [_unbroadcast(g, v[0].shape), _unbroadcast(g, v[1].shape)]


def _b_scale(g, v, out, aux):
    return [g * g.dtype.type(aux["alpha"])]


def _b_transpose(g, v, out, aux):
    return [np.ascontiguousarray(g.T)]


def _b_diag_embed(g, v, out, aux):
    return [np.diagonal(g).copy()]


def _b_relu(g, v, out, aux):
    return [g * (v[0] > 0)]


def _b_reshape(g, v, out, aux):
    return [g.reshape(v[0].shape)]


def _b_div(g, v, out, aux):
    a, b = v
    return [_unbroadcast(g / b, a.shape), _unbroadcast(-g * a / (b * b), b.shape)]


def _b_frobenius(g, v, out, aux):
    norm = float(out)
    if norm == 0.0:
        return [np.zeros_like(v[0])]
    return [g * (v[0] / v[0].dtype.type(norm))]


def _b_l1(g, v, out, aux):
    return [g * np.sign(v[0])]


def _b_linear(g, v, out, aux):
    x, w, b = v
    return [g @ w.T, x.T @ g, g.sum(axis=0)]


def _b_softmax_ce(g, v, out, aux):
    logits = v[0]
    labels = aux["labels"]
    p = _softmax(logits)
    p[np.arange(logits.shape[0]), labels] -= 1
    return [p * (g / logits.dtype.type(logits.shape[0]))]


def _b_conv2d(g, v, out, aux):
    w, x = v
    c_in, kh, kw = aux["kernel"]
    stride, padding = aux["stride"], aux["padding"]
    g_mat = g.transpose(1, 0, 2, 3).reshape(w.shape[0], -1)
    cols = im2col(x, kh, kw, stride, padding)
    gw = g_mat @ cols.T
    gx = col2im(w.T @ g_mat, x.shape, kh, kw, stride, padding)
    return [gw, gx]


def _b_dropout(g, v, out, aux):
    mask = aux["mask"]
    if mask is None:
        return [g.copy()]
    return [g * mask.astype(g.dtype)]


_BACKWARD = {
    "matmul": _b_matmul,
    "add": _b_add,
    "scale": _b_scale,
    "transpose": _b_transpose,
    "diag_embed": _b_diag_embed,
    "relu": _b_relu,
    "reshape": _b_reshape,
    "div": _b_div,
    "frobenius_norm": _b_frobenius,
    "l2_norm": _b_frobenius,
    "l1_norm": _b_l1,
    "linear": _b_linear,
    "softmax_cross_entropy": _b_softmax_ce,
    "conv2d": _b_conv2d,
    "dropout": _b_dropout,
}


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    value: np.ndarray
    aux: dict = field(default_factory=dict)
    trainable: bool = False
    name: str | None = None


class Graph:
    """Append-only computation tape; node ids index into ``nodes``."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _apply(self, op: str, inputs: tuple[int, ...], aux: dict | None = None) -> int:
        aux = aux or {}
        values = [self.nodes[i].value for i in inputs]
        value = _FORWARD[op](values, aux)
        return self._append(Node(op=op, inputs=inputs, value=value, aux=aux))

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    # -- leaves ------------------------------------------------------------

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> int:
        arr = np.asarray(value, dtype=DTYPE)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        return self._append(
            Node(op="leaf", inputs=(), value=arr, trainable=trainable, name=name)
        )

    def constant(self, value, name: str | None = None) -> int:
        return self.leaf(value, trainable=False, name=name)

    # -- ops ---------------------------------------------------------------

    def matmul(self, a: int, b: int) -> int:
        va, vb = self.nodes[a].value, self.nodes[b].value
        if va.ndim != 2 or vb.ndim != 2 or va.shape[1] != vb.shape[0]:
            raise ShapeError(f"matmul: cannot multiply {va.shape} by {vb.shape}")
        return self._apply("matmul", (a, b))

    def add(self, a: int, b: int) -> int:
        va, vb = self.nodes[a].value, self.nodes[b].value
        try:
            np.broadcast_shapes(va.shape, vb.shape)
        except ValueError as exc:
            raise ShapeError(f"add: shapes {va.shape} and {vb.shape}") from exc
        return self._apply("add", (a, b))

    def scale(self, a: int, alpha: float) -> int:
        return self._apply("scale", (a,), {"alpha": float(alpha)})

    def transpose(self, a: int) -> int:
        if self.nodes[a].value.ndim != 2:
            raise ShapeError("transpose expects a 2-D value")
        return self._apply("transpose", (a,))

    def diag_embed(self, a: int) -> int:
        if self.nodes[a].value.ndim != 1:
            raise ShapeError("diag_embed expects a 1-D vector")
        return self._apply("diag_embed", (a,))

    def relu(self, a: int) -> int:
        return self._apply("relu", (a,))

    def reshape(self, a: int, shape: tuple[int, ...]) -> int:
        if self.nodes[a].value.size != int(np.prod(shape)):
            raise ShapeError(f"reshape: {self.nodes[a].value.shape} -> {shape}")
        return self._apply("reshape", (a,), {"shape": tuple(shape)})

    def div(self, a: int, b: int) -> int:
        return self._apply("div", (a, b))

    def frobenius_norm(self, a: int) -> int:
        return self._apply("frobenius_norm", (a,))

    def l1_norm(self, a: int) -> int:
        return self._apply("l1_norm", (a,))

    def l2_norm(self, a: int) -> int:
        return self._apply("l2_norm", (a,))

    def linear(self, x: int, w: int, b: int) -> int:
        vx, vw, vb = (self.nodes[i].value for i in (x, w, b))
        if vx.ndim != 2 or vw.ndim != 2 or vx.shape[1] != vw.shape[0]:
            raise ShapeError(f"linear: features {vx.shape} vs weights {vw.shape}")
        if vb.shape != (vw.shape[1],):
            raise ShapeError(f"linear: bias {vb.shape} vs {vw.shape[1]} outputs")
        return self._apply("linear", (x, w, b))

    def softmax_cross_entropy(self, logits: int, labels) -> int:
        v = self.nodes[logits].value
        labels = np.asarray(labels)
        if v.ndim != 2:
            raise ShapeError("softmax_cross_entropy expects (batch, classes) logits")
        if labels.shape != (v.shape[0],) or not np.issubdtype(labels.dtype, np.integer):
            raise DataError("labels must be an integer vector matching the batch")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= v.shape[1]:
            raise DataError(
                f"labels must lie in [0, {v.shape[1]}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        return self._apply("softmax_cross_entropy", (logits,), {"labels": labels})

    def conv2d(self, weight: int, x: int, kernel: tuple[int, int, int], stride: int = 1, padding: int = 0) -> int:
        vw, vx = self.nodes[weight].value, self.nodes[x].value
        c_in, kh, kw = kernel
        if vw.ndim != 2 or vw.shape[1] != c_in * kh * kw:
            raise ShapeError(f"conv2d: weight {vw.shape} vs kernel {kernel}")
        if vx.ndim != 4 or vx.shape[1] != c_in:
            raise ShapeError(f"conv2d: input {vx.shape} vs {c_in} channels")
        out_h, out_w = conv_output_size(vx.shape[2], vx.shape[3], kh, kw, stride, padding)
        if out_h < 1 or out_w < 1:
            raise ShapeError(f"conv2d: input {vx.shape[2:]} too small for kernel {kernel}")
        aux = {"kernel": (c_in, kh, kw), "stride": int(stride), "padding": int(padding)}
        return self._apply("conv2d", (weight, x), aux)

    def dropout(self, a: int, rate: float, seed: int, train: bool) -> int:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        mask = None
        if train and rate > 0.0:
            rng = np.random.default_rng(seed)
            keep = rng.random(self.nodes[a].value.shape) >= rate
            mask = (keep / (1.0 - rate)).astype(DTYPE)
        return self._apply("dropout", (a,), {"mask": mask})

    # -- differentiation ----------------------------------------------------

    def _ancestors(self, target: int) -> list[int]:
        reach = {target}
        for nid in range(target, -1, -1):
            if nid in reach:
                reach.update(self.nodes[nid].inputs)
        return sorted(reach)

    def backward(self, loss: int) -> dict[int, np.ndarray]:
        """Gradients of the scalar ``loss`` node for all reachable trainable leaves."""
        loss_node = self.nodes[loss]
        if loss_node.value.ndim != 0:
            raise ValueError("backward requires a scalar loss node")
        reach = set(self._ancestors(loss))
        grads: dict[int, np.ndarray] = {loss: np.ones((), dtype=loss_node.value.dtype)}
        for nid in range(loss, -1, -1):
            if nid not in grads or nid not in reach:
                continue
            node = self.nodes[nid]
            if node.op == "leaf":
                continue
            values = [self.nodes[i].value for i in node.inputs]
            contribs = _BACKWARD[node.op](grads[nid], values, node.value, node.aux)
            for inp, contrib in zip(node.inputs, contribs):
                if inp in grads:
                    grads[inp] = grads[inp] + contrib
                else:
                    grads[inp] = contrib
        return {
            nid: grads[nid]
            for nid in grads
            if self.nodes[nid].op == "leaf" and self.nodes[nid].trainable
        }

    def replay(
        self,
        target: int,
        overrides: dict[int, np.ndarray] | None = None,
        dtype=np.float64,
        order: list[int] | None = None,
    ) -> np.ndarray:
        """Recompute ``target``'s value with substituted leaves at ``dtype``."""
        order = order if order is not None else self._ancestors(target)
        vals: dict[int, np.ndarray] = {}
        for nid in order:
            node = self.nodes[nid]
            if node.op == "leaf":
                base = node.value
                if overrides and nid in overrides:
                    base = overrides[nid]
                vals[nid] = np.asarray(base, dtype=dtype)
            else:
                vals[nid] = _FORWARD[node.op]([vals[i] for i in node.inputs], node.aux)
        return vals[target]


@dataclass
class GradCheckReport:
    """Per-parameter max relative deviation of analytic vs. numeric gradients."""

    deviations: dict[int, float]
    names: dict[int, str | None]
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def __str__(self) -> str:
        lines = [
            f"  node {nid} ({self.names.get(nid) or 'param'}): {dev:.3e}"
            for nid, dev in sorted(self.deviations.items())
        ]
        status = "PASS" if self.passed else "FAIL"
        return f"grad check {status} (tol {self.tolerance:g}):\n" + "\n".join(lines)


def grad_check(
    graph: Graph,
    loss: int,
    step: float = 1e-3,
    tolerance: float = 1e-3,
    max_entries: int = 25,
    seed: int = 0,
    floor: float = 1e-3,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    The finite-difference side re-evaluates the graph in float64, so the
    comparison is limited by float32 rounding of the analytic pass, far
    below the default tolerance on well-conditioned graphs.

    Gradient entries smaller than ``floor`` are measured against ``floor``
    instead of their own magnitude: central differences carry an O(step^2)
    truncation term, so the relative error of a vanishing component is
    unbounded no matter how exact the analytic side is.
    """
    analytic = graph.backward(loss)
    order = graph._ancestors(loss)
    rng = np.random.default_rng(seed)
    deviations: dict[int, float] = {}
    names: dict[int, str | None] = {}
    for nid, agrad in analytic.items():
        base = graph.nodes[nid].value.astype(np.float64)
        flat = base.reshape(-1)
        size = flat.shape[0]
        if size <= max_entries:
            picks = np.arange(size)
        else:
            picks = rng.choice(size, size=max_entries, replace=False)
        worst = 0.0
        for idx in picks:
            bumped = flat.copy()
            bumped[idx] += step
            f_plus = float(graph.replay(loss, {nid: bumped.reshape(base.shape)}, order=order))
            bumped[idx] -= 2.0 * step
            f_minus = float(graph.replay(loss, {nid: bumped.reshape(base.shape)}, order=order))
            fd = (f_plus - f_minus) / (2.0 * step)
            an = float(agrad.reshape(-1)[idx])
            denom = max(abs(an), abs(fd), floor)
            worst = max(worst, abs(an - fd) / denom)
        deviations[nid] = worst
        names[nid] = graph.nodes[nid].name
    return GradCheckReport(deviations=deviations, names=names, tolerance=tolerance)
