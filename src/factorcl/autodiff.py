"""Reverse-mode automatic differentiation over a small fixed op set.

The graph is a Wengert tape: every operation appends a node holding the
op kind, the ids of its input nodes and the cached forward value.  Leaf
nodes carry parameter arrays and a ``trainable`` flag; frozen leaves
participate in the forward pass but are never handed a gradient.

Every node records whether it needs a gradient: a trainable leaf does,
and so does any node with an input that does.  ``backward`` visits only
those nodes, so a frozen subgraph (the composed shared prefix, the data
batch) is not visited at all and never receives a contribution.

A tape whose shape does not change is built once and re-run.
:meth:`Graph.feed` replaces a per-step input (a leaf's value, a loss
node's labels, a dropout node's seed) after the same checks building
the node made, and :meth:`Graph.rerun` re-evaluates every op node in
tape order with the same forward formulas, so a re-run tape holds the
values and gradients a fresh build would, bit for bit.  A forward that computes an
intermediate its backward needs saves it in the node's ``aux``: ``conv2d``
its im2col columns, ``gram_deviation`` its residual ``XᵀX − I``.  Building,
re-running and replaying share one per-node evaluation.

Convolutions keep activations channel-major, ``(C, N, H, W)``: channel
first, then batch.  ``im2col`` and ``col2im``, ``conv2d_forward`` and the
``conv2d`` op all take and return that layout, so a convolution's output
is its gemm result reshaped, with no copy, and its backward reads the
incoming gradient with a free reshape.  A network whose inputs and
features are batch-major transposes once on entry to the conv stack and
once before the flatten (see ``factorized.graph_forward``).

Each formula of the factorized model is one op with a closed-form
backward: ``factor_product`` (a layer's weight ``(U*s)·Vᵀ``),
``gram_deviation`` (``‖XᵀX − I‖_F``) and ``hoyer`` (``‖s‖₁ / (‖s‖₂ + ε)``);
the rest of the package evaluates the same forward functions eagerly.

Forward computation is factored into pure per-op functions so the tape
can be replayed at a different precision with substituted leaf values.
That is what :func:`grad_check` uses: analytic float32 gradients are
compared against central finite differences evaluated by replaying the
graph in float64.

A graph is owned by one thread while it is being built, re-run and
differentiated; independent graphs never share state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError
from .linalg import dense_weight

DTYPE = np.float32

# Added to the Hoyer ratio's denominator so an all-zero sigma has a value.
HOYER_EPS = 1e-12


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold channel-major ``(C, N, H, W)`` patches into a ``(C*kh*kw, N*Ho*Wo)`` matrix.

    Rows are ordered ``(channel, kh, kw)``, so they line up with a conv
    weight stored as its ``c x (n*kh*kw)`` matrix; columns are ordered
    ``(image, out row, out col)``.  Each kernel offset's shifted slice is
    written straight into a ``(C, kh, kw, N, Ho, Wo)`` buffer, whose
    reshape is the column matrix.
    """
    c_in, n_im, h, w = x.shape
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, padding)
    if padding > 0:
        padded = np.zeros((c_in, n_im, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    cols = np.empty((c_in, kh, kw, n_im, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            cols[:, i, j] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols.reshape(c_in * kh * kw, n_im * out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch columns back to ``(C, N, H, W)``.

    The kernel offsets are added in row-major ``(i, j)`` order into a
    batch-innermost ``(C, Hp, Wp, N)`` buffer, where each strided add
    moves whole runs of N contiguous values; the result is one contiguous
    channel-major copy of the unpadded interior.
    """
    c_in, n_im, h, w = x_shape
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, padding)
    cols = cols.reshape(c_in, kh, kw, n_im, out_h, out_w).transpose(0, 1, 2, 4, 5, 3)
    img = np.zeros((c_in, h + 2 * padding, w + 2 * padding, n_im), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            img[:, i:i_max:stride, j:j_max:stride] += cols[:, i, j]
    img = img[:, padding:padding + h, padding:padding + w]
    return np.ascontiguousarray(img.transpose(0, 3, 1, 2))


def conv_output_size(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def conv2d_forward(w: np.ndarray, x: np.ndarray, kernel: tuple[int, int, int],
                   stride: int = 1, padding: int = 0) -> np.ndarray:
    """Graph-free convolution for inference; same arithmetic as the conv2d op.

    ``x`` is channel-major ``(C, N, H, W)`` and so is the result.
    """
    return _f_conv2d([w, x], {"kernel": kernel, "stride": stride, "padding": padding})


def gram_deviation(x: np.ndarray):
    """``‖XᵀX − I‖_F`` of a 2-D ``x`` at its precision; the ``gram_deviation`` forward."""
    return _gram_deviation([x], None)[0]


def _gram_deviation(v, aux):
    """The gram_deviation forward and the residual ``D = XᵀX − I`` its backward reads."""
    x = v[0]
    # a contiguous copy of Xᵀ pins the gemm operands, and so the bits of XᵀX
    residual = np.ascontiguousarray(x.T) @ x - np.eye(x.shape[1], dtype=x.dtype)
    return _f_frobenius([residual], None), {"residual": residual}


def hoyer(s: np.ndarray, eps: float):
    """``‖s‖₁ / (‖s‖₂ + eps)`` of a 1-D ``s`` at its precision; the ``hoyer`` forward."""
    return np.abs(s).sum() / (np.sqrt((s * s).sum()) + s.dtype.type(eps))


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
    return np.ascontiguousarray(np.transpose(v[0], aux["axes"]))


def _f_relu(v, aux):
    return np.maximum(v[0], 0)


def _f_reshape(v, aux):
    out = v[0].reshape(aux["shape"])
    # ascontiguousarray would promote 0-d to 1-d, so only copy when needed
    return out if out.flags["C_CONTIGUOUS"] else np.ascontiguousarray(out)


def _f_frobenius(v, aux):
    return np.sqrt((v[0] * v[0]).sum())


def _f_linear(v, aux):
    x, w, b = v
    return x @ w + b


def _f_softmax_ce(v, aux):
    logits = v[0]
    labels = aux["labels"]
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return (lse - z[np.arange(logits.shape[0]), labels]).mean()


def _conv2d(v, aux):
    """The one conv forward formula: the output and the im2col columns it used.

    ``x`` and the output are channel-major, so the output is the gemm
    result ``(c_out, N*Ho*Wo)`` reshaped, without a copy.
    """
    w, x = v
    c_in, kh, kw = aux["kernel"]
    stride, padding = aux["stride"], aux["padding"]
    n_im = x.shape[1]
    out_h, out_w = conv_output_size(x.shape[2], x.shape[3], kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    out = (w @ cols).reshape(w.shape[0], n_im, out_h, out_w)
    return out, {"cols": cols}


def _f_conv2d(v, aux):
    return _conv2d(v, aux)[0]


def _f_dropout(v, aux):
    mask = aux["mask"]
    if mask is None:
        return v[0].copy()
    return v[0] * mask.astype(v[0].dtype)


def _dropout_mask(shape: tuple[int, ...], rate: float, seed: int) -> np.ndarray | None:
    """Inverted-dropout mask drawn from ``seed``; None when nothing is dropped."""
    if rate == 0.0:
        return None
    keep = np.random.default_rng(seed).random(shape) >= rate
    return (keep / (1.0 - rate)).astype(DTYPE)


def _checked_labels(logits_shape: tuple[int, ...], labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (logits_shape[0],) or not np.issubdtype(labels.dtype, np.integer):
        raise DataError("labels must be an integer vector matching the batch")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits_shape[1]:
        raise DataError(
            f"labels must lie in [0, {logits_shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def _leaf_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=DTYPE)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


# Ops whose backward reads an intermediate of the forward: a forward that
# returns the value and those intermediates, which the tape keeps in the
# node's aux.  A replay at another precision needs only the value.
_SAVING = {
    "conv2d": _conv2d,
    "gram_deviation": _gram_deviation,
}

_FORWARD = {
    "matmul": _f_matmul,
    "add": _f_add,
    "scale": _f_scale,
    "transpose": _f_transpose,
    "relu": _f_relu,
    "reshape": _f_reshape,
    "frobenius_norm": _f_frobenius,
    "factor_product": lambda v, aux: dense_weight(*v),
    "gram_deviation": lambda v, aux: gram_deviation(v[0]),
    "hoyer": lambda v, aux: hoyer(v[0], HOYER_EPS),
    "linear": _f_linear,
    "softmax_cross_entropy": _f_softmax_ce,
    "conv2d": _f_conv2d,
    "dropout": _f_dropout,
}


def _node_forward(op: str, inputs: list, aux: dict, save: bool):
    """One node's forward value; with ``save``, what its backward reads goes into ``aux``."""
    saving = _SAVING.get(op) if save else None
    if saving is None:
        return _FORWARD[op](inputs, aux)
    value, saved = saving(inputs, aux)
    aux.update(saved)
    return value


# --- per-op vector-Jacobian products: grad list, one entry per input ---
# An entry may be None for an input that needs no gradient; backward skips it.


def _b_matmul(g, v, out, aux):
    return [g @ v[1].T, v[0].T @ g]


def _b_add(g, v, out, aux):
    return [_unbroadcast(g, v[0].shape), _unbroadcast(g, v[1].shape)]


def _b_scale(g, v, out, aux):
    return [g * g.dtype.type(aux["alpha"])]


def _b_transpose(g, v, out, aux):
    axes = aux["axes"]
    inverse = None if axes is None else np.argsort(axes)
    return [np.ascontiguousarray(np.transpose(g, inverse))]


def _b_relu(g, v, out, aux):
    return [g * (v[0] > 0)]


def _b_reshape(g, v, out, aux):
    return [g.reshape(v[0].shape)]


def _b_frobenius(g, v, out, aux):
    norm = float(out)
    if norm == 0.0:
        return [np.zeros_like(v[0])]
    return [g * (v[0] / v[0].dtype.type(norm))]


def _b_factor_product(g, v, out, aux):
    u, s, vt = v
    gv = g @ vt
    return [gv * s, np.diagonal(u.T @ gv).copy(), g.T @ (u * s)]


def _b_gram_deviation(g, v, out, aux):
    # 2·X·(d‖D‖/dD) for the symmetric D = XᵀX − I, so 0 at the kink D = 0
    return [2 * (v[0] @ _b_frobenius(g, [aux["residual"]], out, aux)[0])]


def _b_hoyer(g, v, out, aux):
    # quotient rule; at s = 0 the ‖s‖₂ term's gradient is taken as 0
    s = v[0]
    num, l2 = np.abs(s).sum(), np.sqrt((s * s).sum())
    den = l2 + s.dtype.type(HOYER_EPS)
    g_s = g / den * np.sign(s)
    return [g_s if l2 == 0 else (-g * num / (den * den)) * (s / l2) + g_s]


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
    g_mat = g.reshape(w.shape[0], -1)
    gw = g_mat @ aux["cols"].T
    if not aux["x_needs_grad"]:
        return [gw, None]
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
    "relu": _b_relu,
    "reshape": _b_reshape,
    "frobenius_norm": _b_frobenius,
    "factor_product": _b_factor_product,
    "gram_deviation": _b_gram_deviation,
    "hoyer": _b_hoyer,
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
    needs_grad: bool = False


class Graph:
    """Append-only computation tape; node ids index into ``nodes``."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _apply(self, op: str, inputs: tuple[int, ...], aux: dict | None = None) -> int:
        aux = aux or {}
        value = _node_forward(op, [self.nodes[i].value for i in inputs], aux, save=True)
        return self._append(Node(op=op, inputs=inputs, value=value, aux=aux,
                                 needs_grad=self._any_needs_grad(inputs)))

    def _any_needs_grad(self, inputs: tuple[int, ...]) -> bool:
        return any(self.nodes[i].needs_grad for i in inputs)

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    # -- leaves ------------------------------------------------------------

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> int:
        return self._append(
            Node(op="leaf", inputs=(), value=_leaf_array(value), trainable=trainable,
                 name=name, needs_grad=trainable)
        )

    # -- ops ---------------------------------------------------------------

    def matmul(self, a: int, b: int) -> int:
        va, vb = self.nodes[a].value, self.nodes[b].value
        if va.ndim != 2 or vb.ndim != 2 or va.shape[1] != vb.shape[0]:
            raise ShapeError(f"matmul: cannot multiply {va.shape} by {vb.shape}")
        return self._apply("matmul", (a, b))

    def add(self, a: int, b: int) -> int:
        sa, sb = self.nodes[a].value.shape, self.nodes[b].value.shape
        if sa != sb:
            try:
                np.broadcast_shapes(sa, sb)
            except ValueError as exc:
                raise ShapeError(f"add: shapes {sa} and {sb}") from exc
        return self._apply("add", (a, b))

    def scale(self, a: int, alpha: float) -> int:
        return self._apply("scale", (a,), {"alpha": float(alpha)})

    def transpose(self, a: int, axes: tuple[int, ...] | None = None) -> int:
        """Permute ``a``'s axes; ``axes=None`` is the transpose of a 2-D value."""
        ndim = self.nodes[a].value.ndim
        if axes is None:
            if ndim != 2:
                raise ShapeError("transpose without axes expects a 2-D value")
        else:
            axes = tuple(int(ax) for ax in axes)
            if sorted(axes) != list(range(ndim)):
                raise ShapeError(f"transpose: axes {axes} do not permute {ndim} dimensions")
        return self._apply("transpose", (a,), {"axes": axes})

    def relu(self, a: int) -> int:
        return self._apply("relu", (a,))

    def reshape(self, a: int, shape: tuple[int, ...]) -> int:
        if self.nodes[a].value.size != int(np.prod(shape)):
            raise ShapeError(f"reshape: {self.nodes[a].value.shape} -> {shape}")
        return self._apply("reshape", (a,), {"shape": tuple(shape)})

    def frobenius_norm(self, a: int) -> int:
        return self._apply("frobenius_norm", (a,))

    def factor_product(self, u: int, s: int, v: int) -> int:
        """A layer's weight ``(U*s)·Vᵀ`` from factors ``U`` (c, r), ``s`` (r,), ``V`` (q, r)."""
        shapes = [self.nodes[i].value.shape for i in (u, s, v)]
        if [len(sh) for sh in shapes] != [2, 1, 2] or len({sh[-1] for sh in shapes}) != 1:
            raise ShapeError(f"factor_product: U{shapes[0]} s{shapes[1]} V{shapes[2]} "
                             "are not (c, r), (r,), (q, r)")
        return self._apply("factor_product", (u, s, v))

    def gram_deviation(self, a: int) -> int:
        """``‖XᵀX − I‖_F`` of a 2-D ``X``."""
        if self.nodes[a].value.ndim != 2:
            raise ShapeError("gram_deviation expects a 2-D matrix")
        return self._apply("gram_deviation", (a,))

    def hoyer(self, a: int) -> int:
        """Hoyer ratio ``‖s‖₁ / (‖s‖₂ + HOYER_EPS)`` of a 1-D ``s``."""
        if self.nodes[a].value.ndim != 1:
            raise ShapeError("hoyer expects a 1-D vector")
        return self._apply("hoyer", (a,))

    def linear(self, x: int, w: int, b: int) -> int:
        vx, vw, vb = (self.nodes[i].value for i in (x, w, b))
        if vx.ndim != 2 or vw.ndim != 2 or vx.shape[1] != vw.shape[0]:
            raise ShapeError(f"linear: features {vx.shape} vs weights {vw.shape}")
        if vb.shape != (vw.shape[1],):
            raise ShapeError(f"linear: bias {vb.shape} vs {vw.shape[1]} outputs")
        return self._apply("linear", (x, w, b))

    def softmax_cross_entropy(self, logits: int, labels) -> int:
        v = self.nodes[logits].value
        if v.ndim != 2:
            raise ShapeError("softmax_cross_entropy expects (batch, classes) logits")
        return self._apply("softmax_cross_entropy", (logits,),
                           {"labels": _checked_labels(v.shape, labels)})

    def conv2d(self, weight: int, x: int, kernel: tuple[int, int, int], stride: int = 1, padding: int = 0) -> int:
        """Convolve channel-major ``x`` ``(C, N, H, W)``; the output is ``(c, N, Ho, Wo)``."""
        vw, vx = self.nodes[weight].value, self.nodes[x].value
        c_in, kh, kw = kernel
        if vw.ndim != 2 or vw.shape[1] != c_in * kh * kw:
            raise ShapeError(f"conv2d: weight {vw.shape} vs kernel {kernel}")
        if vx.ndim != 4 or vx.shape[0] != c_in:
            raise ShapeError(f"conv2d: input {vx.shape} vs {c_in} channels")
        out_h, out_w = conv_output_size(vx.shape[2], vx.shape[3], kh, kw, stride, padding)
        if out_h < 1 or out_w < 1:
            raise ShapeError(f"conv2d: input {vx.shape[2:]} too small for kernel {kernel}")
        aux = {"kernel": (c_in, kh, kw), "stride": int(stride), "padding": int(padding),
               "x_needs_grad": self.nodes[x].needs_grad}
        return self._apply("conv2d", (weight, x), aux)

    def dropout(self, a: int, rate: float, seed: int, train: bool) -> int:
        """Inverted dropout with a mask drawn from ``seed``; the identity unless ``train``."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        rate = rate if train else 0.0
        mask = _dropout_mask(self.nodes[a].value.shape, rate, seed)
        return self._apply("dropout", (a,), {"rate": rate, "seed": seed, "mask": mask})

    # -- re-running ---------------------------------------------------------

    def feed(self, nid: int, value) -> None:
        """Replace a per-step input of the recorded tape; :meth:`rerun` then uses it.

        A leaf takes a new value of its recorded shape, a
        ``softmax_cross_entropy`` node new labels, and a dropout node a new
        seed, from which it draws its mask.  Each is checked as building the
        node checked it: :class:`ShapeError` for a leaf of another shape,
        :class:`DataError` for labels that do not fit the logits.
        """
        node = self.nodes[nid]
        if node.op == "leaf":
            arr = _leaf_array(value)
            if arr.shape != node.value.shape:
                raise ShapeError(f"feed: leaf {nid} holds {node.value.shape}, got {arr.shape}")
            node.value = arr
        elif node.op == "softmax_cross_entropy":
            logits = self.nodes[node.inputs[0]].value
            node.aux["labels"] = _checked_labels(logits.shape, value)
        elif node.op == "dropout":
            node.aux["seed"] = value
            node.aux["mask"] = _dropout_mask(node.value.shape, node.aux["rate"], value)
        else:
            raise ValueError(f"a {node.op} node has no fed input")

    def rerun(self) -> None:
        """Re-evaluate every op node in tape order from the current leaves and fed inputs."""
        # the old op values are dropped first, as a fresh build would find them gone
        values = [node.value if node.op == "leaf" else None for node in self.nodes]
        for node in self.nodes:
            node.value = None
        self._forward(range(len(values)), values, save=True)
        for node, value in zip(self.nodes, values):
            node.value = value

    def _forward(self, order, values, save: bool) -> None:
        """Fill ``values[nid]`` for the op nodes of ``order``; leaves are already in it."""
        for nid in order:
            node = self.nodes[nid]
            if node.op != "leaf":
                values[nid] = _node_forward(node.op, [values[i] for i in node.inputs], node.aux, save)

    # -- differentiation ----------------------------------------------------

    def _ancestors(self, target: int) -> list[int]:
        reach = {target}
        for nid in range(target, -1, -1):
            if nid in reach:
                reach.update(self.nodes[nid].inputs)
        return sorted(reach)

    def backward(self, loss: int) -> dict[int, np.ndarray]:
        """Gradients of the scalar ``loss`` node for all reachable trainable leaves.

        Only nodes that need a gradient enter ``grads``, and every entry is
        an ancestor of ``loss``, so a node absent from it is skipped.
        """
        loss_node = self.nodes[loss]
        if loss_node.value.ndim != 0:
            raise ValueError("backward requires a scalar loss node")
        grads: dict[int, np.ndarray] = {}
        if loss_node.needs_grad:
            grads[loss] = np.ones((), dtype=loss_node.value.dtype)
        for nid in range(loss, -1, -1):
            if nid not in grads:
                continue
            node = self.nodes[nid]
            if node.op == "leaf":
                continue
            values = [self.nodes[i].value for i in node.inputs]
            contribs = _BACKWARD[node.op](grads[nid], values, node.value, node.aux)
            for inp, contrib in zip(node.inputs, contribs):
                if not self.nodes[inp].needs_grad:
                    continue
                if inp in grads:
                    grads[inp] = grads[inp] + contrib
                else:
                    grads[inp] = contrib
        return {nid: grad for nid, grad in grads.items() if self.nodes[nid].op == "leaf"}

    def replay(
        self,
        target: int,
        overrides: dict[int, np.ndarray] | None = None,
        dtype=np.float64,
        order: list[int] | None = None,
    ) -> np.ndarray:
        """Recompute ``target``'s value with substituted leaves at ``dtype``."""
        order = order if order is not None else self._ancestors(target)
        overrides = overrides or {}
        vals = {nid: np.asarray(overrides.get(nid, self.nodes[nid].value), dtype=dtype)
                for nid in order if self.nodes[nid].op == "leaf"}
        self._forward(order, vals, save=False)
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
