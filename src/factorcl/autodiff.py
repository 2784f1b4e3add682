"""Reverse-mode automatic differentiation over a small fixed op set.

The graph is a Wengert tape: every operation appends a node holding the
op kind, the ids of its input nodes and the cached forward value.  The
ops are the ones a training step builds, twelve in all: ``add`` (of
equal shapes), ``scale``, ``transpose`` (by explicit axes), ``relu``,
``reshape``, ``frobenius_norm``, ``factor_product``, ``gram_deviation``,
``hoyer``, ``linear``, ``softmax_cross_entropy`` and ``conv2d``.

Every node records whether it needs a gradient: a leaf built as
``trainable`` does, and so does any node with an input that does.
``backward`` visits only those nodes, so a frozen subgraph (the composed
shared prefix, the data batch) is not visited at all and never receives
a contribution.  A leaf holds a float32 C-contiguous array as it is, so
an optimizer that updates that array in place updates the tape.

A tape whose shape does not change is built once and re-run.
:meth:`Graph.feed` replaces a per-step input (a data leaf's value or a
loss node's labels) after the same checks building the node made, and
:meth:`Graph.rerun` re-evaluates every op node in tape order with the
same forward formulas, so a re-run tape holds the values and gradients
a fresh build would, bit for bit.

Each op has one forward, ``(input values, aux, store) -> value`` in
``_FORWARD``, which building, re-running and replaying all call.  An
intermediate that the backward reads is written into ``store`` like any
other buffer: ``conv2d``'s im2col columns into ``store["cols"]``,
``gram_deviation``'s residual ``XᵀX − I`` into ``store["residual"]``.

One policy places every buffer an op writes with ``out=``:
``_buffer(store, key, shape, dtype)``.  On a tape, ``store`` is the
node's ``aux``.  Every activation-sized value, saved intermediate and
backward temporary of ``relu``, ``transpose``, ``linear``,
``gram_deviation`` and ``conv2d`` goes there.  A ``conv2d`` node keeps
``"padded"`` (im2col's gather source), ``"cols"``, ``"out"`` (the
gemm), ``"gw"``, ``"gx_cols"`` (the input-gradient columns and a zero
row: col2im's gather source), ``"fold"`` (one gathered slot) and ``"gx"``:
building allocates them, and since a tape's shapes are fixed, each
re-run and backward pass writes over them in place, so after a tape's
first step a step allocates none of them.  A gradient that ``backward``
returns may be such a buffer, valid until the next re-run or backward
pass.  A replay passes no store, so it allocates fresh arrays and
leaves the tape's buffers as they were.

Convolutions keep activations batch-innermost, ``(C, H, W, N)``:
channel, then pixel, then image.  ``im2col`` and ``col2im``,
``conv2d_forward`` and the ``conv2d`` op all take and return that
layout, so an input is ``C*H*W`` rows of N contiguous values: ``im2col``
is one gather of those rows, plus one zero row for the padding, through
an index table cached per geometry.  ``col2im`` is its fold: a second
cached table lists, for each pixel, the im2col rows that sum into it
(at most K, the most kernel windows that cover one pixel, padded with a
zero row), and K gather-adds of whole rows sum them in the order a
per-pixel loop would.  A convolution's output is its
gemm result reshaped, with no copy, and its backward reads the incoming
gradient with a free reshape: the weight gradient is one gemm of that
gradient with the saved columns, and the input gradient one gemm into
col2im's gather source.  A network whose inputs and features are
batch-major transposes once on entry to the conv stack and once before
the flatten (see ``factorized.graph_forward``).

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
differentiated; independent graphs never share state.  Inference
(:func:`conv2d_forward`) unfolds into the same kind of store, one per
thread (``vars(_SCRATCH)``).  An entry there is replaced only by a larger
request and a smaller one views it, so each thread holds at most the
largest gather source (input rows and zero row) and the largest im2col
matrix it has served, threads serving concurrently never share a buffer,
and a steady serving thread allocates no column memory.
``factorized.forward_features`` feeds the conv stack chunks of images
sized so that one chunk's columns fit ``factorized.CHUNK_BYTES``, so
that scratch holds at most one chunk whatever the batch.  The unfold
and fold index tables are the one thing threads share: bounded caches
of read-only arrays.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError
from .linalg import dense_weight

DTYPE = np.float32

# Added to the Hoyer ratio's denominator so an all-zero sigma has a value.
HOYER_EPS = 1e-12


# This thread's inference scratch; vars(_SCRATCH) is its _buffer store.
_SCRATCH = threading.local()


def _buffer(store: dict | None, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of ``shape`` for an op to write with ``out=``: ``store[key]``.

    ``store`` is a tape node's ``aux`` or this thread's ``vars(_SCRATCH)``.
    The entry is replaced only when a request needs more bytes than it
    holds; a smaller request views its leading bytes.  A tape's shapes are
    fixed once it is built, so after its first step each request finds its
    entry as it is; inference mixes batch sizes, so a thread keeps at most
    the largest array it has asked ``key`` for.  Without a store (a replay)
    the array is fresh.
    """
    if store is None:
        return np.empty(shape, dtype)
    buf = store.get(key)
    if buf is not None and buf.shape == shape and buf.dtype == dtype:
        return buf
    if buf is None or buf.nbytes < math.prod(shape) * np.dtype(dtype).itemsize:
        buf = store[key] = np.empty(shape, dtype)
        return buf
    return np.ndarray(shape, dtype, buf)


# bounded: a table holds C*kh*kw*Ho*Wo indices, and a network has a few geometries
@functools.lru_cache(maxsize=64)
def _unfold_table(c_in: int, h: int, w: int, kh: int, kw: int, stride: int,
                  padding: int) -> np.ndarray:
    """The source row of each im2col row, one table per geometry, read-only.

    Entry ``(c, i, j, oy, ox)`` (flattened in that order) is the pixel row
    ``(c*H + y)*W + x`` of ``y = oy*stride + i - padding`` and ``x = ox*stride
    + j - padding``, or ``C*H*W``, the zero row, where ``(y, x)`` falls in the
    padding.  The cache hands the same array to every caller and every
    thread, so it cannot be written.
    """
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, padding)
    ys = (np.arange(kh)[:, None] + stride * np.arange(out_h) - padding)[:, None, :, None]
    xs = (np.arange(kw)[:, None] + stride * np.arange(out_w) - padding)[None, :, None, :]
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)  # (kh, kw, Ho, Wo)
    channel = (np.arange(c_in) * (h * w))[:, None, None, None, None]
    table = np.where(inside, channel + ys * w + xs, c_in * h * w).astype(np.intp).ravel()
    table.flags.writeable = False
    return table


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
           store=None) -> np.ndarray:
    """Unfold batch-innermost ``(C, H, W, N)`` patches into a ``(C*kh*kw, Ho*Wo*N)`` matrix.

    Rows are ordered ``(channel, kh, kw)``, so they line up with a conv
    weight stored as its ``c x (n*kh*kw)`` matrix; columns are ordered
    ``(out row, out col, image)``.  The unfold is one gather: the input is
    copied as ``C*H*W`` rows of N values, followed by one zero row that
    stands in for every padding pixel, and one ``take`` through the
    geometry's cached :func:`_unfold_table` writes each ``(channel, kh,
    kw, out row, out col)`` row of N values into the columns.

    The source rows and the columns are :func:`_buffer` ``"padded"`` and
    ``"cols"`` of ``store``: the conv node's own on a tape, where ``aux``
    keeps the columns for the backward; views that the thread's next
    unfold overwrites in ``vars(_SCRATCH)``, which only
    :func:`conv2d_forward` passes; fresh without a store.
    """
    c_in, h, w, n_im = x.shape
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, padding)
    pixels = c_in * h * w
    src = _buffer(store, "padded", (pixels + 1, n_im), x.dtype)
    cols = _buffer(store, "cols", (c_in * kh * kw, out_h * out_w * n_im), x.dtype)
    src[:pixels] = x.reshape(pixels, n_im)
    src[pixels] = 0
    # every index is in range; "clip" lets take write straight into the columns
    src.take(_unfold_table(c_in, h, w, kh, kw, stride, padding), axis=0, mode="clip",
             out=cols.reshape(-1, n_im))
    return cols


# bounded like _unfold_table: a table holds K*C*H*W indices
@functools.lru_cache(maxsize=64)
def _fold_table(c_in: int, h: int, w: int, kh: int, kw: int, stride: int,
                padding: int) -> np.ndarray:
    """The im2col rows that sum into each pixel, as K slots of a ``(K, C*H*W)`` table.

    K is the most kernel windows that cover one pixel: 4 at 3x3 stride 2,
    9 at stride 1.  Slot k of pixel ``(c, y, x)`` is the row of its k-th
    contributor ``(c, i, j, oy, ox)`` with ``oy*stride + i - padding = y``
    and ``ox*stride + j - padding = x``, contributors in row-major ``(i, j)``
    order, or ``C*kh*kw*Ho*Wo``, a zero row, past its last one.  Read-only,
    like the unfold tables.
    """
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, padding)

    def axis(size, k, out):
        # per pixel, the kernel offsets that reach it (ascending) and their out positions
        d = np.arange(size)[:, None] + padding - np.arange(k)  # stride * out position
        hits = (d % stride == 0) & (d >= 0) & (d < stride * out)
        order = np.argsort(~hits, axis=1, kind="stable")[:, :max(1, hits.sum(1).max())]
        return (np.take_along_axis(hits, order, 1), order,
                np.take_along_axis(d, order, 1) // stride)

    hit_y, i, oy = (a.T[:, None, None, :, None] for a in axis(h, kh, out_h))
    hit_x, j, ox = (a.T[None, :, None, None, :] for a in axis(w, kw, out_w))
    c = np.arange(c_in)[None, None, :, None, None]
    rows = (((c * kh + i) * kw + j) * out_h + oy) * out_w + ox
    table = np.where(hit_y & hit_x, rows, c_in * kh * kw * out_h * out_w)
    table = table.astype(np.intp).reshape(-1, c_in * h * w)
    table.flags.writeable = False
    return table


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    store: dict | None = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: sum patch columns back to ``(C, H, W, N)``.

    A fold through the geometry's cached :func:`_fold_table`: each pixel
    starts at +0.0 and adds its contributors in row-major ``(i, j)``
    order, one gather-add of rows of N values per table slot.  A missing
    contributor reads a zero row, which changes no sum that started at
    +0.0, so every pixel gets the bits of a per-pixel loop.

    The gather source is the columns' ``C*kh*kw*Ho*Wo`` rows of N values
    followed by a zero row.  ``cols`` is the ``(C*kh*kw, Ho*Wo*N)`` im2col
    matrix, copied into the source :func:`_buffer` ``"gx_cols"`` of
    ``store``, or that source itself, ``(C*kh*kw*Ho*Wo + 1, N)``, whose
    last row col2im zeroes: the conv backward writes its gemm into the
    leading rows, so nothing is copied.  The slot gathered and the result
    are ``"fold"`` and ``"gx"``.
    """
    c_in, h, w, n_im = x_shape
    table = _fold_table(c_in, h, w, kh, kw, stride, padding)
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, padding)
    rows = c_in * kh * kw * out_h * out_w
    if cols.shape == (rows + 1, n_im):
        src = cols
    else:
        src = _buffer(store, "gx_cols", (rows + 1, n_im), cols.dtype)
        src[:rows] = cols.reshape(rows, n_im)
    src[rows] = 0
    gx = _buffer(store, "gx", x_shape, cols.dtype)
    out = gx.reshape(-1, n_im)
    # "clip": every index is in range, and take writes straight into out=
    src.take(table[0], axis=0, mode="clip", out=out)
    out += 0.0  # the sum starts at +0.0: a lone -0.0 contributor gives +0.0
    if len(table) > 1:
        slot = _buffer(store, "fold", out.shape, cols.dtype)
        for k in range(1, len(table)):
            src.take(table[k], axis=0, mode="clip", out=slot)
            out += slot
    return gx


def conv_output_size(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def conv2d_forward(w: np.ndarray, x: np.ndarray, kernel: tuple[int, int, int],
                   stride: int = 1, padding: int = 0) -> np.ndarray:
    """Graph-free convolution for inference; same arithmetic as the conv2d op.

    ``x`` is batch-innermost ``(C, H, W, N)`` and so is the result.  The
    gather source and the im2col columns live in this thread's scratch,
    which the next call on the thread overwrites; the result is the
    gemm's fresh output, so nothing returned aliases the scratch.
    """
    _, kh, kw = kernel
    out_h, out_w = conv_output_size(x.shape[1], x.shape[2], kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding, vars(_SCRATCH))
    return (w @ cols).reshape(w.shape[0], out_h, out_w, x.shape[3])


def gram_deviation(x: np.ndarray):
    """``‖XᵀX − I‖_F`` of a 2-D ``x`` at its precision; the ``gram_deviation`` forward."""
    return _f_gram_deviation([x], None, None)


def hoyer(s: np.ndarray, eps: float):
    """``‖s‖₁ / (‖s‖₂ + eps)`` of a 1-D ``s`` at its precision; the ``hoyer`` forward."""
    return np.abs(s).sum() / (np.sqrt((s * s).sum()) + s.dtype.type(eps))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# --- per-op forward functions: (input values, aux, store) -> value, dtype-agnostic ---
# ``store`` is the node's aux on a tape, where an activation-sized result and
# what the backward reads go into _buffer entries the node owns, or None,
# which makes the forward pure: a replay at another precision keeps nothing.


def _f_add(v, aux, store):
    return v[0] + v[1]


def _f_scale(v, aux, store):
    return v[0] * v[0].dtype.type(aux["alpha"])


def _transposed(a: np.ndarray, axes, store: dict | None, key: str) -> np.ndarray:
    """``a`` permuted by ``axes`` as a C-contiguous array: :func:`_buffer` ``key`` of ``store``."""
    view = a.transpose(axes)
    out = _buffer(store, key, view.shape, a.dtype)
    out[...] = view
    return out


def _f_transpose(v, aux, store):
    return _transposed(v[0], aux["axes"], store, "out")


def _f_relu(v, aux, store):
    return np.maximum(v[0], 0, out=_buffer(store, "out", v[0].shape, v[0].dtype))


def _f_reshape(v, aux, store):
    out = v[0].reshape(aux["shape"])
    # ascontiguousarray would promote 0-d to 1-d, so only copy when needed
    return out if out.flags["C_CONTIGUOUS"] else np.ascontiguousarray(out)


def _f_frobenius(v, aux, store):
    return np.sqrt((v[0] * v[0]).sum())


def _f_linear(v, aux, store):
    x, w, b = v
    out = np.matmul(x, w, out=_buffer(store, "out", (x.shape[0], w.shape[1]), x.dtype))
    out += b
    return out


def _f_softmax_ce(v, aux, store):
    logits = v[0]
    labels = aux["labels"]
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return (lse - z[np.arange(logits.shape[0]), labels]).mean()


def _f_gram_deviation(v, aux, store):
    x = v[0]
    # the residual D = XᵀX − I is what the backward reads; a contiguous copy
    # of Xᵀ pins the gemm operands, and so the bits of XᵀX
    residual = np.matmul(np.ascontiguousarray(x.T), x,
                         out=_buffer(store, "residual", (x.shape[1],) * 2, x.dtype))
    residual -= np.eye(x.shape[1], dtype=x.dtype)
    return _f_frobenius([residual], None, None)


def _f_conv2d(v, aux, store):
    """The one conv forward formula; on a tape ``store`` keeps the im2col columns.

    ``x`` and the output are batch-innermost, so the output is the gemm
    result ``(c_out, Ho*Wo*N)`` reshaped, without a copy.
    """
    w, x = v
    c_in, kh, kw = aux["kernel"]
    stride, padding = aux["stride"], aux["padding"]
    out_h, out_w = conv_output_size(x.shape[1], x.shape[2], kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding, store)
    out = np.matmul(w, cols, out=_buffer(store, "out", (w.shape[0], cols.shape[1]), cols.dtype))
    return out.reshape(w.shape[0], out_h, out_w, x.shape[3])


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


_FORWARD = {
    "add": _f_add,
    "scale": _f_scale,
    "transpose": _f_transpose,
    "relu": _f_relu,
    "reshape": _f_reshape,
    "frobenius_norm": _f_frobenius,
    "factor_product": lambda v, aux, store: dense_weight(*v),
    "gram_deviation": _f_gram_deviation,
    "hoyer": lambda v, aux, store: hoyer(v[0], HOYER_EPS),
    "linear": _f_linear,
    "softmax_cross_entropy": _f_softmax_ce,
    "conv2d": _f_conv2d,
}


# --- per-op vector-Jacobian products: grad list, one entry per input ---
# An entry may be None for an input that needs no gradient; backward skips it.
# ``aux`` is the node's store: an activation-sized gradient goes into a
# _buffer entry the node owns, which the next backward pass overwrites.


def _b_add(g, v, out, aux):
    # both inputs may share g: no backward rule writes into its incoming gradient
    return [g, g]


def _b_scale(g, v, out, aux):
    return [g * g.dtype.type(aux["alpha"])]


def _b_transpose(g, v, out, aux):
    return [_transposed(g, np.argsort(aux["axes"]), aux, "gx")]


def _b_relu(g, v, out, aux):
    x = v[0]
    mask = np.greater(x, 0, out=_buffer(aux, "mask", x.shape, bool))
    return [np.multiply(g, mask, out=_buffer(aux, "gx", x.shape, g.dtype))]


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
    return [np.matmul(g, w.T, out=_buffer(aux, "gx", x.shape, g.dtype)),
            np.matmul(x.T, g, out=_buffer(aux, "gw", w.shape, g.dtype)),
            g.sum(axis=0, out=_buffer(aux, "gb", b.shape, g.dtype))]


def _b_softmax_ce(g, v, out, aux):
    logits = v[0]
    labels = aux["labels"]
    p = _softmax(logits)
    p[np.arange(logits.shape[0]), labels] -= 1
    return [p * (g / logits.dtype.type(logits.shape[0]))]


def _b_conv2d(g, v, out, aux):
    w, x = v
    g_mat, cols = g.reshape(w.shape[0], -1), aux["cols"]
    gw = np.matmul(g_mat, cols.T, out=_buffer(aux, "gw", w.shape, g.dtype))
    if not aux["x_needs_grad"]:
        return [gw, None]
    # the gemm fills col2im's gather source but for its last row
    n_im = x.shape[3]
    src = _buffer(aux, "gx_cols", (cols.size // n_im + 1, n_im), g.dtype)
    np.matmul(w.T, g_mat, out=src[:-1].reshape(cols.shape))
    _, kh, kw = aux["kernel"]
    return [gw, col2im(src, x.shape, kh, kw, aux["stride"], aux["padding"], aux)]


_BACKWARD = {
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
}


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    value: np.ndarray
    aux: dict = field(default_factory=dict)
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
        value = _FORWARD[op]([self.nodes[i].value for i in inputs], aux, aux)
        return self._append(Node(op=op, inputs=inputs, value=value, aux=aux,
                                 needs_grad=self._any_needs_grad(inputs)))

    def _any_needs_grad(self, inputs: tuple[int, ...]) -> bool:
        return any(self.nodes[i].needs_grad for i in inputs)

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    # -- leaves ------------------------------------------------------------

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> int:
        """A value node; ``backward`` differentiates it only if ``trainable``.

        A float32 C-contiguous ``value`` is held as is, not copied, so an
        update written into that array in place reaches the next :meth:`rerun`.
        """
        return self._append(
            Node(op="leaf", inputs=(), value=_leaf_array(value), name=name, needs_grad=trainable)
        )

    # -- ops ---------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """The sum of two values of one shape."""
        sa, sb = self.nodes[a].value.shape, self.nodes[b].value.shape
        if sa != sb:
            raise ShapeError(f"add: shapes {sa} and {sb} differ")
        return self._apply("add", (a, b))

    def scale(self, a: int, alpha: float) -> int:
        return self._apply("scale", (a,), {"alpha": float(alpha)})

    def transpose(self, a: int, axes: tuple[int, ...]) -> int:
        """Permute ``a``'s axes as ``np.transpose(value, axes)`` does."""
        ndim = self.nodes[a].value.ndim
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
        """Convolve batch-innermost ``x`` ``(C, H, W, N)``; the output is ``(c, Ho, Wo, N)``."""
        vw, vx = self.nodes[weight].value, self.nodes[x].value
        c_in, kh, kw = kernel
        if vw.ndim != 2 or vw.shape[1] != c_in * kh * kw:
            raise ShapeError(f"conv2d: weight {vw.shape} vs kernel {kernel}")
        if vx.ndim != 4 or vx.shape[0] != c_in:
            raise ShapeError(f"conv2d: input {vx.shape} vs {c_in} channels")
        out_h, out_w = conv_output_size(vx.shape[1], vx.shape[2], kh, kw, stride, padding)
        if out_h < 1 or out_w < 1:
            raise ShapeError(f"conv2d: input {vx.shape[1:3]} too small for kernel {kernel}")
        aux = {"kernel": (c_in, kh, kw), "stride": int(stride), "padding": int(padding),
               "x_needs_grad": self.nodes[x].needs_grad}
        return self._apply("conv2d", (weight, x), aux)

    # -- re-running ---------------------------------------------------------

    def feed(self, nid: int, value) -> None:
        """Replace a per-step input of the recorded tape; :meth:`rerun` then uses it.

        A leaf takes a new value of its recorded shape and a
        ``softmax_cross_entropy`` node new labels.  Each is checked as
        building the node checked it: :class:`ShapeError` for a leaf of
        another shape, :class:`DataError` for labels that do not fit the
        logits.
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
        else:
            raise ValueError(f"a {node.op} node has no fed input")

    def rerun(self) -> None:
        """Re-evaluate every op node in tape order from the current leaves and fed inputs."""
        # each op writes over its last value in the buffers its node owns, and
        # reads inputs that tape order has already brought up to date
        nodes = self.nodes
        for node in nodes:
            if node.op != "leaf":
                node.value = _FORWARD[node.op]([nodes[i].value for i in node.inputs],
                                               node.aux, node.aux)

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
        an ancestor of ``loss``, so a node absent from it is skipped.  A
        returned gradient may be a buffer its node owns: it holds this
        pass's values until the next :meth:`rerun` or ``backward``.
        """
        nodes = self.nodes
        loss_node = nodes[loss]
        if loss_node.value.ndim != 0:
            raise ValueError("backward requires a scalar loss node")
        grads: dict[int, np.ndarray] = {}
        if loss_node.needs_grad:
            grads[loss] = np.ones((), dtype=loss_node.value.dtype)
        for nid in range(loss, -1, -1):
            grad = grads.get(nid)
            if grad is None:
                continue
            node = nodes[nid]
            if node.op == "leaf":
                continue
            values = [nodes[i].value for i in node.inputs]
            contribs = _BACKWARD[node.op](grad, values, node.value, node.aux)
            for inp, contrib in zip(node.inputs, contribs):
                if nodes[inp].needs_grad:
                    # summed into a fresh array: a contribution may be another node's
                    # buffer, and add hands one gradient to both of its inputs
                    prev = grads.get(inp)
                    grads[inp] = contrib if prev is None else prev + contrib
        return {nid: grad for nid, grad in grads.items() if nodes[nid].op == "leaf"}

    def replay(
        self,
        target: int,
        overrides: dict[int, np.ndarray] | None = None,
        dtype=np.float64,
        order: list[int] | None = None,
    ) -> np.ndarray:
        """Recompute ``target``'s value with substituted leaves at ``dtype``, writing no buffer."""
        order = order if order is not None else self._ancestors(target)
        overrides = overrides or {}
        vals = {nid: np.asarray(overrides.get(nid, self.nodes[nid].value), dtype=dtype)
                for nid in order if self.nodes[nid].op == "leaf"}
        for nid in order:
            node = self.nodes[nid]
            if node.op != "leaf":
                vals[nid] = _FORWARD[node.op]([vals[i] for i in node.inputs], node.aux, None)
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
