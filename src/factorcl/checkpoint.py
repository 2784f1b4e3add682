"""Model and artifact serialization.

Shared spaces use a versioned little-endian binary layout (magic
"CACL") so round-trips are bitwise lossless:

    header   magic "CACL" | version u32 | flags u32 (bit0 = isolated) | L u32
    metadata per layer c,n,h,w u32x4; per layer stride,padding u32x2;
             input_h, input_w, head_input_dim u32; T u32;
             rank table L x T u32 (layer-major, cumulative per task)
    payload  per layer U (c x R), sigma (R), V (q x R) as IEEE-754
             32-bit reals in column order, R = final cumulative rank
    heads    per task: blob_len u32 | classes u32 | weight (column
             order) | bias

A file is parsed completely before any model object is constructed, so
a corrupt or truncated file, or one holding a non-finite real, raises
FormatError (with the failing byte offset) and never yields partial state.
Serving builds each layer's dense c x q weight, so a file whose layers
sum to over MAX_DENSE_WEIGHTS of them is rejected as they are read: a
zero-rank file of a hundred bytes could otherwise ask for gigabytes.

Task checkpoints, dense reference models, and datasets are plain npz
archives; their consumers do not need bit-level guarantees beyond what
npz already provides.
"""

from __future__ import annotations

import struct
import zipfile

import numpy as np

from .datasets import TaskDataset
from .errors import FormatError
from .factorized import LayerShape, NetworkSpec, SharedSpace, TaskFactors, TaskHead
from .linalg import DTYPE
from .trainer import DenseTaskModels

MAGIC = b"CACL"
VERSION = 1
_FLAG_ISOLATED = 1
# Cap on the sum over layers of c * q: 64 MiB of float32 dense weights.
MAX_DENSE_WEIGHTS = 1 << 24


def _f32_column_bytes(a: np.ndarray) -> bytes:
    return np.asarray(a, dtype="<f4").tobytes(order="F")


def space_to_bytes(shared: SharedSpace) -> bytes:
    spec = shared.spec
    n_layers = spec.num_layers
    t = shared.num_tasks
    for l in range(n_layers):
        width = shared.rank_table[l][-1] if t else 0
        if shared.total_width(l) != width:
            raise ValueError(
                f"layer {l}: stored width {shared.total_width(l)} does not "
                f"match final cumulative rank {width}"
            )

    flags = _FLAG_ISOLATED if shared.isolated else 0
    out = bytearray()
    out += MAGIC
    out += struct.pack("<3I", VERSION, flags, n_layers)
    for s in spec.layers:
        out += struct.pack("<4I", s.c, s.n, s.h, s.w)
    for l in range(n_layers):
        out += struct.pack("<2I", spec.strides[l], spec.paddings[l])
    out += struct.pack("<3I", spec.input_hw[0], spec.input_hw[1], spec.head_input_dim)
    out += struct.pack("<I", t)
    for l in range(n_layers):
        out += struct.pack(f"<{t}I", *shared.rank_table[l])
    for l in range(n_layers):
        out += _f32_column_bytes(shared.u[l])
        out += _f32_column_bytes(shared.sigma[l])
        out += _f32_column_bytes(shared.v[l])
    for head in shared.heads:
        body = struct.pack("<I", head.classes)
        body += _f32_column_bytes(head.weight)
        body += _f32_column_bytes(head.bias)
        out += struct.pack("<I", len(body)) + body
    return bytes(out)


class _Reader:
    """Cursor over an untrusted byte string; every read is bounds-checked."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"file ends inside a {n}-byte field", offset=self.pos
            )
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        return raw

    def u32(self, count: int = 1):
        vals = struct.unpack(f"<{count}I", self.take(4 * count))
        return vals[0] if count == 1 else vals

    def f32_matrix(self, rows: int, cols: int) -> np.ndarray:
        raw = self.take(4 * rows * cols)
        arr = np.frombuffer(raw, dtype="<f4").reshape((rows, cols), order="F")
        return arr.astype(DTYPE).copy(order="C")

    def f32_vector(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * n), dtype="<f4").astype(DTYPE).copy()


def space_from_bytes(data: bytes) -> SharedSpace:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise FormatError("bad magic, not a shared-space file", offset=0)
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    flags = r.u32()
    if flags & ~_FLAG_ISOLATED:
        raise FormatError(f"unknown flag bits 0x{flags:x}", offset=8)
    n_layers = r.u32()
    if n_layers == 0:
        raise FormatError("layer count must be positive", offset=12)

    layers = []
    dense = 0
    for l in range(n_layers):
        at = r.pos
        c, n, h, w = r.u32(4)
        if min(c, n, h, w) < 1:
            raise FormatError(f"layer {l} has a zero dimension", offset=at)
        dense += c * n * h * w
        if dense > MAX_DENSE_WEIGHTS:
            raise FormatError(f"layers 0..{l} need {dense} dense weights, over "
                              f"the cap of {MAX_DENSE_WEIGHTS}", offset=at)
        layers.append(LayerShape(c=c, n=n, h=h, w=w))
    strides, paddings = [], []
    for l in range(n_layers):
        at = r.pos
        stride, padding = r.u32(2)
        if stride < 1:
            raise FormatError(f"layer {l} stride must be positive", offset=at)
        strides.append(stride)
        paddings.append(padding)
    geom_at = r.pos
    input_h, input_w, head_dim = r.u32(3)
    tasks_at = r.pos
    t = r.u32()
    rank_table = []
    for l in range(n_layers):
        at = r.pos
        row = r.u32(t) if t else ()
        row = (row,) if isinstance(row, int) else tuple(row)
        if any(b < a for a, b in zip((0,) + row, row)):
            raise FormatError(f"layer {l} rank table not non-decreasing", offset=at)
        rank_table.append(row)

    payload_at = r.pos
    u, sigma, v = [], [], []
    for l, shape in enumerate(layers):
        width = rank_table[l][-1] if t else 0
        u.append(r.f32_matrix(shape.c, width))
        sigma.append(r.f32_vector(width))
        v.append(r.f32_matrix(shape.q, width))

    heads = []
    for _ in range(t):
        at = r.pos
        blob_len = r.u32()
        classes = r.u32()
        expected = 4 * (1 + classes * (head_dim + 1))
        if blob_len != expected:
            raise FormatError(
                f"head blob length {blob_len} does not match {expected}", offset=at
            )
        if classes == 0:
            raise FormatError("head has zero classes", offset=at + 4)
        weight = r.f32_matrix(head_dim, classes)
        bias = r.f32_vector(classes)
        heads.append(TaskHead(weight=weight, bias=bias))
    if r.pos != len(data):
        raise FormatError("trailing bytes after model payload", offset=r.pos)
    # One pass over every word from the first factor to the end.  Besides
    # f32 values this covers each head's blob length and class count, u32
    # words that stay finite read as f32: a word is non-finite only at or
    # above 0x7F800000, and a head that long would need a file of gigabytes.
    finite = np.isfinite(np.frombuffer(data, dtype="<f4", offset=payload_at))
    if not finite.all():
        bad = payload_at + 4 * int(np.argmin(finite))
        raise FormatError("non-finite value in model payload", offset=bad)

    try:
        spec = NetworkSpec(
            layers=tuple(layers),
            input_hw=(input_h, input_w),
            head_input_dim=head_dim,
            strides=tuple(strides),
            paddings=tuple(paddings),
            dropout_rates=(0.0,) * n_layers,
        )
    except ValueError as exc:
        # geometry fields are individually valid but mutually inconsistent
        raise FormatError(f"inconsistent geometry: {exc}", offset=geom_at) from exc
    if t == 0 and any(rank_table[l] for l in range(n_layers)):
        raise FormatError("rank table present with zero tasks", offset=tasks_at)
    return SharedSpace(
        spec=spec,
        u=tuple(u),
        sigma=tuple(sigma),
        v=tuple(v),
        rank_table=tuple(rank_table),
        heads=tuple(heads),
        isolated=bool(flags & _FLAG_ISOLATED),
    )


def save_space(path, shared: SharedSpace) -> None:
    blob = space_to_bytes(shared)
    with open(path, "wb") as f:
        f.write(blob)


def load_space(path) -> SharedSpace:
    with open(path, "rb") as f:
        return space_from_bytes(f.read())


# -- npz artifacts -------------------------------------------------------------------


def _open_npz(path):
    try:
        return np.load(path, allow_pickle=False)
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise FormatError(f"not a readable npz archive: {path}") from exc


def _spec_arrays(spec: NetworkSpec) -> dict:
    return {
        "layers": np.array([[s.c, s.n, s.h, s.w] for s in spec.layers], dtype=np.int64),
        "strides": np.array(spec.strides, dtype=np.int64),
        "paddings": np.array(spec.paddings, dtype=np.int64),
        "input_hw": np.array(spec.input_hw, dtype=np.int64),
        "head_input_dim": np.array(spec.head_input_dim, dtype=np.int64),
    }


def _spec_from_arrays(blob) -> NetworkSpec:
    try:
        layers = tuple(LayerShape(*(int(v) for v in row)) for row in blob["layers"])
        return NetworkSpec(
            layers=layers,
            input_hw=tuple(int(v) for v in blob["input_hw"]),
            head_input_dim=int(blob["head_input_dim"]),
            strides=tuple(int(v) for v in blob["strides"]),
            paddings=tuple(int(v) for v in blob["paddings"]),
            dropout_rates=(0.0,) * len(layers),
        )
    except ValueError as exc:
        raise FormatError(f"stored network geometry is inconsistent: {exc}") from exc


def save_task_factors(path, spec: NetworkSpec, factors: TaskFactors, head: TaskHead) -> None:
    """Uncompressed single-task checkpoint (input to standalone compression)."""
    arrays = _spec_arrays(spec)
    arrays["task"] = np.array(factors.task, dtype=np.int64)
    for l in range(spec.num_layers):
        arrays[f"u{l}"] = factors.u[l]
        arrays[f"sigma{l}"] = factors.sigma[l]
        arrays[f"v{l}"] = factors.v[l]
    arrays["head_w"] = head.weight
    arrays["head_b"] = head.bias
    np.savez(path, **arrays)


def load_task_factors(path) -> tuple[NetworkSpec, TaskFactors, TaskHead]:
    with _open_npz(path) as blob:
        if "task" not in blob or "head_w" not in blob:
            raise FormatError("npz file is not a task checkpoint")
        spec = _spec_from_arrays(blob)
        factors = TaskFactors(
            task=int(blob["task"]),
            u=[blob[f"u{l}"].astype(DTYPE) for l in range(spec.num_layers)],
            sigma=[blob[f"sigma{l}"].astype(DTYPE) for l in range(spec.num_layers)],
            v=[blob[f"v{l}"].astype(DTYPE) for l in range(spec.num_layers)],
        )
        head = TaskHead(weight=blob["head_w"].astype(DTYPE), bias=blob["head_b"].astype(DTYPE))
    return spec, factors, head


def save_dense_models(path, models: DenseTaskModels) -> None:
    arrays = _spec_arrays(models.spec)
    arrays["tasks"] = np.array(models.num_tasks, dtype=np.int64)
    for t in range(models.num_tasks):
        for l in range(models.spec.num_layers):
            arrays[f"w{t}_{l}"] = models.weights[t][l]
        arrays[f"head_w{t}"] = models.heads[t].weight
        arrays[f"head_b{t}"] = models.heads[t].bias
    np.savez(path, **arrays)


def load_dense_models(path) -> DenseTaskModels:
    with _open_npz(path) as blob:
        if "tasks" not in blob:
            raise FormatError("npz file is not a dense-model checkpoint")
        spec = _spec_from_arrays(blob)
        models = DenseTaskModels(spec=spec)
        for t in range(int(blob["tasks"])):
            models.weights.append(
                [blob[f"w{t}_{l}"].astype(DTYPE) for l in range(spec.num_layers)]
            )
            models.heads.append(
                TaskHead(
                    weight=blob[f"head_w{t}"].astype(DTYPE),
                    bias=blob[f"head_b{t}"].astype(DTYPE),
                )
            )
    return models


def save_dataset(path, data: TaskDataset) -> None:
    np.savez(
        path,
        train_x=data.train_x,
        train_y=data.train_y,
        test_x=data.test_x,
        test_y=data.test_y,
        classes=np.array(data.classes, dtype=np.int64),
    )


def load_dataset(path) -> TaskDataset:
    with _open_npz(path) as blob:
        if "test_x" not in blob or "classes" not in blob:
            raise FormatError("npz file is not a task dataset")
        return TaskDataset(
            train_x=blob["train_x"],
            train_y=blob["train_y"],
            test_x=blob["test_x"],
            test_y=blob["test_y"],
            classes=int(blob["classes"]),
        )
