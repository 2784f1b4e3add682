"""Model and artifact serialization.

Models use two versioned little-endian binary layouts, so round-trips
are bitwise lossless.  Shared spaces (magic "CACL"):

    header   magic "CACL" | version u32 | flags u32 (bit0 = isolated)
    geometry L u32; per layer c,n,h,w u32x4; per layer stride,padding
             u32x2; input_h, input_w, head_input_dim u32
    tasks    T u32; rank table L x T u32 (layer-major, cumulative per task)
    payload  per layer U (c x R), sigma (R), V (q x R) as IEEE-754
             32-bit reals in column order, R = final cumulative rank
    heads    per task: blob_len u32 | classes u32 | weight (column
             order) | bias

Dense per-task models, the upper-bound baseline (magic "CACD"):

    header   magic "CACD" | version u32
    geometry as above
    tasks    T u32
    payload  per task, per layer the dense c x q weight, column order
    heads    as above

Both layouts share one writer and one reader for the geometry block
(the reader also checks that the geometry is consistent) and for the
head blobs, and one finiteness check, so the two cannot drift apart.
Each fixed group of words is read with one unpack (the version and
flags, the rank table, each head's blob_len and classes), the reals are
slices of one float32 view of the file, and each file is written as one
join of its parts.

A model is reloaded whole, but its geometry rarely changes: the reader
keeps the ``NetworkSpec`` of each geometry block it has accepted, keyed
by the block's exact bytes, and the writer keeps each spec's block.
Both caches hold at most 64 entries, like the unfold tables, and the
caps a geometry is checked against are module constants, so the bytes
alone decide the spec.  A geometry that fails a check is never cached,
so a bad file raises the same FormatError, at the same offset, on every
load; every check on the rest of the file (rank table, widths, head
lengths, finiteness, trailing bytes) runs on every load.  A
file is parsed completely before any model is constructed, so a corrupt
or truncated file, or one holding a non-finite real, raises FormatError
(with the failing byte offset) and never yields partial state.  Serving
builds each layer's dense c x q weight, so a file whose layers sum to
over MAX_DENSE_WEIGHTS of them is rejected as they are read: a zero-rank
file of a hundred bytes could otherwise ask for gigabytes.  For the same
reason a geometry that unfolds an image to over ``factorized.MAX_UNFOLD``
values, or has a layer output as many, is rejected before any array is
built.  Loaded
arrays are owned, writable and C-contiguous.

Datasets are plain npz archives, read eagerly: a damaged archive is a
FormatError naming the file.
"""

from __future__ import annotations

import functools
import struct
import threading

import numpy as np

from .datasets import TaskDataset, read_npz
from .errors import FormatError
from .factorized import LayerShape, NetworkSpec, SharedSpace, TaskHead
from .linalg import DTYPE
from .trainer import DenseTaskModels

MAGIC = b"CACL"
DENSE_MAGIC = b"CACD"
VERSION = 1
_FLAG_ISOLATED = 1
# Cap on the sum over layers of c * q: 64 MiB of float32 dense weights.
MAX_DENSE_WEIGHTS = 1 << 24
# Geometries whose spec and bytes are kept; a process serves a few at most.
_GEOMETRY_CACHE = 64
_F32 = np.dtype("<f4")  # every real in a file


# -- shared writers ---------------------------------------------------------------------


def _f32_column_bytes(a: np.ndarray) -> bytes:
    return np.asarray(a, _F32).T.tobytes()  # the transpose's C order is a's column order


@functools.lru_cache(maxsize=_GEOMETRY_CACHE)
def _geometry_bytes(spec: NetworkSpec) -> bytes:
    words = [spec.num_layers]
    for s in spec.layers:
        words += (s.c, s.n, s.h, s.w)
    for pair in zip(spec.strides, spec.paddings):
        words += pair
    words += (*spec.input_hw, spec.head_input_dim)
    return struct.pack(f"<{len(words)}I", *words)


def _head_parts(head: TaskHead) -> tuple[bytes, bytes, bytes]:
    blob_len = 4 * (1 + head.weight.size + head.bias.size)
    return (struct.pack("<2I", blob_len, head.classes), _f32_column_bytes(head.weight),
            _f32_column_bytes(head.bias))


# -- shared readers ---------------------------------------------------------------------


class _Reader:
    """Cursor over an untrusted byte string; every read is bounds-checked."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        # every field is whole 4-byte words, so each run of reals is a slice of
        # one read-only view of the file as float32 words
        self.words = np.frombuffer(data, _F32, len(data) // 4).astype(DTYPE, copy=False)

    def _advance(self, n: int, field: int | None = None) -> int:
        """Moves past ``n`` bytes, made of fields of ``field`` bytes (default one of n).

        A file that ends inside them is reported at the start of the field
        it ends inside, as reading the fields one at a time would.
        """
        if self.pos + n > len(self.data):
            field = field or n
            at = self.pos + (len(self.data) - self.pos) // field * field
            raise FormatError(f"file ends inside a {field}-byte field", offset=at)
        at = self.pos
        self.pos += n
        return at

    def take(self, n: int) -> bytes:
        at = self._advance(n)
        return bytes(self.data[at : at + n])

    def u32(self, count: int | None = None, field: int | None = None):
        """One word as an int, or a tuple of ``count`` words when given a count.

        The words are one unpack; ``field`` is the words per field they
        form, for :meth:`_advance`'s report of a file that ends inside them.
        """
        n = 1 if count is None else count
        at = self._advance(4 * n, field and 4 * field)
        vals = struct.unpack_from(f"<{n}I", self.data, at)
        return vals[0] if count is None else vals

    def f32(self, rows: int, cols: int | None = None) -> np.ndarray:
        """The next reals as an owned, writable, C-order float32 array.

        A ``rows x cols`` matrix is stored in column order; without ``cols``
        the result is a vector of ``rows``.  Each is one copy of a slice of
        :attr:`words`.
        """
        n = rows if cols is None else rows * cols
        at = self._advance(4 * n) // 4
        stored = self.words[at:at + n]
        return stored.copy() if cols is None else stored.reshape(cols, rows).T.copy()

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError("trailing bytes after model payload", offset=self.pos)


def _read_header(r: _Reader, magic: bytes, kind: str, words: int) -> tuple[int, ...]:
    """Checks the magic and the version; returns the ``words`` words after the magic.

    The words are one unpack of those the file holds whole; a word the file
    ends inside is read after the version is checked, as a word-by-word read
    would order the errors.
    """
    if r.take(4) != magic:
        raise FormatError(f"bad magic, not a {kind} file", offset=0)
    head = r.u32(min(words, (len(r.data) - 4) // 4))
    if head and head[0] != VERSION:
        raise FormatError(f"unsupported version {head[0]}", offset=4)
    if len(head) < words:
        r.u32(words - len(head), field=1)  # raises: the file ends inside this word
    return head


# the spec of each geometry block accepted so far, by the block's exact bytes
_SPECS: dict[bytes, NetworkSpec] = {}
_SPECS_LOCK = threading.Lock()  # held to add (and evict); lookups need no lock


def _read_geometry(r: _Reader) -> NetworkSpec:
    start = r.pos
    n_layers = r.u32()
    block = bytes(r.data[start:start + 16 + 24 * n_layers])
    spec = _SPECS.get(block)
    if spec is not None:
        r.pos = start + len(block)
        return spec
    if n_layers == 0:
        raise FormatError("layer count must be positive", offset=start)
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
    at = r.pos
    input_h, input_w, head_dim = r.u32(3)
    try:
        spec = NetworkSpec(
            layers=tuple(layers),
            input_hw=(input_h, input_w),
            strides=tuple(strides),
            paddings=tuple(paddings),
        )
    except ValueError as exc:
        # fields individually valid, but mutually inconsistent or unfolding past the cap
        raise FormatError(f"unusable geometry: {exc}", offset=at) from exc
    if head_dim != spec.head_input_dim:
        raise FormatError(f"inconsistent geometry: head_input_dim {head_dim} does not match "
                          f"flattened conv output {spec.head_input_dim}", offset=at)
    with _SPECS_LOCK:
        if len(_SPECS) >= _GEOMETRY_CACHE:
            del _SPECS[next(iter(_SPECS))]  # the oldest
        _SPECS[block] = spec
    return spec


def _read_head(r: _Reader, head_dim: int) -> TaskHead:
    at = r.pos
    blob_len, classes = r.u32(2, field=1)
    expected = 4 * (1 + classes * (head_dim + 1))
    if blob_len != expected:
        raise FormatError(
            f"head blob length {blob_len} does not match {expected}", offset=at
        )
    if classes == 0:
        raise FormatError("head has zero classes", offset=at + 4)
    weight = r.f32(head_dim, classes)
    bias = r.f32(classes)
    return TaskHead(weight=weight, bias=bias)


def _check_finite(r: _Reader, payload_at: int) -> None:
    """One pass over every word from ``payload_at`` to the end of the file.

    Besides f32 values this covers each head's blob length and class
    count, u32 words that stay finite read as f32: a word is non-finite
    only at or above 0x7F800000, and a head that long would need a file
    of gigabytes.
    """
    finite = np.isfinite(r.words[payload_at // 4:])
    if not finite.all():
        bad = payload_at + 4 * int(np.argmin(finite))
        raise FormatError("non-finite value in model payload", offset=bad)


# -- shared spaces (.cacl) -----------------------------------------------------------


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
    parts = [MAGIC, struct.pack("<2I", VERSION, flags), _geometry_bytes(spec),
             struct.pack("<I", t)]
    parts += (struct.pack(f"<{t}I", *row) for row in shared.rank_table)
    for l in range(n_layers):
        parts += map(_f32_column_bytes, (shared.u[l], shared.sigma[l], shared.v[l]))
    for head in shared.heads:
        parts += _head_parts(head)
    return b"".join(parts)


def space_from_bytes(data: bytes) -> SharedSpace:
    r = _Reader(data)
    _, flags = _read_header(r, MAGIC, "shared-space", 2)
    if flags & ~_FLAG_ISOLATED:
        raise FormatError(f"unknown flag bits 0x{flags:x}", offset=8)
    spec = _read_geometry(r)
    t = r.u32()
    n_layers, at = spec.num_layers, r.pos
    # one unpack of the rows the file holds whole; a row it ends inside is read
    # after the rows before it are checked, so the errors come in row order
    whole = min(n_layers, (len(data) - at) // (4 * t)) if t else n_layers
    table = r.u32(whole * t)
    rank_table = []
    for l in range(n_layers):
        row = table[l * t:(l + 1) * t] if l < whole else r.u32(t)
        if any(b < a for a, b in zip((0,) + row, row)):
            raise FormatError(f"layer {l} rank table not non-decreasing", offset=at + 4 * t * l)
        rank_table.append(row)

    payload_at = r.pos
    u, sigma, v = [], [], []
    for l, shape in enumerate(spec.layers):
        width = rank_table[l][-1] if t else 0
        u.append(r.f32(shape.c, width))
        sigma.append(r.f32(width))
        v.append(r.f32(shape.q, width))
    heads = [_read_head(r, spec.head_input_dim) for _ in range(t)]
    r.expect_end()
    _check_finite(r, payload_at)
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


# -- dense task models (.cacd) -------------------------------------------------------


def dense_to_bytes(models: DenseTaskModels) -> bytes:
    spec = models.spec
    shapes = [(s.c, s.q) for s in spec.layers]
    if len(models.weights) != models.num_tasks:
        raise ValueError(
            f"{len(models.weights)} weight lists for {models.num_tasks} heads"
        )
    for t, (ws, head) in enumerate(zip(models.weights, models.heads), 1):
        got = [w.shape for w in ws]
        if got != shapes:
            raise ValueError(f"task {t}: weights {got} do not fit the layers {shapes}")
        if head.weight.shape[0] != spec.head_input_dim or head.bias.shape != (head.classes,):
            raise ValueError(f"task {t}: head weight {head.weight.shape} / bias "
                             f"{head.bias.shape} do not fit {spec.head_input_dim} inputs")

    parts = [DENSE_MAGIC, struct.pack("<I", VERSION), _geometry_bytes(spec),
             struct.pack("<I", models.num_tasks)]
    for ws in models.weights:
        parts += map(_f32_column_bytes, ws)
    for head in models.heads:
        parts += _head_parts(head)
    return b"".join(parts)


def dense_from_bytes(data: bytes) -> DenseTaskModels:
    r = _Reader(data)
    _read_header(r, DENSE_MAGIC, "dense-model", 1)
    spec = _read_geometry(r)
    t = r.u32()
    payload_at = r.pos
    # each weight holds at least one word, so a forged T ends at the file's end
    weights = [[r.f32(s.c, s.q) for s in spec.layers] for _ in range(t)]
    heads = [_read_head(r, spec.head_input_dim) for _ in range(t)]
    r.expect_end()
    _check_finite(r, payload_at)
    return DenseTaskModels(spec=spec, weights=weights, heads=heads)


def save_dense_models(path_or_binary_file, models: DenseTaskModels) -> None:
    blob = dense_to_bytes(models)
    if hasattr(path_or_binary_file, "write"):
        path_or_binary_file.write(blob)
        return
    with open(path_or_binary_file, "wb") as f:
        f.write(blob)


def load_dense_models(path_or_binary_file) -> DenseTaskModels:
    if hasattr(path_or_binary_file, "read"):
        return dense_from_bytes(path_or_binary_file.read())
    with open(path_or_binary_file, "rb") as f:
        return dense_from_bytes(f.read())


# -- datasets (npz) ------------------------------------------------------------------


# the arrays of a dataset archive and the numpy dtype kinds each may have
_DATASET_KINDS = {"train_x": "fiu", "train_y": "iu", "test_x": "fiu", "test_y": "iu",
                  "classes": "iu"}
_KIND_NAMES = {"fiu": "real numbers", "iu": "integers"}


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
    """Read a :func:`save_dataset` archive.

    A missing array, a ``classes`` that is not a positive integer scalar,
    inputs that are not real numbers or labels that are not integers raise
    FormatError naming the array.
    """
    arrays = read_npz(path, _DATASET_KINDS)
    missing = [name for name in _DATASET_KINDS if name not in arrays]
    if missing:
        raise FormatError(f"npz file is not a task dataset: no {', '.join(missing)}")
    for name, kinds in _DATASET_KINDS.items():
        if arrays[name].dtype.kind not in kinds:
            raise FormatError(f"{name} has dtype {arrays[name].dtype}, not {_KIND_NAMES[kinds]}")
    classes = arrays.pop("classes")
    if classes.shape != () or classes < 1:
        raise FormatError(f"classes must be a positive integer scalar, got {classes!r}")
    return TaskDataset(**arrays, classes=int(classes))
