"""Task-stream data: seeded synthetic Gaussian blobs or a partitioned file.

Blob tasks place one seeded Gaussian cluster per class on the sphere of
radius ``scale``.  The ``overlap`` knob in [0, 1] moves the cluster
directions from a wide fan inside a single 2-D plane (overlap 0: large
angular gaps, and any rank-2 projection of the input preserves all
class structure) toward a narrow cone around a shared anchor spread
over k independent directions (overlap 1: clusters crowd together, and
no low-rank projection can keep the classes apart).  Higher overlap
therefore costs accuracy and forces the feature extractor to carry more
directions at once.  Noise std is a fixed fraction of ``scale``,
keeping difficulty independent of plain magnitude.  Every stream is
bitwise reproducible from its seed.
"""

from __future__ import annotations

import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, is_int

TRAIN_FRACTION = 0.8
# Blob noise std as a fraction of scale; overlap moves cluster centers, not noise.
BLOB_NOISE = 0.15


# A member of an npz archive may declare at most MAX_INFLATION times the
# bytes it stores, unless it declares at most INFLATION_FLOOR bytes.
# Deflate packs zeros about 1000:1, so without this a small archive could
# make a reader allocate gigabytes.  Real samples seldom deflate past 10:1;
# sorted int64 labels reach about 650:1, so the floor lets a million of
# them through.
MAX_INFLATION = 100
INFLATION_FLOOR = 8 << 20

_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}


def _check_declared_size(member, info: zipfile.ZipInfo, path, name: str) -> None:
    """Read ``member``'s ``.npy`` header and refuse a size out of proportion to its stored bytes."""
    reader = _HEADER_READERS.get(np.lib.format.read_magic(member))
    if reader is None:
        raise ValueError(f"{name}: unsupported .npy format version")
    shape, _, dtype = reader(member)
    declared = math.prod(shape) * dtype.itemsize
    if declared > max(MAX_INFLATION * info.compress_size, INFLATION_FLOOR):
        raise FormatError(f"{path}: array {name} would inflate {info.compress_size} stored "
                          f"bytes to {declared}, over {MAX_INFLATION} times as many")


def read_npz(path, names) -> dict[str, np.ndarray]:
    """Those of the arrays ``names`` that an npz archive holds, read now, without pickles.

    Each member's ``.npy`` header is read before its data: a member that
    declares more than :data:`MAX_INFLATION` times the bytes it stores
    (and more than :data:`INFLATION_FLOOR`) is a FormatError naming
    ``path``, raised before anything of that size is allocated.  An
    uncompressed archive (``np.savez``) stores every byte it declares, so
    only a compressed member can be refused.  A missing file raises
    FileNotFoundError; any other file that is not a readable npz archive,
    a bare ``.npy`` array or a damaged member included, is a FormatError
    naming ``path``.
    """
    arrays = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for name in names:
                try:
                    info = archive.getinfo(f"{name}.npy")
                except KeyError:
                    continue
                with archive.open(info) as member:
                    _check_declared_size(member, info, path, name)
                    member.seek(0)
                    arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
    except (FileNotFoundError, FormatError):
        raise
    # a damaged member fails its CRC, or inflating it, or parsing its header
    except (ValueError, OSError, EOFError, zipfile.BadZipFile, zlib.error,
            tokenize.TokenError) as exc:
        raise FormatError(f"not a readable npz archive: {path}") from exc
    return arrays


@dataclass
class TaskDataset:
    train_x: np.ndarray  # (N, C, H, W) float32
    train_y: np.ndarray  # (N,) int64
    test_x: np.ndarray
    test_y: np.ndarray
    classes: int

    def __post_init__(self):
        for x, y in ((self.train_x, self.train_y), (self.test_x, self.test_y)):
            if x.ndim != 4 or x.shape[0] != y.shape[0]:
                raise DataError(f"inputs {x.shape} do not match labels {y.shape}")
            if y.size and (y.min() < 0 or y.max() >= self.classes):
                raise DataError(
                    f"labels outside [0, {self.classes}): [{y.min()}, {y.max()}]"
                )
        if self.train_x.shape[1:] != self.test_x.shape[1:]:
            raise DataError("train and test input shapes differ")

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return tuple(self.train_x.shape[1:])


@dataclass(frozen=True)
class TaskStreamSpec:
    """Recipe for a stream of disjoint tasks.

    ``overlap`` may be a single float or one value per task, each in
    [0, 1]: 0 spreads the class clusters far apart inside one 2-D plane,
    larger values crowd them into a narrow cone spanning many input
    directions, which is both harder to classify and impossible to
    compress into a few feature directions.  ``scale`` is a plain
    magnitude multiplier and does not change difficulty.  For
    ``split_file`` streams, ``partitions`` lists each task's raw class
    labels and must be disjoint across tasks.
    """

    kind: str
    tasks: int
    classes_per_task: int
    samples_per_class: int
    input_shape: tuple[int, int, int]
    seed: int = 0
    overlap: float | tuple[float, ...] = 0.3
    scale: float = 1.0
    path: str | None = None
    partitions: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic_blobs", "split_file"):
            raise ConfigError(f"unknown stream kind {self.kind!r}")
        for name in ("tasks", "classes_per_task", "samples_per_class", "seed"):
            if not is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.tasks < 1 or self.classes_per_task < 2 or self.samples_per_class < 2:
            raise ConfigError("need >= 1 task, >= 2 classes and >= 2 samples per class")
        shape = self.input_shape
        if len(shape) != 3 or not all(map(is_int, shape)) or min(shape) < 1:
            raise ConfigError(f"input_shape must be positive integers (channels, h, w), "
                              f"got {shape}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if isinstance(self.overlap, (tuple, list)) and len(self.overlap) != self.tasks:
            raise ConfigError("per-task overlap needs one value per task")
        overlaps = self.overlap if isinstance(self.overlap, (tuple, list)) else (self.overlap,)
        if any(not 0.0 <= float(o) <= 1.0 for o in overlaps):
            raise ConfigError(f"overlap values must lie in [0, 1], got {self.overlap}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be finite and positive, got {self.scale}")
        if self.kind == "split_file":
            if self.path is None or self.partitions is None:
                raise ConfigError("split_file streams need path and partitions")
            if len(self.partitions) != self.tasks:
                raise ConfigError("one class partition per task required")
            seen: set[int] = set()
            for part in self.partitions:
                dup = seen.intersection(part)
                if dup:
                    raise ConfigError(f"class partitions overlap on {sorted(dup)}")
                seen.update(part)

    def overlap_for(self, t: int) -> float:
        if isinstance(self.overlap, (tuple, list)):
            return float(self.overlap[t - 1])
        return float(self.overlap)


def _split(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, classes: int) -> TaskDataset:
    order = rng.permutation(x.shape[0])
    x, y = x[order], y[order]
    cut = int(round(TRAIN_FRACTION * x.shape[0]))
    return TaskDataset(
        train_x=np.ascontiguousarray(x[:cut]),
        train_y=np.ascontiguousarray(y[:cut]),
        test_x=np.ascontiguousarray(x[cut:]),
        test_y=np.ascontiguousarray(y[cut:]),
        classes=classes,
    )


def _blob_task(spec: TaskStreamSpec, t: int) -> TaskDataset:
    c, h, w = spec.input_shape
    dim = c * h * w
    k = spec.classes_per_task
    n = spec.samples_per_class
    if dim < k + 3:
        raise ConfigError(f"blob tasks need input dim >= classes + 3, got {dim} for {k} classes")
    alpha = spec.overlap_for(t)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, t]))
    # Orthonormal frame: plane (2) + anchor (1) + one independent axis per class.
    frame, _ = np.linalg.qr(rng.normal(size=(dim, k + 3)))
    frame = frame.T
    angles = 2.0 * np.pi * np.arange(k) / k
    fan = np.cos(angles)[:, None] * frame[0] + np.sin(angles)[:, None] * frame[1]
    cone = frame[2] + 0.6 * frame[3:]
    cone /= np.linalg.norm(cone, axis=1, keepdims=True)
    dirs = (1.0 - alpha) * fan + alpha * cone
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = spec.scale * dirs
    noise = BLOB_NOISE * spec.scale
    x = np.empty((k * n, dim), dtype=np.float32)
    y = np.empty(k * n, dtype=np.int64)
    for cls in range(k):
        block = slice(cls * n, (cls + 1) * n)
        # noise * z + center, computed in place in float64, then rounded into x
        z = rng.normal(size=(n, dim))
        z *= noise
        z += centers[cls]
        x[block] = z
        y[block] = cls
    return _split(x.reshape(-1, c, h, w), y, rng, classes=k)


def _file_task(spec: TaskStreamSpec, t: int, x_all: np.ndarray, y_all: np.ndarray) -> TaskDataset:
    c, h, w = spec.input_shape
    part = spec.partitions[t - 1]
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, t]))
    xs, ys = [], []
    for new_label, raw in enumerate(part):
        mask = y_all == raw
        if not np.any(mask):
            raise DataError(f"class {raw} absent from {spec.path}")
        xs.append(x_all[mask])
        ys.append(np.full(int(mask.sum()), new_label, dtype=np.int64))
    x = np.concatenate(xs).astype(np.float32).reshape(-1, c, h, w)
    y = np.concatenate(ys)
    return _split(x, y, rng, classes=len(part))


def generate_stream(spec: TaskStreamSpec) -> list[TaskDataset]:
    if spec.kind == "synthetic_blobs":
        return [_blob_task(spec, t) for t in range(1, spec.tasks + 1)]
    archive = read_npz(spec.path, ("x", "y"))
    if "x" not in archive or "y" not in archive:
        raise DataError(f"{spec.path} must contain arrays 'x' and 'y'")
    x_all = archive["x"]
    y_all = archive["y"].astype(np.int64)
    if x_all.shape[0] != y_all.shape[0]:
        raise DataError("x and y lengths differ")
    expected = math.prod(spec.input_shape)
    if math.prod(x_all.shape[1:]) != expected:
        raise DataError(
            f"file samples have {math.prod(x_all.shape[1:])} values, expected {expected}"
        )
    return [_file_task(spec, t, x_all, y_all) for t in range(1, spec.tasks + 1)]
