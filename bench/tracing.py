"""Out-of-program tracing: wrap factorcl's functions from the benchmark's side.

Each wrapper records a span (name, start, end, parent) around one call
into a layer and keeps per-name totals: busy time (the span's duration),
self time (duration minus the child spans inside it) and call counts.
Counts made inside a training step (below ``train_task`` or
``train_dense_task``) are kept apart so that ratios per step are
measured where the work happens.  Spans are timed with the wall clock,
which is cheap to read; the end-to-end durations are CPU time.

Wrappers replace the attribute where callers look the name up: the
defining module's attribute for module functions, the class attribute
for methods, and the op table entry for the conv backward.  Names that
``factorcl/__init__`` re-exports are bound at import and are not used by
the library itself, so patching them would change nothing.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from factorcl import autodiff as ad
from factorcl import checkpoint as ck
from factorcl import compression as cp
from factorcl import datasets as ds
from factorcl import factorized as fz
from factorcl import linalg as la
from factorcl import regularizers as reg
from factorcl import trainer as tr

TRAINING = ("trainer.train_task", "trainer.train_dense_task")

# (owner, attribute or op-table key, span name).  random_orthonormal is
# imported into factorized by name, so that binding is the one expand uses;
# nothing calls it through linalg.
TARGETS = (
    (ad.Graph, "backward", "autodiff.backward"),
    (ad.Graph, "conv2d", "autodiff.conv2d"),
    (ad._BACKWARD, "conv2d", "autodiff.conv2d_backward"),
    (ad, "im2col", "autodiff.im2col"),
    (ad, "col2im", "autodiff.col2im"),
    (ad, "conv2d_forward", "autodiff.conv2d_forward"),
    (fz, "compose_weights", "factorized.compose_weights"),
    (fz, "graph_forward", "factorized.graph_forward"),
    (fz, "expand", "factorized.expand"),
    (fz, "append", "factorized.append"),
    (fz, "extract_subnetwork", "factorized.extract_subnetwork"),
    (fz, "forward_features", "factorized.forward_features"),
    (fz, "predict_logits", "factorized.predict_logits"),
    (fz, "random_orthonormal", "linalg.random_orthonormal"),
    (la, "svd", "linalg.svd"),
    (reg, "l_orth_graph", "regularizers.l_orth_graph"),
    (reg, "l_sparse_graph", "regularizers.l_sparse_graph"),
    (cp, "compress", "compression.compress"),
    (tr.Adam, "step", "trainer.adam_step"),
    (tr, "train_task", "trainer.train_task"),
    (tr, "train_dense_task", "trainer.train_dense_task"),
    (ck, "space_to_bytes", "checkpoint.space_to_bytes"),
    (ck, "space_from_bytes", "checkpoint.space_from_bytes"),
    (ck, "save_dense_models", "checkpoint.save_dense_models"),
    (ck, "load_dense_models", "checkpoint.load_dense_models"),
    (ds, "generate_stream", "datasets.generate_stream"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Span recorder; install() patches every target, uninstall() restores it."""

    def __init__(self):
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.step_calls: Counter[str] = Counter()  # calls made inside training
        self.im2col_step_bytes = 0
        self.tape_nodes = 0
        self.trained_columns = 0
        self.kept_columns = 0
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._training = 0
        self._last_graph = None
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])
        if name in TRAINING:
            self._training += 1

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.busy[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if name in TRAINING:
            self._training -= 1
        elif self._training:
            self.step_calls[name] += 1

    def _observe(self, name: str, args, out) -> None:
        """Counts that need the call's arguments or result."""
        if name == "compression.compress":
            self.trained_columns += sum(args[0].ranks())
            self.kept_columns += sum(out.ranks())
        elif not self._training:
            return
        elif name == "autodiff.im2col":
            self.im2col_step_bytes += out.nbytes
        elif name == "autodiff.backward":
            graph = args[0]
            if graph is not self._last_graph:  # both passes of a step share one tape
                self.tape_nodes += len(graph.nodes)
                self._last_graph = graph

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            self._observe(name, args, out)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        try:
            for owner, key, name in TARGETS:
                original = _get(owner, key)
                self._saved.append((owner, key, original))
                _set(owner, key, self._wrap(name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
