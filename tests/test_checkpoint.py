import hashlib
import io
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl import checkpoint as ck
from factorcl import compression as cp
from factorcl import factorized as fz
from factorcl.cli import main
from factorcl.datasets import TaskDataset, TaskStreamSpec, generate_stream, read_npz
from factorcl.errors import FormatError
from factorcl.trainer import DenseTaskModels

SPEC = fz.NetworkSpec.build((3, 4), in_channels=2, input_hw=(4, 4))


def random_space(seed=0, tasks=2, isolated=False, spec=SPEC) -> fz.SharedSpace:
    """Expand/prune/append without training; exercises arbitrary ranks."""
    rng = np.random.default_rng(seed)
    space = fz.empty_space(spec, isolated=isolated)
    for t in range(1, tasks + 1):
        factors, head = fz.expand(spec, t, seed=seed, classes=int(rng.integers(2, 5)))
        factors = cp.compress(factors, cp.PruneConfig(float(rng.uniform(0.0, 0.6))))
        head.weight[:] = rng.normal(size=head.weight.shape).astype(np.float32)
        space = fz.append(space, factors, head)
    return space


def random_dense(seed=0, tasks=2, spec=SPEC) -> DenseTaskModels:
    rng = np.random.default_rng(seed)
    models = DenseTaskModels(spec=spec)
    for _ in range(tasks):
        classes = int(rng.integers(1, 5))
        models.weights.append(
            [rng.normal(size=(s.c, s.q)).astype(np.float32) for s in spec.layers]
        )
        models.heads.append(fz.TaskHead(
            weight=rng.normal(size=(spec.head_input_dim, classes)).astype(np.float32),
            bias=rng.normal(size=classes).astype(np.float32),
        ))
    return models


def model_arrays(model) -> list[np.ndarray]:
    heads = [a for h in model.heads for a in (h.weight, h.bias)]
    if isinstance(model, DenseTaskModels):
        return [w for ws in model.weights for w in ws] + heads
    return [*model.u, *model.sigma, *model.v] + heads


def dense_blob(seed=0, tasks=2, spec=SPEC) -> bytes:
    return ck.dense_to_bytes(random_dense(seed, tasks, spec))


def assert_spaces_equal(a: fz.SharedSpace, b: fz.SharedSpace):
    assert a.rank_table == b.rank_table
    assert a.isolated == b.isolated
    assert a.spec.layers == b.spec.layers
    assert a.spec.strides == b.spec.strides
    assert a.spec.paddings == b.spec.paddings
    assert a.spec.input_hw == b.spec.input_hw
    assert a.spec.head_input_dim == b.spec.head_input_dim
    for l in range(a.spec.num_layers):
        np.testing.assert_array_equal(a.u[l], b.u[l])
        np.testing.assert_array_equal(a.sigma[l], b.sigma[l])
        np.testing.assert_array_equal(a.v[l], b.v[l])
    for ha, hb in zip(a.heads, b.heads):
        np.testing.assert_array_equal(ha.weight, hb.weight)
        np.testing.assert_array_equal(ha.bias, hb.bias)


# -- round trips -----------------------------------------------------------------------


def test_round_trip_bitwise(tmp_path):
    space = random_space()
    path = tmp_path / "space.cacl"
    ck.save_space(path, space)
    assert_spaces_equal(space, ck.load_space(path))


def test_round_trip_preserves_extraction_bitwise(tmp_path):
    space = random_space(seed=3, tasks=3)
    x = np.random.default_rng(0).normal(size=(4, 2, 4, 4)).astype(np.float32)
    before = [fz.predict_logits(space, t, x) for t in range(1, 4)]
    path = tmp_path / "space.cacl"
    ck.save_space(path, space)
    back = ck.load_space(path)
    for t in range(1, 4):
        np.testing.assert_array_equal(before[t - 1], fz.predict_logits(back, t, x))


def test_serialization_is_stable():
    space = random_space(seed=1)
    blob = ck.space_to_bytes(space)
    assert ck.space_to_bytes(ck.space_from_bytes(blob)) == blob
    blob = dense_blob(seed=1)
    assert ck.dense_to_bytes(ck.dense_from_bytes(blob)) == blob


def test_empty_space_round_trip():
    back = ck.space_from_bytes(ck.space_to_bytes(fz.empty_space(SPEC)))
    assert back.num_tasks == 0
    assert back.rank_table == tuple(() for _ in SPEC.layers)


def test_isolated_flag_round_trip():
    space = random_space(isolated=True)
    assert ck.space_from_bytes(ck.space_to_bytes(space)).isolated


def test_file_size_arithmetic():
    # 16-byte header, metadata, then 4 bytes per stored real
    space = random_space(seed=2, tasks=3)
    n_layers = SPEC.num_layers
    t = space.num_tasks
    metadata = 16 * n_layers + 8 * n_layers + 12 + 4 + 4 * n_layers * t + 8 * t
    expected = 16 + metadata + 4 * fz.param_count(space)
    assert len(ck.space_to_bytes(space)) == expected
    # magic, version, the same geometry block, T, then 8 bytes a head blob
    models = random_dense(seed=2, tasks=3)
    expected = 28 + 24 * n_layers + 8 * t + 4 * models.param_count()
    assert len(ck.dense_to_bytes(models)) == expected


def _counting(shape, start) -> np.ndarray:
    """float32 ``start, start + 0.25, ...`` in C order."""
    return (start + 0.25 * np.arange(int(np.prod(shape)))).astype(np.float32).reshape(shape)


def test_both_layouts_write_the_bytes_they_always_wrote():
    # hand-built, so the bytes depend on no random generator: three isolated
    # tasks (one with rank 0 in a layer) and two dense tasks
    spec = fz.NetworkSpec.build((2, 3), in_channels=1, input_hw=(4, 4), stride=(1, 2))
    space = fz.empty_space(spec, isolated=True)
    for t, (ranks, classes) in enumerate((((1, 2), 2), ((2, 0), 3), ((0, 1), 1)), 1):
        factors = fz.TaskFactors(
            task=t, u=[_counting((s.c, r), t) for s, r in zip(spec.layers, ranks)],
            sigma=[np.arange(r, 0, -1).astype(np.float32) for r in ranks],
            v=[_counting((s.q, r), -t) for s, r in zip(spec.layers, ranks)])
        head = fz.TaskHead(_counting((spec.head_input_dim, classes), 10 * t),
                           _counting((classes,), -10 * t))
        space = fz.append(space, factors, head)
    models = DenseTaskModels(
        spec=spec, weights=[[_counting((s.c, s.q), t) for s in spec.layers] for t in (1, 2)],
        heads=[fz.TaskHead(_counting((spec.head_input_dim, k), k), _counting((k,), 0))
               for k in (2, 1)])
    digests = [(len(b), hashlib.sha256(b).hexdigest()[:16])
               for b in (ck.space_to_bytes(space), ck.dense_to_bytes(models))]
    assert digests == [(848, "7b6fb88abd400445"), (824, "9a0152f8d57ce9ad")]


def test_loads_of_one_geometry_share_one_spec():
    other = fz.NetworkSpec.build((3, 4), in_channels=2, input_hw=(5, 5))
    a = ck.space_from_bytes(ck.space_to_bytes(random_space(seed=8)))
    b = ck.space_from_bytes(ck.space_to_bytes(random_space(seed=9, tasks=3)))
    dense = ck.dense_from_bytes(dense_blob(seed=8))
    assert a.spec is b.spec is dense.spec and a.spec == SPEC
    c = ck.space_from_bytes(ck.space_to_bytes(random_space(seed=8, spec=other)))
    assert c.spec == other and c.spec is not a.spec
    # the cache is bounded: sixty-five other geometries push SPEC's out
    for h in range(65):
        ck.space_from_bytes(ck.space_to_bytes(fz.empty_space(
            fz.NetworkSpec.build((1,), in_channels=1, input_hw=(h + 1, 1)))))
    assert len(ck._SPECS) <= 64
    again = ck.space_from_bytes(ck.space_to_bytes(random_space(seed=8)))
    assert again.spec == SPEC and again.spec is not a.spec


@pytest.mark.parametrize("layers, offset", [
    ([(1, ck.MAX_DENSE_WEIGHTS + 1, 1, 1)], 16),
    ([(1024, 1024, 1, 1), (16384, 1024, 1, 1)], 32),
])
def test_a_bad_geometry_fails_alike_on_every_load(layers, offset):
    # its good twin is cached first; the failure itself is never cached
    good = _zero_rank_file([(1, 1, 1, 1)] * len(layers))
    ck.space_from_bytes(good)
    bad = _zero_rank_file(layers)
    errors = []
    for _ in range(3):
        with pytest.raises(FormatError) as err:
            ck.space_from_bytes(bad)
        errors.append((str(err.value), err.value.offset))
    assert errors == [errors[0]] * 3 and errors[0][1] == offset
    assert "over the cap" in errors[0][0]
    ck.space_from_bytes(good)
    # a cached geometry followed by a truncated rank table fails where it ends
    table_at = 32 + 24 * len(layers)  # header, geometry, T
    with pytest.raises(FormatError, match="file ends inside a 4-byte field") as err:
        ck.space_from_bytes(good[:table_at + 2])
    assert err.value.offset == table_at


# -- corruption ------------------------------------------------------------------------


def test_truncation_never_yields_partial_state():
    blob = ck.space_to_bytes(random_space(seed=4))
    for cut in range(0, len(blob), 64):
        with pytest.raises(FormatError):
            ck.space_from_bytes(blob[:cut])
    blob = dense_blob(seed=4, tasks=2, spec=fz.NetworkSpec.build((2, 3), 1, (2, 2)))
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            ck.dense_from_bytes(blob[:cut])


def test_truncation_error_carries_offset():
    blob = ck.space_to_bytes(random_space(seed=5))
    with pytest.raises(FormatError) as err:
        ck.space_from_bytes(blob[:20])
    assert err.value.offset is not None and 0 <= err.value.offset <= 20
    assert "offset" in str(err.value)


def test_bad_magic_rejected_at_offset_zero():
    space, dense = ck.space_to_bytes(random_space()), dense_blob()
    for load, blob in [(ck.space_from_bytes, b"NOPE" + space[4:]),
                       (ck.dense_from_bytes, b"NOPE" + dense[4:]),
                       (ck.space_from_bytes, dense),  # each layout refuses the other
                       (ck.dense_from_bytes, space)]:
        with pytest.raises(FormatError) as err:
            load(blob)
        assert err.value.offset == 0


def test_unsupported_version_rejected():
    for load, blob in [(ck.space_from_bytes, bytearray(ck.space_to_bytes(random_space()))),
                       (ck.dense_from_bytes, bytearray(dense_blob()))]:
        blob[4:8] = struct.pack("<I", 99)
        with pytest.raises(FormatError) as err:
            load(bytes(blob))
        assert err.value.offset == 4


def test_unknown_flags_rejected():
    blob = bytearray(ck.space_to_bytes(random_space()))
    blob[8:12] = struct.pack("<I", 0x8)
    with pytest.raises(FormatError):
        ck.space_from_bytes(bytes(blob))


def test_zero_layers_rejected():
    blob = bytearray(ck.space_to_bytes(random_space()))
    blob[12:16] = struct.pack("<I", 0)
    with pytest.raises(FormatError):
        ck.space_from_bytes(bytes(blob))


def test_trailing_bytes_rejected():
    blob = ck.space_to_bytes(random_space()) + b"\x00"
    with pytest.raises(FormatError):
        ck.space_from_bytes(blob)
    blob = dense_blob()
    for extra in (b"\x00", bytes(4)):
        with pytest.raises(FormatError) as err:
            ck.dense_from_bytes(blob + extra)
        assert err.value.offset == len(blob)


def test_decreasing_rank_table_rejected():
    space = random_space(seed=6, tasks=2)
    blob = bytearray(ck.space_to_bytes(space))
    # rank table starts after header, layer dims, strides and geometry
    at = 16 + 16 * SPEC.num_layers + 8 * SPEC.num_layers + 12 + 4
    first, second = struct.unpack_from("<2I", blob, at)
    assert second >= first
    struct.pack_into("<2I", blob, at, second + 1, first)
    with pytest.raises(FormatError):
        ck.space_from_bytes(bytes(blob))


def test_a_file_that_ends_inside_a_group_of_words_fails_as_a_word_by_word_read():
    space = random_space(seed=6, tasks=2)
    blob = ck.space_to_bytes(space)
    table = 32 + 24 * SPEC.num_layers  # header, geometry and T before it; rows of 8 bytes
    last = space.heads[-1]
    head = len(blob) - 8 - 4 * last.weight.size - 4 * last.bias.size
    decreasing = bytearray(blob)
    struct.pack_into("<2I", decreasing, table, 5, 1)
    for data, message, offset in [
        (blob[:table + 10], "file ends inside a 8-byte field", table + 8),
        # a row before the end is checked before the end is reported
        (bytes(decreasing[:table + 10]), "layer 0 rank table not non-decreasing", table),
        (blob[:head + 2], "file ends inside a 4-byte field", head),  # in blob_len
        (blob[:head + 6], "file ends inside a 4-byte field", head + 4),  # in classes
    ]:
        with pytest.raises(FormatError, match=message) as err:
            ck.space_from_bytes(data)
        assert err.value.offset == offset, message


def test_inconsistent_geometry_rejected():
    blob = bytearray(ck.space_to_bytes(random_space()))
    # corrupt head_input_dim (third geometry word after layer + stride blocks)
    at = 16 + 16 * SPEC.num_layers + 8 * SPEC.num_layers + 8
    struct.pack_into("<I", blob, at, 9999)
    with pytest.raises(FormatError):
        ck.space_from_bytes(bytes(blob))


def _zero_rank_file(layers) -> bytes:
    """A one-task ``.cacl`` of 1x1 input, stride 1, padding 0, rank 0 and one class.

    Its size does not grow with the layers' dense ``c * q``.
    """
    head_dim = layers[-1][0]
    out = bytearray(ck.MAGIC)
    out += struct.pack("<3I", ck.VERSION, 0, len(layers))
    for dims in layers:
        out += struct.pack("<4I", *dims)
    out += struct.pack(f"<{2 * len(layers)}I", *(1, 0) * len(layers))
    out += struct.pack("<3I", 1, 1, head_dim)
    out += struct.pack("<I", 1)  # one task
    out += struct.pack(f"<{len(layers)}I", *(0,) * len(layers))  # of rank 0
    out += struct.pack("<2I", 4 * (1 + head_dim + 1), 1) + bytes(4 * (head_dim + 1))
    return bytes(out)


def test_dense_geometry_up_to_the_cap_loads():
    # 104 bytes that serve as 1024x1024 and 1x1024 dense weights
    blob = _zero_rank_file([(1024, 1024, 1, 1), (1, 1024, 1, 1)])
    assert len(blob) == 104
    assert ck.space_from_bytes(blob).rank_table == ((0,), (0,))
    at_cap = ck.space_from_bytes(_zero_rank_file([(1, ck.MAX_DENSE_WEIGHTS, 1, 1)]))
    assert at_cap.spec.layers[0].q == ck.MAX_DENSE_WEIGHTS


@pytest.mark.parametrize("layers, offset", [
    ([(1, ck.MAX_DENSE_WEIGHTS + 1, 1, 1)], 16),
    ([(65535, 65535, 1, 1), (1, 65535, 1, 1)], 16),
    ([(1024, 1024, 1, 1), (16384, 1024, 1, 1)], 32),  # the sum over layers counts
])
def test_dense_geometry_over_the_cap_rejected_at_its_layer(layers, offset):
    # only parsed: serving these would allocate up to 17 GB of dense weights
    with pytest.raises(FormatError) as err:
        ck.space_from_bytes(_zero_rank_file(layers))
    assert err.value.offset == offset


def _wide_padding_file(layout: str, padding: int) -> bytes:
    """A one-task file of two 1x1 one-channel layers over a 1x1 input, all weights 0.

    Layer 0 pads by ``padding``, so it unfolds an image to (2 * padding +
    1)^2 values, and layer 1 strides over all of them, so the head reads
    one value.  The file is about a hundred bytes whatever the padding.
    """
    side = 2 * padding + 1
    geometry = struct.pack("<16I", 2, *(1, 1, 1, 1) * 2, 1, padding, side, 0, 1, 1, 1)
    head = struct.pack("<2I", 12, 1) + bytes(8)
    if layout == "cacl":  # flags 0; T = 1; rank 0 in both layers
        return ck.MAGIC + struct.pack("<2I", ck.VERSION, 0) + geometry \
            + struct.pack("<3I", 1, 0, 0) + head
    return ck.DENSE_MAGIC + struct.pack("<I", ck.VERSION) + geometry \
        + struct.pack("<I", 1) + bytes(8) + head  # T = 1; two 1x1 weights


@pytest.mark.parametrize("layout", ["cacl", "cacd"])
def test_a_geometry_that_unfolds_past_the_cap_is_rejected_at_parse(layout):
    load = {"cacl": ck.space_from_bytes, "cacd": ck.dense_from_bytes}[layout]
    # only parsed: 4001^2 + 1 values fit the cap, 4201^2 + 1 do not
    assert load(_wide_padding_file(layout, 2000)).spec.head_input_dim == 1
    with pytest.raises(FormatError, match="unfold"):
        load(_wide_padding_file(layout, 2100))


def test_eval_reports_a_geometry_past_the_unfold_cap_as_one_error_line(tmp_path, capsys):
    model = tmp_path / "space.cacl"
    model.write_bytes(_wide_padding_file("cacl", 2100))
    data = tmp_path / "data.npz"
    x, y = np.zeros((2, 1, 1, 1), np.float32), np.zeros(2, np.int64)
    ck.save_dataset(data, TaskDataset(train_x=x, train_y=y, test_x=x, test_y=y, classes=1))
    assert main(["eval", "--model", str(model), "--task", "1", "--data", str(data)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "unfold" in lines[0], lines


def test_reader_u32_returns_a_tuple_when_given_a_count():
    r = ck._Reader(struct.pack("<3I", 7, 8, 9))
    assert r.u32() == 7
    assert r.u32(0) == ()
    assert r.u32(1) == (8,)
    assert r.u32(1) == (9,)


# -- npz artifacts ----------------------------------------------------------------------


@pytest.mark.parametrize("where", [
    "last head bias", "first U entry", "first dense weight", "last dense weight",
    "last dense head bias",
])
def test_non_finite_payload_rejected_at_its_offset(where):
    n_layers = SPEC.num_layers
    if "dense" in where:
        models = random_dense(seed=6)
        blob, load = bytearray(ck.dense_to_bytes(models)), ck.dense_from_bytes
        payload = 28 + 24 * n_layers
        weights = sum(w.size for ws in models.weights for w in ws)
        at = {"first dense weight": payload, "last dense weight": payload + 4 * (weights - 1),
              "last dense head bias": len(blob) - 4}[where]
    else:
        space = random_space(seed=6)
        blob, load = bytearray(ck.space_to_bytes(space)), ck.space_from_bytes
        if where == "last head bias":
            at = len(blob) - 4
        else:  # layer 0's U starts right after the rank table
            t = space.num_tasks
            at = 16 + 16 * n_layers + 8 * n_layers + 12 + 4 + 4 * n_layers * t
    assert np.isfinite(np.frombuffer(bytes(blob[at : at + 4]), "<f4")[0])
    blob[at : at + 4] = struct.pack("<f", float("nan"))
    with pytest.raises(FormatError) as err:
        load(bytes(blob))
    assert err.value.offset == at


# two tiny layers whose weights and heads are 3x1, 1x3 and 1xk matrices
THIN = fz.NetworkSpec.build((3, 1), in_channels=1, input_hw=(1, 1), kernel=1, padding=0)


@pytest.mark.parametrize("spec", [SPEC, THIN], ids=["square", "thin"])
def test_loaded_arrays_own_writable_c_order_memory(spec):
    space = ck.space_from_bytes(ck.space_to_bytes(random_space(seed=7, spec=spec)))
    models = ck.dense_from_bytes(dense_blob(seed=7, spec=spec))
    arrays = model_arrays(space) + model_arrays(models)
    if spec is THIN:
        shapes = {a.shape for a in arrays}
        assert {(3, 1), (1, 3)} <= shapes
    for a in arrays:
        assert a.dtype == np.float32
        assert a.flags.owndata and a.flags.writeable and a.flags.c_contiguous, a.shape


# -- fuzzing: every mutation of a valid file loads whole or raises FormatError ------

FUZZ_SPEC = fz.NetworkSpec.build((2, 3), in_channels=1, input_hw=(2, 2))
# per layout: a valid blob, its parser and its writer
FUZZ = {
    "cacl": (ck.space_to_bytes(random_space(seed=5, tasks=2, spec=FUZZ_SPEC)),
             ck.space_from_bytes, ck.space_to_bytes),
    "cacd": (dense_blob(seed=5, tasks=2, spec=FUZZ_SPEC),
             ck.dense_from_bytes, ck.dense_to_bytes),
}
# counts and dimensions live in small u32s; the rest probe the edges
U32 = st.one_of(st.integers(0, 70), st.integers(0, 2**32 - 1),
                st.sampled_from([2**31 - 1, 2**31, 2**32 - 1, 0x7F800000, 0xFF800000]))


def load_or_reject(layout: str, blob: bytes) -> None:
    _, load, save = FUZZ[layout]
    try:
        model = load(blob)
    except FormatError:
        return
    assert all(np.isfinite(a).all() for a in model_arrays(model))
    assert save(model) == blob


def test_fuzz_blob_is_valid():
    for layout, (blob, load, _) in FUZZ.items():
        load_or_reject(layout, blob)
        assert load(blob).num_tasks == 2


# each example draws a layout, then edits within that layout's blob
@given(layout=st.sampled_from(sorted(FUZZ)), data=st.data())
@settings(max_examples=600, deadline=None)
def test_fuzz_bit_flips(layout, data):
    blob = bytearray(FUZZ[layout][0])
    bits = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4))
    for bit in bits:
        blob[bit // 8] ^= 1 << (bit % 8)
    load_or_reject(layout, bytes(blob))


@given(layout=st.sampled_from(sorted(FUZZ)), data=st.data())
@settings(max_examples=600, deadline=None)
def test_fuzz_u32_field_rewrites(layout, data):
    blob = bytearray(FUZZ[layout][0])
    words = st.integers(0, len(blob) // 4 - 1)
    for word, value in data.draw(st.lists(st.tuples(words, U32), min_size=1, max_size=3)):
        struct.pack_into("<I", blob, 4 * word, value)
    load_or_reject(layout, bytes(blob))


def test_dense_models_round_trip(tmp_path):
    models = random_dense(seed=0)
    path = tmp_path / "models.cacd"
    ck.save_dense_models(path, models)
    assert path.read_bytes()[:4] == ck.DENSE_MAGIC
    back = ck.load_dense_models(path)
    assert back.num_tasks == 2
    assert back.spec == models.spec
    for a, b in zip(model_arrays(models), model_arrays(back)):
        np.testing.assert_array_equal(a, b)
    x = np.random.default_rng(0).normal(size=(3, 2, 4, 4)).astype(np.float32)
    np.testing.assert_array_equal(models.predict_logits(2, x), back.predict_logits(2, x))
    # a binary file object works as a path does
    buf = io.BytesIO()
    ck.save_dense_models(buf, models)
    blob = buf.getvalue()
    assert blob == path.read_bytes()
    assert ck.dense_to_bytes(ck.load_dense_models(io.BytesIO(blob))) == blob


def test_dense_models_of_the_wrong_shape_are_not_written():
    models = random_dense(seed=1)
    models.weights[1][0] = models.weights[1][0][:, :-1]
    with pytest.raises(ValueError, match="task 2"):
        ck.dense_to_bytes(models)
    models = random_dense(seed=1)
    models.heads[0] = fz.TaskHead(weight=models.heads[0].weight[1:], bias=models.heads[0].bias)
    with pytest.raises(ValueError, match="head"):
        ck.dense_to_bytes(models)


def test_dataset_round_trip(tmp_path):
    data = generate_stream(TaskStreamSpec(
        kind="synthetic_blobs", tasks=1, classes_per_task=2, samples_per_class=10,
        input_shape=(2, 3, 3), seed=0, overlap=0.1, scale=3.0,
    ))[0]
    path = tmp_path / "data.npz"
    ck.save_dataset(path, data)
    back = ck.load_dataset(path)
    np.testing.assert_array_equal(back.train_x, data.train_x)
    np.testing.assert_array_equal(back.test_y, data.test_y)
    assert back.classes == 2


def test_wrong_npz_kind_rejected(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, something=np.zeros(3))
    with pytest.raises(FormatError):
        ck.load_dense_models(path)
    with pytest.raises(FormatError):
        ck.load_dataset(path)
    # dense models once were npz archives; those are not read either
    path = tmp_path / "models.npz"
    np.savez(path, tasks=np.array(1), w0_0=np.zeros((3, 18), np.float32))
    with pytest.raises(FormatError, match="not a dense-model file") as err:
        ck.load_dense_models(path)
    assert err.value.offset == 0


def _npz_with_an_untokenizable_header() -> bytes:
    """An archive whose train_x.npy passes its CRC but has a header numpy cannot tokenize."""
    header = b"{'descr': '<f4', '''".ljust(53) + b"\n"
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("train_x.npy", b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header)
    return buf.getvalue()


@pytest.mark.parametrize("name, content", [
    ("empty.npz", b""),
    ("junk.npz", b"not an npz!"),
    ("array.npy", None),  # np.load reads a bare array, not an archive
    pytest.param("header.npz", _npz_with_an_untokenizable_header(), id="header.npz-untokenizable"),
])
def test_a_file_that_is_not_an_npz_archive_is_a_format_error(tmp_path, name, content):
    path = tmp_path / name
    if content is None:
        np.save(path, np.zeros(3))
    else:
        path.write_bytes(content)
    with pytest.raises(FormatError, match="not a readable npz archive"):
        ck.load_dataset(path)


def _save_inflating_dataset(path) -> None:
    """A dataset archive of about 15 KB whose 50,000 zero samples inflate to 14.8 MB."""
    np.savez_compressed(
        path, train_x=np.zeros((50000, 2, 6, 6), np.float32), train_y=np.zeros(50000, np.int64),
        test_x=np.zeros((10, 2, 6, 6), np.float32), test_y=np.zeros(10, np.int64),
        classes=np.array(2),
    )


def test_a_member_that_inflates_out_of_proportion_is_refused_unread(tmp_path, monkeypatch):
    path = tmp_path / "inflating.npz"
    _save_inflating_dataset(path)
    assert path.stat().st_size < 16_000
    read = []
    real_read = np.lib.format.read_array
    monkeypatch.setattr(np.lib.format, "read_array",
                        lambda f, **kw: read.append(f.name) or real_read(f, **kw))
    with pytest.raises(FormatError, match="train_x") as err:
        ck.load_dataset(path)
    assert str(path) in str(err.value)
    assert "train_x.npy" not in read  # refused from its header, before its data


def test_archives_that_store_what_they_declare_are_read(tmp_path):
    zeros = np.zeros((3, 1 << 20), np.float32)  # 12 MiB, deflates about 1000:1
    small = np.zeros(1 << 20, np.float32)  # 4 MiB: under the floor, so never refused
    np.savez(tmp_path / "stored.npz", x=zeros)
    np.savez_compressed(tmp_path / "small.npz", x=small)
    assert read_npz(tmp_path / "stored.npz", ["x"])["x"].tobytes() == zeros.tobytes()
    assert read_npz(tmp_path / "small.npz", ["x", "y"])["x"].tobytes() == small.tobytes()
