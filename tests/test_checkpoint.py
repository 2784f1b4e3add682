import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl import checkpoint as ck
from factorcl import compression as cp
from factorcl import factorized as fz
from factorcl.datasets import TaskStreamSpec, generate_stream
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


# -- corruption ------------------------------------------------------------------------


def test_truncation_never_yields_partial_state():
    blob = ck.space_to_bytes(random_space(seed=4))
    for cut in range(0, len(blob), 64):
        with pytest.raises(FormatError):
            ck.space_from_bytes(blob[:cut])


def test_truncation_error_carries_offset():
    blob = ck.space_to_bytes(random_space(seed=5))
    with pytest.raises(FormatError) as err:
        ck.space_from_bytes(blob[:20])
    assert err.value.offset is not None and 0 <= err.value.offset <= 20
    assert "offset" in str(err.value)


def test_bad_magic_rejected_at_offset_zero():
    blob = b"NOPE" + ck.space_to_bytes(random_space())[4:]
    with pytest.raises(FormatError) as err:
        ck.space_from_bytes(blob)
    assert err.value.offset == 0


def test_unsupported_version_rejected():
    blob = bytearray(ck.space_to_bytes(random_space()))
    blob[4:8] = struct.pack("<I", 99)
    with pytest.raises(FormatError) as err:
        ck.space_from_bytes(bytes(blob))
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


# -- npz artifacts ----------------------------------------------------------------------


@pytest.mark.parametrize("where", ["last head bias", "first U entry"])
def test_non_finite_payload_rejected_at_its_offset(where):
    space = random_space(seed=6)
    blob = bytearray(ck.space_to_bytes(space))
    if where == "last head bias":
        at = len(blob) - 4
    else:  # layer 0's U starts right after the rank table
        t, n_layers = space.num_tasks, SPEC.num_layers
        at = 16 + 16 * n_layers + 8 * n_layers + 12 + 4 + 4 * n_layers * t
    assert np.isfinite(np.frombuffer(bytes(blob[at : at + 4]), "<f4")[0])
    blob[at : at + 4] = struct.pack("<f", float("nan"))
    with pytest.raises(FormatError) as err:
        ck.space_from_bytes(bytes(blob))
    assert err.value.offset == at


# -- fuzzing: every mutation of a valid file loads whole or raises FormatError ------

FUZZ_BLOB = ck.space_to_bytes(random_space(
    seed=5, tasks=2, spec=fz.NetworkSpec.build((2, 3), in_channels=1, input_hw=(2, 2))))
FUZZ_WORDS = len(FUZZ_BLOB) // 4
# counts and dimensions live in small u32s; the rest probe the edges
U32 = st.one_of(st.integers(0, 70), st.integers(0, 2**32 - 1),
                st.sampled_from([2**31 - 1, 2**31, 2**32 - 1, 0x7F800000, 0xFF800000]))


def load_or_reject(blob: bytes) -> None:
    try:
        space = ck.space_from_bytes(blob)
    except FormatError:
        return
    arrays = [*space.u, *space.sigma, *space.v, *(a for h in space.heads for a in (h.weight, h.bias))]
    assert all(np.isfinite(a).all() for a in arrays)
    assert ck.space_to_bytes(space) == blob


def test_fuzz_blob_is_valid():
    load_or_reject(FUZZ_BLOB)
    assert ck.space_from_bytes(FUZZ_BLOB).num_tasks == 2


@given(bits=st.lists(st.integers(0, 8 * len(FUZZ_BLOB) - 1), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_fuzz_bit_flips(bits):
    blob = bytearray(FUZZ_BLOB)
    for bit in bits:
        blob[bit // 8] ^= 1 << (bit % 8)
    load_or_reject(bytes(blob))


@given(edits=st.lists(st.tuples(st.integers(0, FUZZ_WORDS - 1), U32), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_fuzz_u32_field_rewrites(edits):
    blob = bytearray(FUZZ_BLOB)
    for word, value in edits:
        struct.pack_into("<I", blob, 4 * word, value)
    load_or_reject(bytes(blob))


def test_task_factors_round_trip(tmp_path):
    factors, head = fz.expand(SPEC, 2, seed=1, classes=3)
    path = tmp_path / "task.npz"
    ck.save_task_factors(path, SPEC, factors, head)
    spec2, back, head2 = ck.load_task_factors(path)
    assert spec2.layers == SPEC.layers
    assert back.task == 2
    for l in range(SPEC.num_layers):
        np.testing.assert_array_equal(back.u[l], factors.u[l])
        np.testing.assert_array_equal(back.sigma[l], factors.sigma[l])
    np.testing.assert_array_equal(head2.weight, head.weight)


def test_dense_models_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    models = DenseTaskModels(spec=SPEC)
    for t in range(2):
        models.weights.append(
            [rng.normal(size=(s.c, s.q)).astype(np.float32) for s in SPEC.layers]
        )
        models.heads.append(fz.TaskHead(
            weight=rng.normal(size=(SPEC.head_input_dim, 2)).astype(np.float32),
            bias=np.zeros(2, np.float32),
        ))
    path = tmp_path / "models.npz"
    ck.save_dense_models(path, models)
    back = ck.load_dense_models(path)
    assert back.num_tasks == 2
    x = rng.normal(size=(3, 2, 4, 4)).astype(np.float32)
    np.testing.assert_array_equal(models.predict_logits(2, x), back.predict_logits(2, x))


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
        ck.load_task_factors(path)
    with pytest.raises(FormatError):
        ck.load_dense_models(path)
    with pytest.raises(FormatError):
        ck.load_dataset(path)
