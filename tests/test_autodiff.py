import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl import autodiff as ad
from factorcl import factorized as fz
from factorcl import trainer as tr
from factorcl.datasets import TaskStreamSpec, generate_stream
from factorcl.errors import DataError, ShapeError


def rng_array(shape, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=shape) * scale + offset).astype(np.float32)


def batch_innermost(a):
    """A batch-major ``(N, C, H, W)`` array in the conv layout ``(C, H, W, N)``."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def matmul(g, a, b):
    """``a @ b`` on the tape: ``linear`` with a frozen zero bias."""
    return g.linear(a, b, g.leaf(np.zeros(g.value(b).shape[1], dtype=np.float32)))


def check(graph, loss, tol=1e-3, **kw):
    report = ad.grad_check(graph, loss, tolerance=tol, **kw)
    assert report.passed, str(report)
    return report


# -- forward values -----------------------------------------------------------


def test_softmax_cross_entropy_uniform_logits():
    g = ad.Graph()
    logits = g.leaf(np.zeros((3, 7), dtype=np.float32))
    loss = g.softmax_cross_entropy(logits, np.array([0, 3, 6]))
    assert abs(float(g.value(loss)) - math.log(7)) < 1e-6


def test_relu_values():
    g = ad.Graph()
    out = g.relu(g.leaf(np.array([-1.0, 2.0], dtype=np.float32)))
    np.testing.assert_array_equal(g.value(out), [0.0, 2.0])


def test_conv2d_1x1_kernel_equals_pointwise_matmul():
    rng = np.random.default_rng(0)
    x = batch_innermost(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
    w = rng.normal(size=(5, 3)).astype(np.float32)
    g = ad.Graph()
    out = g.conv2d(g.leaf(w), g.leaf(x), kernel=(3, 1, 1))
    direct = np.einsum("oc,chwb->ohwb", w, x)
    np.testing.assert_allclose(g.value(out), direct, atol=1e-5)


def test_conv2d_stride_padding_shapes():
    g = ad.Graph()
    x = g.leaf(batch_innermost(rng_array((1, 2, 7, 7), seed=1)))
    w = g.leaf(rng_array((4, 2 * 3 * 3), seed=2))
    out = g.conv2d(w, x, kernel=(2, 3, 3), stride=2, padding=1)
    assert g.value(out).shape == (4, 4, 4, 1)


def _im2col_loop(x, kh, kw, stride, padding):
    """Per-pixel reference: column (oy, ox, n), row (c, i, j) of the padded input."""
    c_in, h, w, n_im = x.shape
    out_h, out_w = ad.conv_output_size(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    cols = np.empty((c_in * kh * kw, out_h * out_w * n_im), dtype=x.dtype)
    for c, i, j, oy, ox, n in itertools.product(
        range(c_in), range(kh), range(kw), range(out_h), range(out_w), range(n_im)
    ):
        cols[(c * kh + i) * kw + j, (oy * out_w + ox) * n_im + n] = \
            xp[c, oy * stride + i, ox * stride + j, n]
    return cols


def _col2im_loop(cols, x_shape, kh, kw, stride, padding):
    """Per-pixel reference scatter-add; each pixel sums its kernel offsets in (i, j) order."""
    c_in, h, w, n_im = x_shape
    out_h, out_w = ad.conv_output_size(h, w, kh, kw, stride, padding)
    img = np.zeros((c_in, h + 2 * padding, w + 2 * padding, n_im), dtype=cols.dtype)
    for i, j in itertools.product(range(kh), range(kw)):
        for c, oy, ox, n in itertools.product(
            range(c_in), range(out_h), range(out_w), range(n_im)
        ):
            img[c, oy * stride + i, ox * stride + j, n] += \
                cols[(c * kh + i) * kw + j, (oy * out_w + ox) * n_im + n]
    return img[:, padding:padding + h, padding:padding + w]


# stride 3 with a 2x2 kernel leaves pixels that no column reads
@pytest.mark.parametrize("hw", [(5, 5), (6, 6), (5, 6)])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [(3, 3), (2, 3), (2, 2), (1, 1)])
def test_im2col_col2im_match_per_pixel_loops(hw, stride, padding, kernel):
    kh, kw = kernel
    for n_im in (3, 1):
        x_shape = (2, *hw, n_im)  # batch-innermost (C, H, W, N)
        x = rng_array(x_shape, seed=40)
        want = _im2col_loop(x, kh, kw, stride, padding).tobytes()
        cols = ad.im2col(x, kh, kw, stride, padding)
        assert cols.tobytes() == want
        assert ad.im2col(x, kh, kw, stride, padding, vars(ad._SCRATCH)).tobytes() == want
        g = rng_array(cols.shape, seed=41)
        # every contribution to channel 0 of image 0 is -0.0: such a pixel sums to +0.0
        g.reshape(2, kh * kw, -1, n_im)[0, :, :, 0] = -0.0
        want = _col2im_loop(g, x_shape, kh, kw, stride, padding).tobytes()
        img = ad.col2im(g, x_shape, kh, kw, stride, padding)
        assert img.shape == x_shape and img.flags["C_CONTIGUOUS"]
        assert img.tobytes() == want
        # the same columns given as the gather source, whose last row col2im zeroes
        src = np.vstack([g.reshape(-1, n_im), np.full((1, n_im), np.nan, np.float32)])
        assert ad.col2im(src, x_shape, kh, kw, stride, padding).tobytes() == want
        # adjoint identity <im2col(x), c> = <x, col2im(c)>, in float64
        x64 = np.random.default_rng(42).normal(size=x_shape)
        c64 = np.random.default_rng(43).normal(size=cols.shape)
        lhs = np.vdot(ad.im2col(x64, kh, kw, stride, padding), c64)
        rhs = np.vdot(x64, ad.col2im(c64, x_shape, kh, kw, stride, padding))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_weight_gradient_sums_over_batch_major_columns(stride, padding):
    c_in, c_out, kh, kw, h, w, n_im = 3, 4, 3, 3, 6, 6, 5
    x = rng_array((c_in, h, w, n_im), seed=44)
    weight = rng_array((c_out, c_in * kh * kw), seed=45)
    aux = {"kernel": (c_in, kh, kw), "stride": stride, "padding": padding, "x_needs_grad": False}
    out = ad._FORWARD["conv2d"]([weight, x], aux, aux)
    g = rng_array(out.shape, seed=46)
    gw, _ = ad._b_conv2d(g, [weight, x], out, aux)
    # both gemm operands with columns in (image, out row, out col) order
    _, out_h, out_w, _ = out.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    g_bm = np.empty((c_out, n_im * out_h * out_w), dtype=np.float32)
    cols_bm = np.empty((c_in * kh * kw, n_im * out_h * out_w), dtype=np.float32)
    for n, oy, ox in itertools.product(range(n_im), range(out_h), range(out_w)):
        col = (n * out_h + oy) * out_w + ox
        g_bm[:, col] = g[:, oy, ox, n]
        for c, i, j in itertools.product(range(c_in), range(kh), range(kw)):
            cols_bm[(c * kh + i) * kw + j, col] = xp[c, oy * stride + i, ox * stride + j, n]
    assert gw.tobytes() == (g_bm @ cols_bm.T).tobytes()


# -- inference scratch -------------------------------------------------------------


def _serving_net(seed, input_hw=(7, 7), stride=(1, 2)):
    """A strided, padded two-layer net: weights, a head and batch-major inputs."""
    spec = fz.NetworkSpec.build((4, 5), in_channels=3, input_hw=input_hw, stride=stride)
    rng = np.random.default_rng(seed)
    weights = [(rng.normal(size=(s.c, s.q)) * 0.3).astype(np.float32) for s in spec.layers]
    head = fz.TaskHead(weight=(rng.normal(size=(spec.head_input_dim, 3)) * 0.1).astype(np.float32),
                       bias=rng.normal(size=3).astype(np.float32))
    batches = [rng.normal(size=(n, 3, *input_hw)).astype(np.float32) for n in (256, 1, 7, 33)]
    return spec, weights, head, batches


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_forward_matches_the_tape_formula_bitwise(padding, stride, dtype):
    """Scratch buffers left by a larger, smaller or other-dtype batch change no bit."""
    c_in, c_out, kh, kw = 3, 4, 3, 3
    weight = rng_array((c_out, c_in * kh * kw), seed=50).astype(dtype)
    aux = {"kernel": (c_in, kh, kw), "stride": stride, "padding": padding}
    for n_im in (256, 1, 7, 256):
        x = rng_array((c_in, 6, 5, n_im), seed=51 + n_im, offset=1.0).astype(dtype)
        got = ad.conv2d_forward(weight, x, (c_in, kh, kw), stride, padding)
        want = ad._FORWARD["conv2d"]([weight, x], aux, None)  # the tape's formula, fresh buffers
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_conv2d_forward_zeroes_a_border_wider_than_the_image():
    weight = rng_array((2, 2 * 3 * 3), seed=58)
    aux = {"kernel": (2, 3, 3), "stride": 1, "padding": 3}
    x = rng_array((2, 1, 2, 5), seed=59)  # padding 3 around a 1x2 image
    ad._buffer(vars(ad._SCRATCH), "padded", (4096,), weight.dtype)[:] = np.nan  # stale contents
    got = ad.conv2d_forward(weight, x, (2, 3, 3), 1, 3)
    assert got.tobytes() == ad._FORWARD["conv2d"]([weight, x], aux, None).tobytes()


def test_inference_results_survive_later_calls():
    spec, weights, head, batches = _serving_net(seed=52)
    x = batches[0]
    conv = ad.conv2d_forward(weights[0], batch_innermost(x), (3, 3, 3), 1, 1)
    feats = fz.forward_features(weights, spec, x)
    logits = fz.run_network(weights, head, spec, x)
    kept = [a.copy() for a in (conv, feats, logits)]
    for later in batches:  # each overwrites this thread's scratch
        ad.conv2d_forward(weights[0], batch_innermost(later), (3, 3, 3), 1, 1)
        fz.run_network(weights, head, spec, later)
    for now, then in zip((conv, feats, logits), kept):
        assert now.tobytes() == then.tobytes()


def test_same_geometry_reuses_the_column_memory(monkeypatch):
    unfolded = []
    original = ad.im2col
    monkeypatch.setattr(ad, "im2col", lambda *args: unfolded.append(original(*args)) or unfolded[-1])
    weight = rng_array((4, 3 * 3 * 3), seed=53)
    for seed, n_im in ((54, 8), (55, 8), (57, 3)):
        ad.conv2d_forward(weight, rng_array((3, 6, 6, n_im), seed=seed), (3, 3, 3), 1, 1)
    assert np.shares_memory(unfolded[0], unfolded[1])
    # a smaller batch after a larger one views the larger batch's columns
    assert unfolded[2].shape == (27, 6 * 6 * 3) and np.shares_memory(unfolded[2], unfolded[0])
    # the tape keeps each conv node's columns for its backward: its own, never scratch
    g = ad.Graph()
    x = g.leaf(rng_array((3, 6, 6, 8), seed=56))
    node = g.nodes[g.conv2d(g.leaf(weight), x, kernel=(3, 3, 3), stride=1, padding=1)]
    assert node.aux["cols"] is unfolded[3]
    assert not np.shares_memory(unfolded[3], unfolded[1])


def _float64_logits(weights, head, spec, x, images=128):
    """The logits of ``x`` by the conv formula in float64, ``images`` at a time."""
    out = []
    for start in range(0, len(x), images):
        h = np.transpose(x[start:start + images], (1, 2, 3, 0)).astype(np.float64)
        for l, shape in enumerate(spec.layers):
            aux = {"kernel": (shape.n, shape.h, shape.w), "stride": spec.strides[l],
                   "padding": spec.paddings[l]}
            h = np.maximum(ad._FORWARD["conv2d"]([weights[l].astype(np.float64), h], aux, None), 0)
        feats = h.transpose(3, 0, 1, 2).reshape(h.shape[3], -1)
        out.append(feats @ head.weight.astype(np.float64) + head.bias)
    return np.concatenate(out)


def test_inference_unfolds_a_large_batch_in_chunks_within_the_budget(monkeypatch):
    monkeypatch.setattr(ad, "_SCRATCH", threading.local())  # this thread has no scratch yet
    # the wide-dense benchmark geometry: 3x16x16 inputs, 16 channels, strides 1 and 2
    spec = fz.NetworkSpec.build((16, 16), in_channels=3, input_hw=(16, 16), stride=(1, 2))
    chunk = fz._chunk_images(spec)
    assert chunk == 28  # the second layer unfolds 144 x 64 floats per image
    rng = np.random.default_rng(61)
    weights = [(rng.normal(size=(s.c, s.q)) / np.sqrt(s.q)).astype(np.float32) for s in spec.layers]
    head = fz.TaskHead(weight=(rng.normal(size=(spec.head_input_dim, 3)) * 0.05).astype(np.float32),
                       bias=rng.normal(size=3).astype(np.float32))
    x = rng.normal(size=(1024, 3, 16, 16)).astype(np.float32)
    logits = fz.run_network(weights, head, spec, x)
    for slot in ("padded", "cols"):
        assert vars(ad._SCRATCH)[slot].nbytes <= fz.CHUNK_BYTES, slot
    want = _float64_logits(weights, head, spec, x)
    assert np.abs(logits - want).max() <= 1e-5 * np.abs(want).max()
    # a batch of exactly k chunks gives, bit for bit, its chunks' features one by one
    k = 3
    whole = fz.forward_features(weights, spec, x[:k * chunk])
    parts = [fz.forward_features(weights, spec, x[i * chunk:(i + 1) * chunk]) for i in range(k)]
    assert whole.flags["C_CONTIGUOUS"] and whole.tobytes() == np.concatenate(parts).tobytes()


def test_a_chunk_keeps_each_layer_output_within_the_budget(monkeypatch):
    # 64 output channels of a 1x1 layer over one channel: the output, not the
    # unfold, is the widest buffer, 64 x 8 x 8 floats per image
    spec = fz.NetworkSpec.build((64,), in_channels=1, input_hw=(8, 8), kernel=1, padding=0)
    assert fz._chunk_images(spec) == 64
    outputs = []
    original = ad.conv2d_forward
    monkeypatch.setattr(ad, "conv2d_forward",
                        lambda *args, **kw: outputs.append(original(*args, **kw)) or outputs[-1])
    rng = np.random.default_rng(62)
    weights = [rng.normal(size=(64, 1)).astype(np.float32)]
    x = rng.normal(size=(150, 1, 8, 8)).astype(np.float32)
    feats = fz.forward_features(weights, spec, x)
    assert [o.shape[3] for o in outputs] == [64, 64, 22]
    assert max(o.nbytes for o in outputs) <= fz.CHUNK_BYTES
    ones = [fz.forward_features(weights, spec, x[i:i + 1]) for i in range(len(x))]
    assert feats.tobytes() == np.concatenate(ones).tobytes()


def test_threads_serving_mixed_batches_get_single_thread_bits():
    # two geometries: threads fill and read the unfold-table cache while they serve
    requests = []
    for net in (_serving_net(seed=57), _serving_net(seed=60, input_hw=(9, 8), stride=(2, 1))):
        spec, weights, head, batches = net
        requests += [(spec, weights, head, x) for x in batches]
    refs = [fz.run_network(weights, head, spec, x).tobytes()
            for spec, weights, head, x in requests]
    ad._unfold_table.cache_clear()
    rounds = 10
    served, wrong = [0] * 4, []

    def serve(k):
        for _ in range(rounds):
            for i in range(len(requests)):
                j = (k + i) % len(requests)  # each thread starts at another request
                spec, weights, head, x = requests[j]
                if fz.run_network(weights, head, spec, x).tobytes() != refs[j]:
                    wrong.append((k, j))
                served[k] += 1

    threads = [threading.Thread(target=serve, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert served == [rounds * len(requests)] * 4


def test_forward_matches_pure_recomputation():
    g = ad.Graph()
    a = g.leaf(rng_array((3, 4), seed=5), trainable=True)
    b = g.leaf(rng_array((4, 2), seed=6))
    out = g.relu(matmul(g, a, b))
    replayed = g.replay(out, dtype=np.float32)
    np.testing.assert_array_equal(replayed, g.value(out))


def test_shape_errors():
    g = ad.Graph()
    a = g.leaf(np.ones((2, 3), dtype=np.float32))
    b = g.leaf(np.ones((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        matmul(g, a, b)
    with pytest.raises(ShapeError):
        g.transpose(g.leaf(np.ones(3, dtype=np.float32)), (1, 0))
    with pytest.raises(ShapeError):
        g.factor_product(a, g.leaf(np.ones(2, dtype=np.float32)), b)
    with pytest.raises(ShapeError):
        g.conv2d(a, g.leaf(np.ones((1, 3, 5, 5), dtype=np.float32)), kernel=(3, 3, 3))
    with pytest.raises(ShapeError):
        g.add(a, g.leaf(np.ones((3, 2), dtype=np.float32)))
    with pytest.raises(ShapeError):  # add joins equal shapes only, never broadcasts
        g.add(a, g.leaf(np.ones((1, 3), dtype=np.float32)))


def test_label_out_of_range():
    g = ad.Graph()
    logits = g.leaf(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(DataError):
        g.softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(DataError):
        g.softmax_cross_entropy(logits, np.array([-1, 0]))


# -- backward ------------------------------------------------------------------


def test_quadratic_gradient():
    # loss = ||x||^2 via x xT; gradient is 2x
    g = ad.Graph()
    x = g.leaf(np.array([[1.0, 2.0]], dtype=np.float32), trainable=True)
    loss = g.reshape(matmul(g, x, g.transpose(x, (1, 0))), ())
    grads = g.backward(loss)
    np.testing.assert_allclose(grads[x], [[2.0, 4.0]], atol=1e-6)


def test_frozen_leaf_excluded_and_unchanged():
    g = ad.Graph()
    frozen_value = rng_array((3, 3), seed=8)
    frozen = g.leaf(frozen_value, trainable=False)
    train = g.leaf(rng_array((3, 3), seed=9), trainable=True)
    loss = g.frobenius_norm(g.linear(frozen, train, g.leaf(np.full(3, 0.1, dtype=np.float32))))
    grads = g.backward(loss)
    assert train in grads and frozen not in grads
    np.testing.assert_array_equal(g.value(frozen), frozen_value)


def test_non_scalar_loss_rejected():
    g = ad.Graph()
    a = g.leaf(np.ones((2, 2), dtype=np.float32), trainable=True)
    with pytest.raises(ValueError):
        g.backward(a)


def test_gradient_set_covers_exactly_reachable_trainables():
    g = ad.Graph()
    used = g.leaf(rng_array((2, 2), seed=1), trainable=True)
    unused = g.leaf(rng_array((2, 2), seed=2), trainable=True)
    loss = g.frobenius_norm(used)
    grads = g.backward(loss)
    assert set(grads) == {used}
    assert unused not in grads


def test_frozen_subgraph_gets_no_gradient_work():
    g = ad.Graph()
    frozen = g.leaf(rng_array((2, 2), seed=3))
    frozen_sum = g.add(frozen, frozen)
    w = g.leaf(rng_array((2, 2), seed=4), trainable=True)
    loss = g.frobenius_norm(matmul(g, frozen_sum, w))
    assert not g.nodes[frozen_sum].needs_grad and g.nodes[loss].needs_grad
    assert set(g.backward(loss)) == {w}
    # a loss with no trainable ancestor has nothing to differentiate
    assert g.backward(g.frobenius_norm(frozen_sum)) == {}


def test_conv2d_on_frozen_input_skips_col2im(monkeypatch):
    calls = []
    original = ad.col2im
    monkeypatch.setattr(ad, "col2im", lambda *args: calls.append(args) or original(*args))
    weight_grads, col2im_calls = [], []
    for x_trainable in (False, True):
        g = ad.Graph()
        x = g.leaf(batch_innermost(rng_array((2, 3, 6, 6), seed=22, scale=0.5)),
                   trainable=x_trainable)
        w = g.leaf(rng_array((4, 3 * 3 * 3), seed=23, scale=0.3), trainable=True)
        out = g.conv2d(w, x, kernel=(3, 3, 3), stride=2, padding=1)
        weight_grads.append(g.backward(g.frobenius_norm(g.reshape(out, (2, 4 * 3 * 3))))[w])
        col2im_calls.append(len(calls))
    assert col2im_calls == [0, 1]
    assert weight_grads[0].tobytes() == weight_grads[1].tobytes()


def test_full_mode_step_unfolds_each_layer_once(monkeypatch):
    spec = fz.NetworkSpec.build((3, 3), in_channels=2, input_hw=(4, 4))
    data = generate_stream(TaskStreamSpec(
        kind="synthetic_blobs", tasks=1, classes_per_task=2, samples_per_class=4,
        input_shape=(2, 4, 4), seed=0,
    ))[0]
    cfg = tr.TrainConfig(epochs=1, batch_size=data.train_x.shape[0], lr_drop_epochs=())
    space, _ = tr.run_continual([data], spec, cfg)
    fresh, head = fz.expand(spec, 2, seed=0, classes=data.classes)
    calls = {"im2col": 0, "col2im": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(ad, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(ad, name, counting)
    tr.train_task(data, space, fresh, head, cfg)  # one step against a non-empty prefix
    # the data batch needs no gradient, so only layers above the first scatter back
    assert calls == {"im2col": spec.num_layers, "col2im": spec.num_layers - 1}


def test_full_mode_step_builds_forty_tape_nodes(monkeypatch):
    spec = fz.NetworkSpec.build((3, 3), in_channels=2, input_hw=(4, 4))
    data = generate_stream(TaskStreamSpec(
        kind="synthetic_blobs", tasks=1, classes_per_task=2, samples_per_class=4,
        input_shape=(2, 4, 4), seed=0,
    ))[0]
    cfg = tr.TrainConfig(epochs=1, batch_size=data.train_x.shape[0], lr_drop_epochs=())
    space, _ = tr.run_continual([data], spec, cfg)
    fresh, head = fz.expand(spec, 2, seed=0, classes=data.classes)
    sizes = []
    backward = ad.Graph.backward

    def counting(self, loss):
        sizes.append(len(self.nodes))
        return backward(self, loss)

    monkeypatch.setattr(ad.Graph, "backward", counting)
    tr.train_task(data, space, fresh, head, cfg)  # one step against a non-empty prefix
    # per layer: 6 to compose the weight (3 factor leaves, factor_product, prefix
    # leaf, add), 2 for conv and relu, 4 for its orthogonality term and 1 for
    # its Hoyer term; 4 around the conv stack, 4 for the head and loss, and
    # 6 to sum, weight and add the two penalties
    assert sizes == [2 * (6 + 2 + 4 + 1) + 4 + 4 + 6]


def test_training_prefix_matches_the_three_leaf_graph():
    # the prefix a task trains against is bitwise the factor_product of its leaves
    rng = np.random.default_rng(7)
    spec = fz.NetworkSpec.build((3, 4), in_channels=2, input_hw=(5, 5))
    space = fz.empty_space(spec)
    for t, ranks in enumerate(((2, 3), (1, 2)), 1):
        factors = fz.TaskFactors(
            task=t,
            u=[rng.normal(size=(s.c, r)).astype(np.float32) for s, r in zip(spec.layers, ranks)],
            sigma=[np.sort(rng.random(r).astype(np.float32))[::-1].copy() for r in ranks],
            v=[rng.normal(size=(s.q, r)).astype(np.float32) for s, r in zip(spec.layers, ranks)],
        )
        head = fz.TaskHead(np.zeros((spec.head_input_dim, 2), np.float32), np.zeros(2, np.float32))
        space = fz.append(space, factors, head)
    for upto in (1, 2):
        g = ad.Graph()
        for l, prefix in enumerate(fz.extract_subnetwork(space, upto)[0]):
            lo, hi = space.columns(l, upto)
            u = g.leaf(np.ascontiguousarray(space.u[l][:, lo:hi]))
            s = g.leaf(np.ascontiguousarray(space.sigma[l][lo:hi]))
            v = g.leaf(np.ascontiguousarray(space.v[l][:, lo:hi]))
            graph_prefix = g.value(g.factor_product(u, s, v))
            assert prefix.dtype == graph_prefix.dtype and prefix.shape == graph_prefix.shape
            assert prefix.tobytes() == graph_prefix.tobytes()


def test_determinism_bitwise():
    def build():
        g = ad.Graph()
        x = g.leaf(batch_innermost(rng_array((2, 2, 5, 5), seed=3)), trainable=True)
        w = g.leaf(rng_array((3, 2 * 3 * 3), seed=4, scale=0.3), trainable=True)
        h = g.relu(g.conv2d(w, x, kernel=(2, 3, 3), padding=1))
        loss = g.frobenius_norm(g.reshape(h, (3 * 5 * 5, 2)))
        grads = g.backward(loss)
        return g.value(loss).copy(), grads[x], grads[w]

    for a, b in zip(build(), build()):
        assert a.tobytes() == b.tobytes()


# -- re-running a recorded tape -------------------------------------------------


def _step_graph(x, labels):
    """A training-shaped tape: conv, head, loss and a Gram penalty.

    Returns the graph and the nodes a step feeds and differentiates:
    ``(g, x leaf, loss over logits, objective)``.
    """
    g = ad.Graph()
    w = g.leaf(rng_array((3, 2 * 3 * 3), seed=50, scale=0.3), trainable=True, name="w")
    xl = g.leaf(batch_innermost(x))
    conv = g.relu(g.conv2d(w, xl, kernel=(2, 3, 3), padding=1))
    flat = g.reshape(g.transpose(conv, (3, 0, 1, 2)), (x.shape[0], 3 * 4 * 4))
    hw = g.leaf(rng_array((48, 3), seed=51, scale=0.1), trainable=True, name="hw")
    hb = g.leaf(np.zeros(3, np.float32), trainable=True, name="hb")
    ce = g.softmax_cross_entropy(g.linear(flat, hw, hb), labels)
    return g, xl, ce, g.add(ce, g.gram_deviation(hw))


def test_rerun_after_feeding_matches_a_fresh_build_bitwise():
    first = (rng_array((4, 2, 4, 4), seed=52), np.array([0, 1, 2, 0]))
    second = (rng_array((4, 2, 4, 4), seed=53), np.array([2, 2, 1, 0]))
    g, x, ce, loss = _step_graph(*first)
    first_loss = float(g.value(loss))
    g.backward(loss)
    g.feed(x, batch_innermost(second[0]))
    g.feed(ce, second[1])
    g.rerun()
    fresh, *_ = _step_graph(*second)
    assert float(g.value(loss)) != first_loss
    assert len(g.nodes) == len(fresh.nodes)
    for nid, (a, b) in enumerate(zip(g.nodes, fresh.nodes)):
        assert a.value.tobytes() == b.value.tobytes(), (nid, a.op)
    grads, fresh_grads = g.backward(loss), fresh.backward(loss)
    assert grads.keys() == fresh_grads.keys()
    for nid, grad in grads.items():
        assert grad.tobytes() == fresh_grads[nid].tobytes(), g.nodes[nid].name


def _dense_step_graph(seed):
    """A two-layer strided conv net, head and loss on a batch of 6: every op that owns buffers.

    Returns ``(g, x leaf, loss)``; the conv weights and head are trainable.
    """
    spec = fz.NetworkSpec.build((4, 5), in_channels=3, input_hw=(7, 7), stride=(1, 2))
    g = ad.Graph()
    weights = [g.leaf(rng_array((s.c, s.q), seed=70 + l, scale=0.3), trainable=True, name=f"w{l}")
               for l, s in enumerate(spec.layers)]
    x = g.leaf(rng_array((6, 3, 7, 7), seed=seed))
    feats = fz.graph_forward(g, weights, spec, x)
    hw = g.leaf(rng_array((spec.head_input_dim, 3), seed=72, scale=0.1), trainable=True, name="hw")
    hb = g.leaf(np.zeros(3, np.float32), trainable=True, name="hb")
    labels = np.random.default_rng(seed).integers(0, 3, size=6)
    return g, x, g.softmax_cross_entropy(g.linear(feats, hw, hb), labels)


def _step_buffers(g):
    """Every array that the tape's activation-sized ops hold: values and ``aux`` entries."""
    held = {}
    for nid, node in enumerate(g.nodes):
        if node.op in ("conv2d", "relu", "transpose", "reshape", "linear"):
            held[nid, "value"] = node.value
            held.update(((nid, k), a) for k, a in node.aux.items() if isinstance(a, np.ndarray))
    return held


def test_a_rerun_tape_writes_its_step_buffers_in_place():
    g, x, loss = _dense_step_graph(seed=73)
    grads = g.backward(loss)
    buffers = _step_buffers(g)
    ops = {g.nodes[nid].op for nid, _ in buffers}
    assert ops == {"conv2d", "relu", "transpose", "reshape", "linear"}
    conv = next(n for n in g.nodes if n.op == "conv2d" and n.aux["x_needs_grad"])
    owned = {"padded", "cols", "out", "g_rows", "col_rows", "gw", "gx_cols", "fold", "gx"}
    assert owned <= conv.aux.keys()
    addresses = {key: a.ctypes.data for key, a in buffers.items()}
    grad_addresses = {nid: d.ctypes.data for nid, d in grads.items()}
    assert len(grad_addresses) == 4
    for seed in (74, 75):
        fresh, fresh_x, fresh_loss = _dense_step_graph(seed)
        g.feed(x, fresh.value(fresh_x))
        g.feed(loss, fresh.nodes[fresh_loss].aux["labels"])
        g.rerun()
        grads = g.backward(loss)
        assert _step_buffers(g).keys() == buffers.keys()
        assert {key: a.ctypes.data for key, a in _step_buffers(g).items()} == addresses
        assert {nid: d.ctypes.data for nid, d in grads.items()} == grad_addresses
        # written in place, the buffers hold what a fresh tape computes
        for nid, (a, b) in enumerate(zip(g.nodes, fresh.nodes)):
            assert np.asarray(a.value).tobytes() == np.asarray(b.value).tobytes(), (nid, a.op)
        fresh_grads = fresh.backward(fresh_loss)
        for nid, d in grads.items():
            assert d.tobytes() == fresh_grads[nid].tobytes(), g.nodes[nid].name
    # grad_check's float64 replays allocate their own arrays and leave the tape's as they were
    kept = {key: a.copy() for key, a in _step_buffers(g).items()}
    assert ad.grad_check(g, loss, step=1e-4, max_entries=3).passed  # 1e-3 crosses a relu kink
    for key, a in _step_buffers(g).items():
        assert a.ctypes.data == addresses[key] and a.tobytes() == kept[key].tobytes(), key


def test_feed_checks_what_building_checked():
    g, x, ce, loss = _step_graph(rng_array((4, 2, 4, 4), seed=54), np.array([0, 1, 2, 0]))
    with pytest.raises(ShapeError):
        g.feed(x, batch_innermost(rng_array((5, 2, 4, 4), seed=55)))
    with pytest.raises(DataError):
        g.feed(ce, np.array([0, 1, 3, 0]))  # three classes
    with pytest.raises(DataError):
        g.feed(ce, np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        g.feed(loss, 1.0)  # an add node has no fed input
    # a rejected feed leaves the recorded inputs in place
    before = g.value(loss).copy()
    g.rerun()
    assert g.value(loss).tobytes() == before.tobytes()


def test_gram_deviation_backward_reads_the_forward_residual(monkeypatch):
    calls = []
    forward = ad._FORWARD["gram_deviation"]
    monkeypatch.setitem(ad._FORWARD, "gram_deviation",
                        lambda v, aux, store: calls.append(1) or forward(v, aux, store))
    g = ad.Graph()
    x = g.leaf(rng_array((5, 3), seed=56), trainable=True)
    dev = g.gram_deviation(x)
    g.backward(dev)
    assert len(calls) == 1
    xv = g.value(x)
    residual = np.ascontiguousarray(xv.T) @ xv - np.eye(3, dtype=np.float32)
    assert g.nodes[dev].aux["residual"].tobytes() == residual.tobytes()


def test_each_op_has_exactly_one_forward():
    assert ad._FORWARD.keys() == ad._BACKWARD.keys()


# -- finite-difference checks, one per op ---------------------------------------


def test_fd_matmul_add_scale():
    g = ad.Graph()
    a = g.leaf(rng_array((3, 4), seed=10), trainable=True, name="a")
    b = g.leaf(rng_array((4, 2), seed=11), trainable=True, name="b")
    c = g.leaf(rng_array((3, 2), seed=12), trainable=True, name="c")
    loss = g.frobenius_norm(g.scale(g.add(matmul(g, a, b), c), 0.7))
    check(g, loss)


def test_fd_transpose_4d_axes():
    g = ad.Graph()
    x = g.leaf(rng_array((2, 3, 4, 5), seed=27), trainable=True, name="x")
    # not its own inverse, so a backward that reapplied the axes would misplace entries
    t = g.transpose(x, (2, 0, 3, 1))
    assert g.value(t).shape == (4, 2, 5, 3)
    assert g.value(t).tobytes() == np.ascontiguousarray(g.value(x).transpose(2, 0, 3, 1)).tobytes()
    mix = g.leaf(rng_array((15, 3), seed=28), trainable=True, name="mix")
    loss = g.frobenius_norm(matmul(g, g.reshape(t, (8, 15)), mix))
    check(g, loss)
    with pytest.raises(ShapeError):
        g.transpose(x, (0, 1, 2))
    with pytest.raises(ShapeError):
        g.transpose(x, (0, 1, 2, 2))


def test_fd_relu_away_from_kink():
    g = ad.Graph()
    x = g.leaf(rng_array((5, 5), seed=14, offset=0.0) + 0.2, trainable=True, name="x")
    loss = g.frobenius_norm(g.relu(x))
    check(g, loss)


def test_fd_factor_product():
    g = ad.Graph()
    u = g.leaf(rng_array((4, 3), seed=13), trainable=True, name="u")
    s = g.leaf(np.array([1.5, -0.7, 0.3], dtype=np.float32), trainable=True, name="s")
    v = g.leaf(rng_array((5, 3), seed=15), trainable=True, name="v")
    w = g.factor_product(u, s, v)
    assert g.value(w).shape == (4, 5)
    np.testing.assert_allclose(
        g.value(w), g.value(u) @ np.diag(g.value(s)) @ g.value(v).T, rtol=1e-6, atol=1e-6
    )
    check(g, g.frobenius_norm(w))


def test_fd_gram_deviation():
    g = ad.Graph()
    x = g.leaf(rng_array((5, 3), seed=16), trainable=True, name="x")
    dev = g.gram_deviation(x)
    xv = g.value(x).astype(np.float64)
    assert abs(float(g.value(dev)) - np.linalg.norm(xv.T @ xv - np.eye(3))) < 1e-5
    check(g, dev)
    with pytest.raises(ShapeError):
        g.gram_deviation(g.leaf(np.ones(3, dtype=np.float32)))


def test_fd_hoyer():
    g = ad.Graph()
    s = g.leaf(np.array([1.2, -0.6, 0.4, 0.9], dtype=np.float32), trainable=True, name="s")
    ratio = g.hoyer(s)
    assert abs(float(g.value(ratio)) - 3.1 / math.sqrt(2.77)) < 1e-6
    check(g, ratio)
    with pytest.raises(ShapeError):
        g.hoyer(g.leaf(np.ones((2, 2), dtype=np.float32)))


def test_gram_deviation_kink_has_zero_gradient():
    # orthonormal columns whose XᵀX − I is exactly 0 in float32
    eye = np.eye(5, 3, dtype=np.float32)
    signed_permutation = -np.ascontiguousarray(eye[::-1])
    for x_value in (eye, signed_permutation):
        g = ad.Graph()
        x = g.leaf(x_value, trainable=True)
        dev = g.gram_deviation(x)
        assert float(g.value(dev)) == 0.0
        grad = g.backward(dev)[x]
        assert np.all(np.isfinite(grad)) and not grad.any()


def test_hoyer_of_zero_sigma_has_zero_gradient():
    g = ad.Graph()
    s = g.leaf(np.zeros(4, dtype=np.float32), trainable=True)
    ratio = g.hoyer(s)
    assert float(g.value(ratio)) == 0.0
    grad = g.backward(ratio)[s]
    assert np.all(np.isfinite(grad)) and not grad.any()


def test_fd_linear_softmax_ce():
    g = ad.Graph()
    x = g.leaf(rng_array((6, 5), seed=19), trainable=True, name="x")
    w = g.leaf(rng_array((5, 4), seed=20, scale=0.5), trainable=True, name="w")
    b = g.leaf(rng_array((4,), seed=21, scale=0.1), trainable=True, name="b")
    loss = g.softmax_cross_entropy(g.linear(x, w, b), np.array([0, 1, 2, 3, 0, 1]))
    check(g, loss)


def test_fd_conv2d():
    g = ad.Graph()
    x = g.leaf(batch_innermost(rng_array((2, 3, 6, 6), seed=22, scale=0.5)), trainable=True, name="x")
    w = g.leaf(rng_array((4, 3 * 3 * 3), seed=23, scale=0.3), trainable=True, name="w")
    out = g.conv2d(w, x, kernel=(3, 3, 3), stride=2, padding=1)
    loss = g.frobenius_norm(g.reshape(out, (2, 4 * 3 * 3)))
    check(g, loss)


# A finite-difference probe of step 1e-3 on one factor entry moves a conv
# pre-activation by up to a few 1e-3; a unit nearer the ReLU kink than this
# can cross it mid-probe, and the check then measures the kink, not the rule.
KINK_MARGIN = 5e-3


def _composed_conv_graph(seed):
    """Frozen prefix plus trainable factor_product weight, then conv, relu and head.

    Returns the graph, its loss and the smallest |ReLU pre-activation|.
    """
    rng = np.random.default_rng(seed)
    g = ad.Graph()
    c, nhw, r = 4, 2 * 3 * 3, 3
    frozen = g.leaf(rng.normal(size=(c, nhw)).astype(np.float32) * 0.2)
    u = g.leaf(rng.normal(size=(c, r)).astype(np.float32) * 0.4, trainable=True, name="u")
    s = g.leaf(np.abs(rng.normal(size=r)).astype(np.float32) + 0.3, trainable=True, name="s")
    v = g.leaf(rng.normal(size=(nhw, r)).astype(np.float32) * 0.4, trainable=True, name="v")
    w = g.add(frozen, g.factor_product(u, s, v))
    x = g.leaf(batch_innermost(rng.normal(size=(4, 2, 5, 5)).astype(np.float32) * 0.5))
    pre = g.conv2d(w, x, kernel=(2, 3, 3), padding=1)
    feat = g.relu(pre)
    flat = g.reshape(g.transpose(feat, (3, 0, 1, 2)), (4, c * 5 * 5))
    hw = g.leaf(rng.normal(size=(c * 5 * 5, 3)).astype(np.float32) * 0.1, trainable=True, name="head_w")
    hb = g.leaf(np.zeros(3, dtype=np.float32), trainable=True, name="head_b")
    loss = g.softmax_cross_entropy(g.linear(flat, hw, hb), np.array([0, 1, 2, 0]))
    return g, loss, float(np.abs(g.value(pre)).min())


def test_fd_composed_factorized_conv_net():
    # resample draws with a pre-activation inside the margin, then check the first clear one
    for seed in range(25, 525):
        g, loss, margin = _composed_conv_graph(seed)
        if margin >= KINK_MARGIN:
            break
    assert margin >= KINK_MARGIN, f"no draw clears the kink margin; closest {margin:.2e}"
    check(g, loss, max_entries=15)


def test_grad_check_negative_control(monkeypatch):
    # sabotage one backward rule; the checker must notice
    def zero_backward(grad, values, out, aux):
        return [np.zeros_like(values[0])]

    monkeypatch.setitem(ad._BACKWARD, "relu", zero_backward)
    g = ad.Graph()
    x = g.leaf(np.abs(rng_array((4, 4), seed=26)) + 0.5, trainable=True)
    loss = g.frobenius_norm(g.relu(x))
    report = ad.grad_check(g, loss)
    assert not report.passed


@given(seed=st.integers(0, 2**16), rows=st.integers(2, 5), cols=st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_fd_random_small_graphs(seed, rows, cols):
    rng = np.random.default_rng(seed)
    g = ad.Graph()
    a = g.leaf((rng.normal(size=(rows, cols)) + 2.0).astype(np.float32), trainable=True)
    b = g.leaf((rng.normal(size=(cols, rows)) + 2.0).astype(np.float32), trainable=True)
    h = g.relu(g.scale(matmul(g, a, b), 0.5))
    loss = g.frobenius_norm(g.add(h, g.transpose(matmul(g, a, b), (1, 0))))
    check(g, loss, max_entries=10)
