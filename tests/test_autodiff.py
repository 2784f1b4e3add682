import itertools
import math

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


def channel_major(a):
    """A batch-major ``(N, C, H, W)`` array in the conv layout ``(C, N, H, W)``."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


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
    x = channel_major(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
    w = rng.normal(size=(5, 3)).astype(np.float32)
    g = ad.Graph()
    out = g.conv2d(g.leaf(w), g.leaf(x), kernel=(3, 1, 1))
    direct = np.einsum("oc,cbhw->obhw", w, x)
    np.testing.assert_allclose(g.value(out), direct, atol=1e-5)


def test_conv2d_stride_padding_shapes():
    g = ad.Graph()
    x = g.leaf(channel_major(rng_array((1, 2, 7, 7), seed=1)))
    w = g.leaf(rng_array((4, 2 * 3 * 3), seed=2))
    out = g.conv2d(w, x, kernel=(2, 3, 3), stride=2, padding=1)
    assert g.value(out).shape == (4, 1, 4, 4)


def _im2col_loop(x, kh, kw, stride, padding):
    """Per-pixel reference: column (n, oy, ox), row (c, i, j) of the padded input."""
    c_in, n_im, h, w = x.shape
    out_h, out_w = ad.conv_output_size(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c_in * kh * kw, n_im * out_h * out_w), dtype=x.dtype)
    for c, i, j, n, oy, ox in itertools.product(
        range(c_in), range(kh), range(kw), range(n_im), range(out_h), range(out_w)
    ):
        cols[(c * kh + i) * kw + j, (n * out_h + oy) * out_w + ox] = \
            xp[c, n, oy * stride + i, ox * stride + j]
    return cols


def _col2im_loop(cols, x_shape, kh, kw, stride, padding):
    """Per-pixel reference scatter-add; each pixel sums its kernel offsets in (i, j) order."""
    c_in, n_im, h, w = x_shape
    out_h, out_w = ad.conv_output_size(h, w, kh, kw, stride, padding)
    img = np.zeros((c_in, n_im, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i, j in itertools.product(range(kh), range(kw)):
        for c, n, oy, ox in itertools.product(
            range(c_in), range(n_im), range(out_h), range(out_w)
        ):
            img[c, n, oy * stride + i, ox * stride + j] += \
                cols[(c * kh + i) * kw + j, (n * out_h + oy) * out_w + ox]
    return img[:, :, padding:padding + h, padding:padding + w]


@pytest.mark.parametrize("hw", [(5, 5), (6, 6), (5, 6)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
def test_im2col_col2im_match_per_pixel_loops(hw, stride, padding, kernel):
    kh, kw = kernel
    x_shape = (2, 3, *hw)  # channel-major (C, N, H, W)
    x = rng_array(x_shape, seed=40)
    cols = ad.im2col(x, kh, kw, stride, padding)
    assert cols.tobytes() == _im2col_loop(x, kh, kw, stride, padding).tobytes()
    g = rng_array(cols.shape, seed=41)
    img = ad.col2im(g, x_shape, kh, kw, stride, padding)
    assert img.shape == x_shape and img.flags["C_CONTIGUOUS"]
    assert img.tobytes() == _col2im_loop(g, x_shape, kh, kw, stride, padding).tobytes()
    # adjoint identity <im2col(x), c> = <x, col2im(c)>, in float64
    x64 = np.random.default_rng(42).normal(size=x_shape)
    c64 = np.random.default_rng(43).normal(size=cols.shape)
    lhs = np.vdot(ad.im2col(x64, kh, kw, stride, padding), c64)
    rhs = np.vdot(x64, ad.col2im(c64, x_shape, kh, kw, stride, padding))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_forward_matches_pure_recomputation():
    g = ad.Graph()
    a = g.leaf(rng_array((3, 4), seed=5), trainable=True)
    b = g.leaf(rng_array((4, 2), seed=6))
    out = g.relu(g.matmul(a, b))
    replayed = g.replay(out, dtype=np.float32)
    np.testing.assert_array_equal(replayed, g.value(out))


def test_shape_errors():
    g = ad.Graph()
    a = g.leaf(np.ones((2, 3), dtype=np.float32))
    b = g.leaf(np.ones((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        g.matmul(a, b)
    with pytest.raises(ShapeError):
        g.transpose(g.leaf(np.ones(3, dtype=np.float32)))
    with pytest.raises(ShapeError):
        g.factor_product(a, g.leaf(np.ones(2, dtype=np.float32)), b)
    with pytest.raises(ShapeError):
        g.conv2d(a, g.leaf(np.ones((1, 3, 5, 5), dtype=np.float32)), kernel=(3, 3, 3))
    with pytest.raises(ShapeError):
        g.add(a, g.leaf(np.ones((3, 2), dtype=np.float32)))


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
    loss = g.reshape(g.matmul(x, g.transpose(x)), ())
    grads = g.backward(loss)
    np.testing.assert_allclose(grads[x], [[2.0, 4.0]], atol=1e-6)


def test_frozen_leaf_excluded_and_unchanged():
    g = ad.Graph()
    frozen_value = rng_array((3, 3), seed=8)
    frozen = g.leaf(frozen_value, trainable=False)
    train = g.leaf(rng_array((3, 3), seed=9), trainable=True)
    loss = g.frobenius_norm(g.add(g.matmul(frozen, train), g.leaf(np.float32(0.1))))
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
    loss = g.frobenius_norm(g.matmul(frozen_sum, w))
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
        x = g.leaf(channel_major(rng_array((2, 3, 6, 6), seed=22, scale=0.5)),
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
        x = g.leaf(rng_array((4, 6), seed=3), trainable=True)
        h = g.dropout(g.relu(x), rate=0.5, seed=123, train=True)
        loss = g.frobenius_norm(h)
        return g.value(loss).copy(), g.backward(loss)[x]

    la, ga = build()
    lb, gb = build()
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(ga, gb)


# -- re-running a recorded tape -------------------------------------------------


def _step_graph(x, labels, seed):
    """A training-shaped tape: conv, dropout, head, loss and a Gram penalty.

    Returns the graph and the nodes a step feeds and differentiates:
    ``(g, x leaf, dropout, loss over logits, objective)``.
    """
    g = ad.Graph()
    w = g.leaf(rng_array((3, 2 * 3 * 3), seed=50, scale=0.3), trainable=True, name="w")
    xl = g.leaf(channel_major(x))
    conv = g.relu(g.conv2d(w, xl, kernel=(2, 3, 3), padding=1))
    drop = g.dropout(conv, rate=0.3, seed=seed, train=True)
    flat = g.reshape(g.transpose(drop, (1, 0, 2, 3)), (x.shape[0], 3 * 4 * 4))
    hw = g.leaf(rng_array((48, 3), seed=51, scale=0.1), trainable=True, name="hw")
    hb = g.leaf(np.zeros(3, np.float32), trainable=True, name="hb")
    ce = g.softmax_cross_entropy(g.linear(flat, hw, hb), labels)
    return g, xl, drop, ce, g.add(ce, g.gram_deviation(hw))


def test_rerun_after_feeding_matches_a_fresh_build_bitwise():
    first = (rng_array((4, 2, 4, 4), seed=52), np.array([0, 1, 2, 0]), 7)
    second = (rng_array((4, 2, 4, 4), seed=53), np.array([2, 2, 1, 0]), 8)
    g, x, drop, ce, loss = _step_graph(*first)
    first_loss = float(g.value(loss))
    g.backward(loss)
    g.feed(x, channel_major(second[0]))
    g.feed(ce, second[1])
    g.feed(drop, second[2])
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


def test_feed_checks_what_building_checked():
    g, x, drop, ce, loss = _step_graph(rng_array((4, 2, 4, 4), seed=54), np.array([0, 1, 2, 0]), 7)
    with pytest.raises(ShapeError):
        g.feed(x, channel_major(rng_array((5, 2, 4, 4), seed=55)))
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
    forward = ad._SAVING["gram_deviation"]
    monkeypatch.setitem(ad._SAVING, "gram_deviation",
                        lambda v, aux: calls.append(1) or forward(v, aux))
    g = ad.Graph()
    x = g.leaf(rng_array((5, 3), seed=56), trainable=True)
    dev = g.gram_deviation(x)
    g.backward(dev)
    assert len(calls) == 1
    xv = g.value(x)
    residual = np.ascontiguousarray(xv.T) @ xv - np.eye(3, dtype=np.float32)
    assert g.nodes[dev].aux["residual"].tobytes() == residual.tobytes()


# -- finite-difference checks, one per op ---------------------------------------


def test_fd_matmul_add_scale():
    g = ad.Graph()
    a = g.leaf(rng_array((3, 4), seed=10), trainable=True, name="a")
    b = g.leaf(rng_array((4, 2), seed=11), trainable=True, name="b")
    c = g.leaf(rng_array((1, 2), seed=12), trainable=True, name="c")
    loss = g.frobenius_norm(g.scale(g.add(g.matmul(a, b), c), 0.7))
    check(g, loss)


def test_fd_transpose_4d_axes():
    g = ad.Graph()
    x = g.leaf(rng_array((2, 3, 4, 5), seed=27), trainable=True, name="x")
    # not its own inverse, so a backward that reapplied the axes would misplace entries
    t = g.transpose(x, (2, 0, 3, 1))
    assert g.value(t).shape == (4, 2, 5, 3)
    assert g.value(t).tobytes() == np.ascontiguousarray(g.value(x).transpose(2, 0, 3, 1)).tobytes()
    mix = g.leaf(rng_array((15, 3), seed=28), trainable=True, name="mix")
    loss = g.frobenius_norm(g.matmul(g.reshape(t, (8, 15)), mix))
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
    x = g.leaf(channel_major(rng_array((2, 3, 6, 6), seed=22, scale=0.5)), trainable=True, name="x")
    w = g.leaf(rng_array((4, 3 * 3 * 3), seed=23, scale=0.3), trainable=True, name="w")
    out = g.conv2d(w, x, kernel=(3, 3, 3), stride=2, padding=1)
    loss = g.frobenius_norm(g.reshape(out, (2, 4 * 3 * 3)))
    check(g, loss)


def test_fd_dropout_fixed_mask():
    g = ad.Graph()
    x = g.leaf(np.abs(rng_array((5, 5), seed=24)) + 0.3, trainable=True, name="x")
    loss = g.frobenius_norm(g.dropout(x, rate=0.4, seed=7, train=True))
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
    x = g.leaf(channel_major(rng.normal(size=(4, 2, 5, 5)).astype(np.float32) * 0.5))
    pre = g.conv2d(w, x, kernel=(2, 3, 3), padding=1)
    feat = g.relu(pre)
    flat = g.reshape(g.transpose(feat, (1, 0, 2, 3)), (4, c * 5 * 5))
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
    h = g.relu(g.scale(g.matmul(a, b), 0.5))
    loss = g.frobenius_norm(g.add(h, g.transpose(g.matmul(a, b))))
    check(g, loss, max_entries=10)
