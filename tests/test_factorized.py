import numpy as np
import pytest

from factorcl import autodiff as ad
from factorcl import factorized as fz
from factorcl import trainer as tr
from factorcl.errors import ConfigError, NumericError, ShapeError
from factorcl.linalg import random_orthonormal


def small_spec(channels=(4, 4), in_channels=2, hw=(5, 5)):
    return fz.NetworkSpec.build(channels, in_channels=in_channels, input_hw=hw)


def make_pruned(spec, task, seed, ranks):
    """Orthonormal factor triples with descending sigma, append-ready."""
    rng = np.random.default_rng(seed)
    u, s, v = [], [], []
    for shape, r in zip(spec.layers, ranks):
        u.append(random_orthonormal(shape.c, r, seed=seed + shape.c))
        v.append(random_orthonormal(shape.q, r, seed=seed + shape.q + 1))
        s.append(np.sort(rng.random(r).astype(np.float32))[::-1].copy())
    return fz.TaskFactors(task=task, u=u, sigma=s, v=v)


def make_head(spec, classes, seed):
    rng = np.random.default_rng(seed)
    return fz.TaskHead(
        weight=rng.normal(size=(spec.head_input_dim, classes)).astype(np.float32),
        bias=np.zeros(classes, dtype=np.float32),
    )


# -- shapes and expansion --------------------------------------------------------


def test_expansion_rank_formula():
    assert fz.LayerShape(c=64, n=64, h=3, w=3).expansion_rank() == 57


def test_expansion_rank_clamped():
    assert fz.LayerShape(c=1, n=1, h=1, w=1).expansion_rank() == 1


def test_expansion_param_count_below_dense():
    shape = fz.LayerShape(c=64, n=64, h=3, w=3)
    r = shape.expansion_rank()
    factorized = shape.c * r + shape.q * r + r
    assert factorized == 36537
    assert factorized <= shape.c * shape.q == 36864


def test_network_spec_channel_mismatch():
    with pytest.raises(ValueError):
        fz.NetworkSpec(
            layers=(fz.LayerShape(4, 2, 3, 3), fz.LayerShape(4, 8, 3, 3)),
            input_hw=(5, 5), strides=(1, 1), paddings=(1, 1),
        )


def test_network_spec_rejects_a_non_integer_input_size():
    # a float size would pass the geometry checks and make head_input_dim a float
    with pytest.raises(ConfigError):
        fz.NetworkSpec.build((4,), in_channels=2, input_hw=(6.5, 6))


def test_a_geometry_that_unfolds_an_image_past_the_cap_is_rejected():
    # a 1x1 kernel over one channel unfolds an h x w image to h * w values
    at_cap = fz.NetworkSpec.build((1,), in_channels=1, input_hw=(4096, 4096), kernel=1,
                                  padding=0)
    assert at_cap.head_input_dim == fz.MAX_UNFOLD
    with pytest.raises(ConfigError, match="unfold"):
        fz.NetworkSpec.build((1,), in_channels=1, input_hw=(4096, 4097), kernel=1, padding=0)
    # the layers' unfolds add up: padding p makes layer 0 unfold (2p + 1)^2
    # values of a 1x1 input, and layer 1 strides over all of them to one value
    def two_layers(padding):
        return fz.NetworkSpec.build((1, 1), in_channels=1, input_hw=(1, 1), kernel=1,
                                    stride=(1, 2 * padding + 1), padding=(padding, 0))

    assert two_layers(2000).head_input_dim == 1
    with pytest.raises(ConfigError, match="unfold"):
        two_layers(2100)
    # a narrow unfold can still output too much: 65536 channels of 255 x 255
    with pytest.raises(ConfigError, match="outputs"):
        fz.NetworkSpec.build((65536, 1), in_channels=1, input_hw=(1, 1), kernel=1,
                             stride=(1, 255), padding=(127, 0))


def test_network_spec_head_dim_checked():
    # the head width is derived from the geometry, never given
    with pytest.raises(TypeError):
        fz.NetworkSpec(
            layers=(fz.LayerShape(4, 2, 3, 3),),
            input_hw=(5, 5), head_input_dim=7,
            strides=(1,), paddings=(1,),
        )
    spec = fz.NetworkSpec(layers=(fz.LayerShape(4, 2, 3, 3),), input_hw=(5, 5),
                          strides=(2,), paddings=(1,))
    assert spec.head_input_dim == 4 * 3 * 3


def test_expand_shapes_and_determinism():
    spec = small_spec()
    factors, head = fz.expand(spec, t=1, seed=9, classes=3)
    for l, shape in enumerate(spec.layers):
        r = shape.expansion_rank()
        assert factors.u[l].shape == (shape.c, r)
        assert factors.sigma[l].shape == (r,)
        assert factors.v[l].shape == (shape.q, r)
        assert np.all(factors.sigma[l] > 0.5) and np.all(factors.sigma[l] <= 1.0)
    assert head.weight.shape == (spec.head_input_dim, 3)
    again, head2 = fz.expand(spec, t=1, seed=9, classes=3)
    np.testing.assert_array_equal(factors.u[0], again.u[0])
    np.testing.assert_array_equal(head.weight, head2.weight)
    other, _ = fz.expand(spec, t=2, seed=9, classes=3)
    assert not np.array_equal(factors.u[0], other.u[0])


# -- composition ------------------------------------------------------------------


def dense_oracle(f):
    return [(u * s) @ v.T for u, s, v in zip(f.u, f.sigma, f.v)]


def composed_values(prefix, residual):
    g = ad.Graph()
    return [g.value(w) for w in fz.compose_weights(g, prefix, residual).weights]


def test_compose_empty_space_is_residual_only():
    spec = small_spec()
    res = make_pruned(spec, task=1, seed=3, ranks=(2, 3))
    for w, direct in zip(composed_values(None, res), dense_oracle(res)):
        np.testing.assert_allclose(w, direct, atol=1e-7)


def test_compose_zero_residual_is_shared_exactly():
    spec = small_spec()
    pruned = make_pruned(spec, task=1, seed=4, ranks=(2, 2))
    space = fz.append(fz.empty_space(spec), pruned, make_head(spec, 2, 0))
    res = make_pruned(spec, task=2, seed=5, ranks=(2, 2))
    for l in range(2):
        res.sigma[l][:] = 0.0
    shared_only = fz.extract_subnetwork(space, 1)[0]
    for a, b in zip(composed_values(shared_only, res), shared_only):
        np.testing.assert_array_equal(a, b)


def test_compose_rank_one_addition_hand_oracle():
    # shared rank-1 (u, 2, v) plus residual rank-1 (u, 3, v) -> 5 u v^T
    spec = fz.NetworkSpec.build((4,), in_channels=1, input_hw=(1, 3), kernel=1, padding=0)
    shape = spec.layers[0]
    assert (shape.c, shape.q) == (4, 1 * 1 * 1)
    rng = np.random.default_rng(6)
    u = rng.normal(size=(4, 1)).astype(np.float32)
    v = rng.normal(size=(1, 1)).astype(np.float32)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    shared_f = fz.TaskFactors(task=1, u=[u.copy()], sigma=[np.array([2.0], np.float32)], v=[v.copy()])
    space = fz.append(fz.empty_space(spec), shared_f, make_head(spec, 2, 1))
    res = fz.TaskFactors(task=2, u=[u.copy()], sigma=[np.array([3.0], np.float32)], v=[v.copy()])
    composed = composed_values(fz.extract_subnetwork(space, 1)[0], res)
    np.testing.assert_allclose(composed[0], 5.0 * (u @ v.T), atol=1e-6)


def test_compose_linear_in_sigma():
    spec = small_spec()
    res = make_pruned(spec, task=1, seed=7, ranks=(3, 2))
    doubled = fz.TaskFactors(task=res.task, u=res.u, sigma=[s * 2.0 for s in res.sigma], v=res.v)
    for a, b in zip(composed_values(None, res), composed_values(None, doubled)):
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-6)


def test_compose_shape_mismatch():
    spec = small_spec()
    pruned = make_pruned(spec, task=1, seed=9, ranks=(2, 2))
    space = fz.append(fz.empty_space(spec), pruned, make_head(spec, 2, 0))
    res = make_pruned(spec, task=2, seed=8, ranks=(2, 2))
    res.u[0] = res.u[0][:-1]  # drop a row
    with pytest.raises(ShapeError):
        composed_values(fz.extract_subnetwork(space, 1)[0], res)


def test_compose_weights_graph_matches_dense_and_freezes_shared():
    spec = small_spec()
    pruned = make_pruned(spec, task=1, seed=10, ranks=(2, 3))
    space = fz.append(fz.empty_space(spec), pruned, make_head(spec, 2, 2))
    res = make_pruned(spec, task=2, seed=11, ranks=(3, 2))
    prefix = fz.extract_subnetwork(space, 1)[0]
    g = ad.Graph()
    composed = fz.compose_weights(g, prefix, residual=res)
    for node, w, r in zip(composed.weights, prefix, dense_oracle(res)):
        np.testing.assert_allclose(g.value(node), w + r, atol=1e-6)
    loss = g.frobenius_norm(composed.weights[0])
    grads = g.backward(loss)
    trainable = set(composed.u_leaves + composed.sigma_leaves + composed.v_leaves)
    assert set(grads).issubset(trainable)  # shared leaves excluded


def test_graph_forward_features_equal_forward_features():
    spec = fz.NetworkSpec.build((4, 5), in_channels=3, input_hw=(7, 7), stride=(1, 2))
    rng = np.random.default_rng(12)
    weights = [(rng.normal(size=(s.c, s.q)) * 0.3).astype(np.float32) for s in spec.layers]
    x = rng.normal(size=(6, 3, 7, 7)).astype(np.float32)  # batch-major input
    g = ad.Graph()
    feat_node = fz.graph_forward(g, [g.leaf(w) for w in weights], spec, g.leaf(x))
    feats = g.value(feat_node)
    expected = fz.forward_features(weights, spec, x)
    assert feats.shape == expected.shape == (6, spec.head_input_dim)
    assert feats.tobytes() == expected.tobytes()
    # tobytes is blind to strides, and the head gemm is not: served logits are
    # the training logits only over C-contiguous features
    assert expected.flags["C_CONTIGUOUS"]
    head = fz.TaskHead(weight=(rng.normal(size=(spec.head_input_dim, 3)) * 0.1).astype(np.float32),
                       bias=rng.normal(size=3).astype(np.float32))
    logits = g.value(g.linear(feat_node, g.leaf(head.weight), g.leaf(head.bias)))
    assert fz.run_network(weights, head, spec, x).tobytes() == logits.tobytes()


def test_serving_rejects_inputs_of_the_wrong_geometry():
    # strides (1, 2) map a 6x5 image to the same 3x3 features as the 6x6 one
    spec = fz.NetworkSpec.build((3, 3), in_channels=2, input_hw=(6, 6), stride=(1, 2))
    pruned, head = make_pruned(spec, 1, seed=17, ranks=(2, 2)), make_head(spec, 3, seed=18)
    space = fz.append(fz.empty_space(spec), pruned, head)
    dense = tr.DenseTaskModels(spec, weights=[dense_oracle(pruned)], heads=[head])
    assert fz.predict_logits(space, 1, np.zeros((4, 2, 6, 6), np.float32)).shape == (4, 3)
    assert dense.predict_logits(1, np.zeros((4, 2, 6, 6), np.float32)).shape == (4, 3)
    for shape in [(4, 2, 6, 5), (4, 3, 6, 6), (4, 2, 5, 6), (2, 6, 6), (4, 2, 6, 6, 1)]:
        x = np.zeros(shape, np.float32)
        with pytest.raises(ShapeError):
            fz.predict_logits(space, 1, x)
        with pytest.raises(ShapeError):
            dense.predict_logits(1, x)


# -- append / extract ---------------------------------------------------------------


def test_append_widths_and_rank_table():
    spec = small_spec()
    space = fz.empty_space(spec)
    space = fz.append(space, make_pruned(spec, 1, seed=12, ranks=(3, 3)), make_head(spec, 2, 3))
    assert [space.total_width(l) for l in range(2)] == [3, 3]
    space = fz.append(space, make_pruned(spec, 2, seed=13, ranks=(2, 2)), make_head(spec, 2, 4))
    assert space.rank_table[0] == (3, 5)
    assert space.rank_table[1] == (3, 5)
    assert space.num_tasks == 2


def test_append_rejects_unsorted_sigma():
    spec = small_spec()
    bad = make_pruned(spec, 1, seed=14, ranks=(2, 2))
    bad.sigma[0] = np.array([0.1, 0.9], dtype=np.float32)
    with pytest.raises(ValueError):
        fz.append(fz.empty_space(spec), bad, make_head(spec, 2, 5))


@pytest.mark.parametrize("part", ["u", "sigma", "v", "weight", "bias"])
def test_append_rejects_non_finite(part):
    spec = small_spec()
    pruned = make_pruned(spec, 1, seed=14, ranks=(2, 2))
    head = make_head(spec, 2, 5)
    array = getattr(head, part) if part in ("weight", "bias") else getattr(pruned, part)[1]
    array.flat[0] = np.nan
    with pytest.raises(NumericError):
        fz.append(fz.empty_space(spec), pruned, head)


def test_extract_range_checked():
    spec = small_spec()
    space = fz.append(fz.empty_space(spec), make_pruned(spec, 1, seed=15, ranks=(2, 2)),
                      make_head(spec, 2, 6))
    with pytest.raises(ValueError):
        fz.extract_subnetwork(space, 0)
    with pytest.raises(ValueError):
        fz.extract_subnetwork(space, 2)


def test_extract_first_task_equals_own_composition():
    spec = small_spec()
    pruned = make_pruned(spec, 1, seed=16, ranks=(3, 2))
    space = fz.append(fz.empty_space(spec), pruned, make_head(spec, 2, 7))
    weights, _ = fz.extract_subnetwork(space, 1)
    for a, b in zip(weights, dense_oracle(pruned)):
        np.testing.assert_allclose(a, b, atol=1e-7)


def test_extract_bitwise_stable_across_appends():
    spec = small_spec()
    space = fz.empty_space(spec)
    captured = {}
    rng_x = np.random.default_rng(0)
    x = rng_x.normal(size=(4, 2, 5, 5)).astype(np.float32)
    logits = {}
    for t in (1, 2, 3):
        space = fz.append(space, make_pruned(spec, t, seed=20 + t, ranks=(2, 2)),
                          make_head(spec, 3, 30 + t))
        captured[t] = [w.copy() for w in fz.extract_subnetwork(space, t)[0]]
        logits[t] = fz.predict_logits(space, t, x).copy()
    for t in (1, 2, 3):
        weights, _ = fz.extract_subnetwork(space, t)
        for now, then in zip(weights, captured[t]):
            np.testing.assert_array_equal(now, then)
        np.testing.assert_array_equal(fz.predict_logits(space, t, x), logits[t])


def test_extract_isolated_segments():
    spec = small_spec()
    space = fz.empty_space(spec, isolated=True)
    first = make_pruned(spec, 1, seed=24, ranks=(2, 2))
    second = make_pruned(spec, 2, seed=25, ranks=(3, 3))
    space = fz.append(space, first, make_head(spec, 2, 8))
    space = fz.append(space, second, make_head(spec, 2, 9))
    weights, _ = fz.extract_subnetwork(space, 2)
    for a, b in zip(weights, dense_oracle(second)):
        np.testing.assert_allclose(a, b, atol=1e-7)


# -- sizes -----------------------------------------------------------------------


def test_param_count_empty_space_heads_only():
    spec = small_spec()
    assert fz.param_count(fz.empty_space(spec)) == 0


def test_param_count_arithmetic():
    spec = fz.NetworkSpec.build((2,), in_channels=1, input_hw=(1, 3), kernel=1, padding=0)
    assert (spec.layers[0].c, spec.layers[0].q) == (2, 1)
    # hand-build a width-1 space with a known head
    f = fz.TaskFactors(
        task=1,
        u=[np.ones((2, 1), np.float32)],
        sigma=[np.ones(1, np.float32)],
        v=[np.ones((1, 1), np.float32)],
    )
    head = fz.TaskHead(weight=np.zeros((spec.head_input_dim, 2), np.float32),
                       bias=np.zeros(2, np.float32))
    space = fz.append(fz.empty_space(spec), f, head)
    expected = (2 + 1 + 1) * 1 + head.param_count
    assert fz.param_count(space) == expected
    assert fz.size_bytes(space) == 4 * expected


def test_param_count_conv_layer_value():
    spec = small_spec()
    shape = fz.LayerShape(c=64, n=64, h=3, w=3)
    assert (shape.c + shape.q + 1) * 57 == 36537
