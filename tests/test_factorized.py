import numpy as np
import pytest

from factorcl import factorized as fz
from factorcl.errors import NumericError, ShapeError
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
    assert factorized <= shape.dense_params == 36864


def test_network_spec_channel_mismatch():
    with pytest.raises(ValueError):
        fz.NetworkSpec(
            layers=(fz.LayerShape(4, 2, 3, 3), fz.LayerShape(4, 8, 3, 3)),
            input_hw=(5, 5), head_input_dim=100,
            strides=(1, 1), paddings=(1, 1), dropout_rates=(0.0, 0.0),
        )


def test_network_spec_head_dim_checked():
    with pytest.raises(ValueError):
        fz.NetworkSpec(
            layers=(fz.LayerShape(4, 2, 3, 3),),
            input_hw=(5, 5), head_input_dim=7,
            strides=(1,), paddings=(1,), dropout_rates=(0.0,),
        )


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


def test_compose_empty_space_is_residual_only():
    spec = small_spec()
    space = fz.empty_space(spec)
    res = make_pruned(spec, task=1, seed=3, ranks=(2, 3))
    composed = fz.compose_dense(space, upto_t=0, residual=res)
    for l in range(2):
        direct = (res.u[l] * res.sigma[l]) @ res.v[l].T
        np.testing.assert_allclose(composed[l], direct, atol=1e-7)


def test_compose_zero_residual_is_shared_exactly():
    spec = small_spec()
    pruned = make_pruned(spec, task=1, seed=4, ranks=(2, 2))
    space = fz.append(fz.empty_space(spec), pruned, make_head(spec, 2, 0))
    res = make_pruned(spec, task=2, seed=5, ranks=(2, 2))
    for l in range(2):
        res.sigma[l][:] = 0.0
    composed = fz.compose_dense(space, upto_t=1, residual=res)
    shared_only = fz.compose_dense(space, upto_t=1, residual=None)
    for a, b in zip(composed, shared_only):
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
    composed = fz.compose_dense(space, upto_t=1, residual=res)
    np.testing.assert_allclose(composed[0], 5.0 * (u @ v.T), atol=1e-6)


def test_compose_linear_in_sigma():
    spec = small_spec()
    res = make_pruned(spec, task=1, seed=7, ranks=(3, 2))
    doubled = res.copy()
    for l in range(2):
        doubled.sigma[l] *= 2.0
    base = fz.compose_dense(None, 0, res)
    twice = fz.compose_dense(None, 0, doubled)
    for a, b in zip(base, twice):
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-6)


def test_compose_shape_mismatch():
    spec = small_spec()
    res = make_pruned(spec, task=1, seed=8, ranks=(2, 2))
    res.u[0] = res.u[0][:-1]  # drop a row
    with pytest.raises(ShapeError):
        fz.compose_dense(fz.empty_space(spec), 0, res)


def test_compose_weights_graph_matches_dense_and_freezes_shared():
    from factorcl import autodiff as ad

    spec = small_spec()
    pruned = make_pruned(spec, task=1, seed=10, ranks=(2, 3))
    space = fz.append(fz.empty_space(spec), pruned, make_head(spec, 2, 2))
    res = make_pruned(spec, task=2, seed=11, ranks=(3, 2))
    g = ad.Graph()
    composed = fz.compose_weights(g, space, upto_t=1, residual=res)
    dense = fz.compose_dense(space, upto_t=1, residual=res)
    for node, w in zip(composed.weights, dense):
        np.testing.assert_allclose(g.value(node), w, atol=1e-6)
    loss = g.frobenius_norm(composed.weights[0])
    grads = g.backward(loss)
    trainable = set(composed.u_leaves + composed.sigma_leaves + composed.v_leaves)
    assert set(grads).issubset(trainable)  # shared leaves excluded


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
    direct = fz.compose_dense(None, 0, pruned)
    for a, b in zip(weights, direct):
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
    direct = fz.compose_dense(None, 0, second)
    for a, b in zip(weights, direct):
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
