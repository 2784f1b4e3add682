import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl import autodiff as ad
from factorcl import regularizers as reg
from factorcl.errors import NumericError
from factorcl.factorized import TaskFactors
from factorcl.linalg import random_orthonormal


def factors_from(u_list, s_list, v_list):
    return TaskFactors(
        task=1,
        u=[np.asarray(u, np.float32) for u in u_list],
        sigma=[np.asarray(s, np.float32) for s in s_list],
        v=[np.asarray(v, np.float32) for v in v_list],
    )


# -- orthogonality ------------------------------------------------------------


def test_l_orth_zero_for_orthonormal():
    u = random_orthonormal(6, 3, seed=0)
    v = random_orthonormal(9, 3, seed=1)
    f = factors_from([u], [np.ones(3)], [v])
    assert reg.l_orth(f) < 1e-5


def test_l_orth_hand_value():
    # U = 2 I2, V = I2: (1/4)(||3 I2||_F + 0) = 3 sqrt(2) / 4
    f = factors_from([2 * np.eye(2)], [np.ones(2)], [np.eye(2)])
    assert abs(reg.l_orth(f) - 3 * math.sqrt(2) / 4) < 1e-6


def test_l_orth_rotation_invariant():
    rng = np.random.default_rng(2)
    u = rng.normal(size=(7, 4)).astype(np.float32)
    v = rng.normal(size=(9, 4)).astype(np.float32)
    q = random_orthonormal(4, 4, seed=3).astype(np.float32)
    base = reg.l_orth(factors_from([u], [np.ones(4)], [v]))
    rotated = reg.l_orth(factors_from([u @ q], [np.ones(4)], [v @ q]))
    assert abs(base - rotated) < 1e-4 * max(1.0, base)


def test_l_orth_nonnegative_and_layer_additive():
    rng = np.random.default_rng(4)
    u1, v1 = rng.normal(size=(5, 2)), rng.normal(size=(6, 2))
    u2, v2 = rng.normal(size=(4, 3)), rng.normal(size=(8, 3))
    single1 = reg.l_orth(factors_from([u1], [np.ones(2)], [v1]))
    single2 = reg.l_orth(factors_from([u2], [np.ones(3)], [v2]))
    both = reg.l_orth(factors_from([u1, u2], [np.ones(2), np.ones(3)], [v1, v2]))
    assert single1 >= 0 and single2 >= 0
    assert abs(both - (single1 + single2)) < 1e-6


# -- sparsity -----------------------------------------------------------------


def test_l_sparse_one_hot():
    f = factors_from([np.eye(4)], [[1, 0, 0, 0]], [np.eye(4)])
    assert abs(reg.l_sparse(f) - 1.0) < 1e-7


def test_l_sparse_uniform():
    f = factors_from([np.eye(4)], [[1, 1, 1, 1]], [np.eye(4)])
    assert abs(reg.l_sparse(f) - 2.0) < 1e-7


def test_l_sparse_hand_value():
    f = factors_from([np.eye(2)], [[3, 4]], [np.eye(2)])
    assert abs(reg.l_sparse(f) - 1.4) < 1e-7


def test_l_sparse_zero_layer_raises_unguarded():
    f = factors_from([np.eye(2)], [[0, 0]], [np.eye(2)])
    with pytest.raises(NumericError):
        reg.l_sparse(f)


def test_l_sparse_uses_magnitudes():
    pos = factors_from([np.eye(2)], [[3, 4]], [np.eye(2)])
    mixed = factors_from([np.eye(2)], [[-3, 4]], [np.eye(2)])
    assert abs(reg.l_sparse(pos) - reg.l_sparse(mixed)) < 1e-7


@given(
    r=st.integers(2, 8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_l_sparse_bounds(r, seed):
    rng = np.random.default_rng(seed)
    s = rng.random(r) + 0.05
    f = factors_from([np.eye(r)], [s], [np.eye(r)])
    ratio = reg.l_sparse(f)
    assert 1.0 - 1e-6 <= ratio <= math.sqrt(r) + 1e-6


def test_l_sparse_concentration_decreases_ratio():
    # move mass from b to a at constant L2 norm
    a, b, delta = 3.0, 4.0, 2.0
    before = factors_from([np.eye(2)], [[b, a]], [np.eye(2)])
    after_s = [math.sqrt(b * b + delta), math.sqrt(a * a - delta)]
    after = factors_from([np.eye(2)], [after_s], [np.eye(2)])
    assert reg.l_sparse(after) < reg.l_sparse(before)


# -- graph builders ----------------------------------------------------------------


def leaves_for(g, u, s, v):
    uid = g.leaf(np.asarray(u, np.float32), trainable=True, name="u")
    sid = g.leaf(np.asarray(s, np.float32), trainable=True, name="sigma")
    vid = g.leaf(np.asarray(v, np.float32), trainable=True, name="v")
    return uid, sid, vid


def test_graph_values_match_eager():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(6, 3))
    v = rng.normal(size=(7, 3))
    s = rng.random(3) + 0.2
    f = factors_from([u], [s], [v])
    g = ad.Graph()
    uid, sid, vid = leaves_for(g, u, s, v)
    orth = reg.l_orth_graph(g, [uid], [vid])
    sparse = reg.l_sparse_graph(g, [sid])
    assert abs(float(g.value(orth)) - reg.l_orth(f)) < 1e-4
    assert abs(float(g.value(sparse)) - reg.l_sparse(f)) < 1e-5


def test_gradient_group_separation():
    rng = np.random.default_rng(6)
    g = ad.Graph()
    uid, sid, vid = leaves_for(
        g, rng.normal(size=(5, 3)), rng.random(3) + 0.3, rng.normal(size=(6, 3))
    )
    orth = reg.l_orth_graph(g, [uid], [vid])
    sparse = reg.l_sparse_graph(g, [sid])
    orth_grads = g.backward(orth)
    sparse_grads = g.backward(sparse)
    assert set(orth_grads) == {uid, vid}
    assert set(sparse_grads) == {sid}


def test_grad_check_orth_subgraph():
    rng = np.random.default_rng(7)
    g = ad.Graph()
    uid, _, vid = leaves_for(
        g, rng.normal(size=(5, 3)), rng.random(3) + 0.3, rng.normal(size=(6, 3))
    )
    report = ad.grad_check(g, reg.l_orth_graph(g, [uid], [vid]), max_entries=12)
    assert report.passed, str(report)


def test_grad_check_sparse_subgraph():
    rng = np.random.default_rng(8)
    g = ad.Graph()
    _, sid, _ = leaves_for(
        g, rng.normal(size=(5, 3)), rng.random(3) + 0.5, rng.normal(size=(6, 3))
    )
    report = ad.grad_check(g, reg.l_sparse_graph(g, [sid]))
    assert report.passed, str(report)
