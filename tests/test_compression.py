import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl import compression as cp
from factorcl import linalg as la
from factorcl.factorized import TaskFactors


def single_layer(u, s, v, task=1):
    return TaskFactors(
        task=task,
        u=[np.asarray(u, np.float32)],
        sigma=[np.asarray(s, np.float32)],
        v=[np.asarray(v, np.float32)],
    )


def reconstruct(f: TaskFactors, layer=0) -> np.ndarray:
    return (f.u[layer].astype(np.float64) * f.sigma[layer].astype(np.float64)) @ f.v[
        layer
    ].T.astype(np.float64)


def brute_force_topk(sigma, e):
    """Independent oracle: scan every k, pick the minimal one meeting the ratio."""
    energy = np.asarray(sigma, dtype=np.float64) ** 2
    total = energy.sum()
    if total == 0.0:
        return 1
    for k in range(1, len(sigma) + 1):
        if energy[:k].sum() / total >= 1.0 - e:
            return k
    return len(sigma)


# -- sorting ---------------------------------------------------------------------


def test_sort_permutes_columns_jointly():
    u = np.array([[1, 2, 3], [4, 5, 6]], np.float32)
    v = np.array([[7, 8, 9], [10, 11, 12], [13, 14, 15]], np.float32)
    f = cp.sort_by_magnitude(single_layer(u, [1.0, 3.0, 2.0], v))
    np.testing.assert_array_equal(f.sigma[0], [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(f.u[0], [[2, 3, 1], [5, 6, 4]])
    np.testing.assert_array_equal(f.v[0], [[8, 9, 7], [11, 12, 10], [14, 15, 13]])


def test_sort_folds_negative_sign_into_u():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(4, 2)).astype(np.float32)
    v = rng.normal(size=(3, 2)).astype(np.float32)
    before = single_layer(u, [-4.0, 1.0], v)
    f = cp.sort_by_magnitude(before)
    np.testing.assert_array_equal(f.sigma[0], [4.0, 1.0])
    np.testing.assert_array_equal(f.u[0][:, 0], -u[:, 0])
    np.testing.assert_array_equal(f.v[0], v)
    np.testing.assert_allclose(reconstruct(f), reconstruct(before), atol=1e-6)


def test_sort_already_sorted_is_identity():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(4, 3)).astype(np.float32)
    v = rng.normal(size=(5, 3)).astype(np.float32)
    f = cp.sort_by_magnitude(single_layer(u, [3.0, 2.0, 1.0], v))
    np.testing.assert_array_equal(f.u[0], u)
    np.testing.assert_array_equal(f.v[0], v)


def test_sort_stable_on_ties():
    u = np.array([[1.0, 2.0, 3.0]], np.float32)
    v = np.array([[1.0, 2.0, 3.0]], np.float32)
    f = cp.sort_by_magnitude(single_layer(u, [2.0, 5.0, 2.0], v))
    # tied 2.0s keep original relative order (columns 0 then 2)
    np.testing.assert_array_equal(f.u[0], [[2.0, 1.0, 3.0]])


# -- energy pruning -----------------------------------------------------------------


def test_prune_trace_four_values():
    k = cp.retained_rank(np.array([3, 2, 1, 0.001], np.float32), cp.PruneConfig(1e-5))
    assert k == 3


def test_prune_trace_exact_rank_one():
    k = cp.retained_rank(np.array([5, 0, 0], np.float32), cp.PruneConfig(1e-5))
    assert k == 1


def test_prune_trace_aggressive():
    k = cp.retained_rank(np.array([2, 1], np.float32), cp.PruneConfig(0.5))
    assert k == 1


def test_prune_e_zero_keeps_all_strictly_positive():
    s = np.array([4, 3, 2, 1], np.float32)
    assert cp.retained_rank(s, cp.PruneConfig(0.0)) == 4


def test_prune_e_zero_drops_exact_zeros():
    s = np.array([4, 3, 0, 0], np.float32)
    assert cp.retained_rank(s, cp.PruneConfig(0.0)) == 2


def test_prune_all_zero_retains_min_rank():
    s = np.zeros(5, np.float32)
    assert cp.retained_rank(s, cp.PruneConfig(1e-5)) == 1


def test_prune_rejects_unsorted():
    with pytest.raises(ValueError):
        cp.retained_rank(np.array([1, 2], np.float32), cp.PruneConfig(0.1))
    with pytest.raises(ValueError):
        cp.retained_rank(np.array([2, -1], np.float32), cp.PruneConfig(0.1))


def test_prune_config_validation():
    with pytest.raises(ValueError):
        cp.PruneConfig(energy_e=1.0)
    with pytest.raises(ValueError):
        cp.PruneConfig(energy_e=-0.1)


@given(
    r=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    e=st.sampled_from([0.0, 1e-5, 0.05, 0.5]),
)
@settings(max_examples=60, deadline=None)
def test_prune_matches_brute_force_oracle(r, seed, e):
    rng = np.random.default_rng(seed)
    s = np.sort(rng.random(r).astype(np.float32))[::-1].copy()
    if seed % 3 == 0 and r > 1:
        s[-(r // 2):] = 0.0  # exercise zero tails
    k = cp.retained_rank(s, cp.PruneConfig(e))
    assert k == brute_force_topk(s, e)


@given(r=st.integers(2, 10), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_prune_monotone_in_e(r, seed):
    rng = np.random.default_rng(seed)
    s = np.sort(rng.random(r).astype(np.float32))[::-1].copy()
    ks = [cp.retained_rank(s, cp.PruneConfig(e)) for e in (0.0, 1e-5, 0.01, 0.3, 0.9)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


@given(r=st.integers(2, 10), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_prune_minimality_and_retained_energy(r, seed):
    rng = np.random.default_rng(seed)
    s = np.sort((rng.random(r) + 0.01).astype(np.float32))[::-1].copy()
    e = 0.05
    k = cp.retained_rank(s, cp.PruneConfig(e))
    energy = s.astype(np.float64) ** 2
    total = energy.sum()
    assert energy[:k].sum() >= (1.0 - e) * total
    if k > 1:
        assert energy[: k - 1].sum() < (1.0 - e) * total


# -- compress ------------------------------------------------------------------------


def svd_factors_as_task(m, task=1):
    f = la.svd(m)
    return single_layer(f.u, f.sigma, f.v, task=task), f


def test_compress_never_increases_rank():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 5)).astype(np.float32)
    f, _ = svd_factors_as_task(m)
    out = cp.compress(f, cp.PruneConfig(0.05))
    assert out.ranks()[0] <= f.ranks()[0]


def test_compress_rank_one_layer():
    rng = np.random.default_rng(4)
    u = rng.normal(size=6)
    v = rng.normal(size=5)
    m = np.outer(u, v).astype(np.float32)
    f, _ = svd_factors_as_task(m)
    out = cp.compress(f, cp.PruneConfig(1e-5))
    assert out.ranks()[0] == 1


def test_compress_matches_rank_k_approx():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(7, 5)).astype(np.float32)
    f, svdf = svd_factors_as_task(m)
    out = cp.compress(f, cp.PruneConfig(0.2))
    k = out.ranks()[0]
    approx = la.rank_k_approx(svdf, k).astype(np.float64)
    np.testing.assert_allclose(reconstruct(out), approx, atol=1e-6)


def test_compress_error_identity_orthonormal_factors():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(8, 6)).astype(np.float32)
    f, svdf = svd_factors_as_task(m)
    out = cp.compress(f, cp.PruneConfig(0.1))
    k = out.ranks()[0]
    err = np.linalg.norm(reconstruct(f) - reconstruct(out)) ** 2
    energy = svdf.sigma.astype(np.float64) ** 2
    tail = float(energy[k:].sum())
    assert abs(err - tail) <= 1e-5 * max(float(energy.sum()), 1e-12)


def test_compress_storage_arithmetic():
    # rank 57 -> 5 shrinks a 64x576 layer's U/V/sigma storage proportionally
    before = 57 * (64 + 576 + 1)
    after = 5 * (64 + 576 + 1)
    assert before == 36537 and after == 3205


def test_cap_ranks_truncates():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(4, 3)).astype(np.float32)
    v = rng.normal(size=(5, 3)).astype(np.float32)
    f = single_layer(u, [3.0, 2.0, 1.0], v)
    capped = cp.cap_ranks(f, [2])
    assert capped.ranks() == (2,)
    np.testing.assert_array_equal(capped.u[0], u[:, :2])
    zero = cp.cap_ranks(f, [0])
    assert zero.ranks() == (0,)
