import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcl import linalg as la
from factorcl.errors import NumericError


def random_matrix(rows, cols, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(rows, cols)) * scale).astype(np.float32)


# -- svd ---------------------------------------------------------------------


def reconstruction_error(m, f):
    recon = (f.u.astype(np.float64) * f.sigma.astype(np.float64)) @ f.v.T.astype(np.float64)
    return np.abs(recon - m.astype(np.float64)).max()


def test_svd_diagonal():
    f = la.svd(np.diag([3.0, 2.0]).astype(np.float32))
    np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-6)
    # columns of U and V match identity up to sign; sign convention fixes them positive
    np.testing.assert_allclose(f.u, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(f.v, np.eye(2), atol=1e-6)


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(3)
    u = rng.normal(size=5)
    v = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    f = la.svd(np.outer(u, v).astype(np.float32))
    assert abs(f.sigma[0] - 1.0) < 1e-5
    assert f.sigma[1] < 1e-5 and f.sigma[2] < 1e-5


def test_svd_random_reconstruction():
    m = random_matrix(5, 3, seed=7)
    f = la.svd(m)
    assert reconstruction_error(m, f) <= 1e-4 * max(1.0, np.abs(m).max())


def test_svd_rank_is_min_dim():
    assert la.svd(random_matrix(4, 9, seed=1)).rank == 4
    assert la.svd(random_matrix(9, 4, seed=1)).rank == 4


def test_svd_rejects_non_finite():
    m = np.ones((2, 2), dtype=np.float32)
    m[0, 1] = np.nan
    with pytest.raises(NumericError):
        la.svd(m)


def test_svd_zero_matrix_stays_orthonormal():
    f = la.svd(np.zeros((4, 3), dtype=np.float32))
    np.testing.assert_allclose(f.sigma, 0.0)
    np.testing.assert_allclose(f.u.T @ f.u, np.eye(3), atol=1e-5)
    np.testing.assert_allclose(f.v.T @ f.v, np.eye(3), atol=1e-5)


@given(
    rows=st.integers(1, 8), cols=st.integers(1, 8),
    seed=st.integers(0, 2**16), log_scale=st.integers(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_svd_contract_random(rows, cols, seed, log_scale):
    m = random_matrix(rows, cols, seed=seed, scale=10.0 ** log_scale)
    f = la.svd(m)
    r = min(rows, cols)
    assert f.u.shape == (rows, r) and f.v.shape == (cols, r) and f.sigma.shape == (r,)
    assert np.all(f.sigma >= 0)
    assert np.all(np.diff(f.sigma) <= 0)
    assert np.abs(f.u.T @ f.u - np.eye(r)).max() <= 1e-5
    assert np.abs(f.v.T @ f.v - np.eye(r)).max() <= 1e-5
    assert reconstruction_error(m, f) <= 1e-4 * max(1.0, np.abs(m).max())


def test_svd_deterministic():
    m = random_matrix(6, 5, seed=11)
    f1, f2 = la.svd(m), la.svd(m)
    np.testing.assert_array_equal(f1.u, f2.u)
    np.testing.assert_array_equal(f1.sigma, f2.sigma)
    np.testing.assert_array_equal(f1.v, f2.v)


# -- rank-k approximation ------------------------------------------------------


def test_rank_k_full_rank_is_identity_on_reconstruction():
    f = la.svd(random_matrix(4, 4, seed=5))
    np.testing.assert_array_equal(la.rank_k_approx(f, 4), la.reconstruct(f))


def test_rank_k_hand_oracle():
    # A = diag(2, 1): best rank-1 keeps the 2, squared error is 1^2
    f = la.svd(np.diag([2.0, 1.0]).astype(np.float32))
    approx = la.rank_k_approx(f, 1)
    np.testing.assert_allclose(approx, [[2, 0], [0, 0]], atol=1e-6)
    err = np.linalg.norm(la.reconstruct(f).astype(np.float64) - approx.astype(np.float64)) ** 2
    assert abs(err - 1.0) < 1e-6


def test_rank_k_error_identity_random():
    f = la.svd(random_matrix(6, 4, seed=9))
    full = la.reconstruct(f).astype(np.float64)
    energy = f.sigma.astype(np.float64) ** 2
    for k in range(1, 5):
        err = np.linalg.norm(full - la.rank_k_approx(f, k).astype(np.float64)) ** 2
        tail = float(energy[k:].sum())
        assert abs(err - tail) <= 1e-6 * max(float(energy.sum()), 1e-12)


def test_rank_k_out_of_range():
    f = la.svd(random_matrix(3, 3, seed=2))
    with pytest.raises(ValueError):
        la.rank_k_approx(f, 0)
    with pytest.raises(ValueError):
        la.rank_k_approx(f, 4)


@given(rows=st.integers(2, 7), cols=st.integers(2, 7), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_rank_k_error_identity_property(rows, cols, seed):
    # mismatch is measured against the total energy: a near-empty tail is
    # dominated by float32 noise, and at k = r it is exactly zero
    f = la.svd(random_matrix(rows, cols, seed=seed))
    full = la.reconstruct(f).astype(np.float64)
    r = f.rank
    k = 1 + seed % r
    err = np.linalg.norm(full - la.rank_k_approx(f, k).astype(np.float64)) ** 2
    energy = f.sigma.astype(np.float64) ** 2
    tail = float(energy[k:].sum())
    assert abs(err - tail) <= 1e-6 * max(float(energy.sum()), 1e-12)


# -- random_orthonormal --------------------------------------------------------


def test_random_orthonormal_square():
    q = la.random_orthonormal(3, 3, seed=0)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-5)


def test_random_orthonormal_deterministic():
    np.testing.assert_array_equal(
        la.random_orthonormal(6, 4, seed=42), la.random_orthonormal(6, 4, seed=42)
    )
    assert not np.array_equal(
        la.random_orthonormal(6, 4, seed=42), la.random_orthonormal(6, 4, seed=43)
    )


def test_random_orthonormal_tall():
    q = la.random_orthonormal(5, 2, seed=1).astype(np.float64)
    assert abs(np.dot(q[:, 0], q[:, 0]) - 1.0) < 1e-5
    assert abs(np.dot(q[:, 1], q[:, 1]) - 1.0) < 1e-5
    assert abs(np.dot(q[:, 0], q[:, 1])) < 1e-5


def test_random_orthonormal_wide_rejected():
    with pytest.raises(ValueError):
        la.random_orthonormal(2, 5, seed=0)
