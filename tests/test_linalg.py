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


def _largest_entries_non_negative(factor: np.ndarray) -> bool:
    """Whether the largest-magnitude entry of every column of ``factor`` is >= 0."""
    return bool(np.all(factor[np.abs(factor).argmax(axis=0), np.arange(factor.shape[1])] >= 0))


@pytest.mark.parametrize("shape, signed", [((18, 8), "u"), ((8, 8), "u"), ((8, 18), "v")],
                         ids=["tall", "square", "wide"])
def test_svd_sign_convention_is_on_the_factor_of_the_longer_side(shape, signed):
    other = {"u": "v", "v": "u"}[signed]
    unsigned = 0
    for seed in range(40):
        f = la.svd(random_matrix(*shape, seed=seed))
        assert _largest_entries_non_negative(getattr(f, signed)), seed
        unsigned += not _largest_entries_non_negative(getattr(f, other))
    if shape[0] != shape[1]:  # the other factor's signs follow, so they are not pinned
        assert unsigned > 0


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


def test_svd_sigma_matches_lapack_oracle():
    # criterion 2's shapes and degenerate cases; np.linalg.svd is a
    # test-only oracle for the spectrum, which no other check pins
    rng = np.random.default_rng(2)
    shapes = [(1, 1), (1, 600), (64, 1), (5, 3), (16, 72), (64, 600), (40, 9)]
    for case in ("plain", "rank_deficient", "half_zero"):
        for rows, cols in shapes:
            m = (rng.normal(size=(rows, cols)) * rng.uniform(0.1, 10.0)).astype(np.float32)
            if case == "rank_deficient" and rows > 2:
                m[rows // 2:] = m[: rows - rows // 2]
            if case == "half_zero":
                m[:, : cols // 2] = 0.0
            oracle = np.linalg.svd(m.astype(np.float64), compute_uv=False)
            sigma = la.svd(m).sigma.astype(np.float64)
            assert np.abs(sigma - oracle).max() <= 1e-5 * oracle[0], (case, rows, cols)


@pytest.mark.parametrize("m", [
    np.diag([3.0, 2.0, 1.0]),
    np.diag([2.0, 2.0, 0.5, 2.0]),
    np.array([[0.0, 0.7, 0.0], [0.0, 0.0, 2.5], [1.3, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    np.array([[0.0, 1.5, 0.0], [0.0, 0.0, 1.5], [1.5, 0.0, 0.0]]).T,
])
def test_svd_of_orthogonal_columns_is_their_norms_bitwise(m):
    # every pair starts converged, so no rotation may touch a column
    m = m.astype(np.float32)
    norms = np.sqrt((m.astype(np.float64) ** 2).sum(axis=0)).astype(np.float32)
    np.testing.assert_array_equal(la.svd(m).sigma, np.sort(norms)[::-1])


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
