import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shapelift import linalg, subspace
from shapelift import mapping as mp
from shapelift.errors import InvalidInputError
from shapelift.mapping import TrainSchedule

# Hand-derived singular values of [[1, 1], [0, 1]]: the eigenvalues of
# M^T M = [[1, 1], [1, 2]] solve l^2 - 3l + 1 = 0, so l = (3 +- sqrt(5))/2.
SIGMA_HAND = (math.sqrt((3 + math.sqrt(5)) / 2), math.sqrt((3 - math.sqrt(5)) / 2))


def random_matrix(seed, m, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((m, n))


class TestColumns:
    def test_vector_is_one_column_view(self):
        v = np.arange(3.0)
        m, was_vector = linalg._columns(v, 3, "v")
        assert was_vector and m.shape == (3, 1) and np.shares_memory(m, v)

    def test_matrix_is_taken_as_is(self):
        a = np.ones((2, 5))
        m, was_vector = linalg._columns(a, None, "a")
        assert not was_vector and m is a

    @pytest.mark.parametrize("x", [5.0, np.zeros((3, 2, 2)), np.zeros(4), np.zeros((4, 2))])
    def test_rejects_scalar_3d_and_wrong_length(self, x):
        with pytest.raises(InvalidInputError, match=r"x must be a vector or a \(3, n\) matrix"):
            linalg._columns(x, 3, "x")


class TestFiniteRule:
    """``_as_matrix``'s check is ``_fileio._finite``: one sum, and a full
    pass only when that sum is not finite."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
    def test_every_matrix_entry_point_rejects(self, bad):
        m = random_matrix(7, 5, 4)
        m[3, 2] = bad
        calls = [lambda: subspace.fit_subspace(m, 2),
                 lambda: linalg.least_squares(m, m[:2]),
                 lambda: linalg.least_squares(m[:2], m),
                 lambda: mp.mlp_train((5, 3, 2), (m, m[:2]), TrainSchedule(((0.1, 1),))),
                 lambda: mp.mlp_train((2, 3, 5), (m[:2], m), TrainSchedule(((0.1, 1),)))]
        for call in calls:
            with pytest.raises(InvalidInputError, match="contains non-finite entries"):
                call()

    def test_finite_matrix_whose_sum_overflows_is_accepted(self):
        # pytest turns warnings into errors, so the overflow must stay silent.
        m = np.full((3, 4), 1e308)
        with np.errstate(over="ignore"):
            assert np.isinf(m.sum())
        assert linalg._as_matrix(m) is m
        result = mp.mlp_train((3, 2, 3), (m, -m), TrainSchedule(((0.1, 0),)))
        assert result.loss_history.size == 0

    def test_check_builds_no_boolean_array(self, traced_peak):
        m = random_matrix(8, 1000, 500)  # its boolean mask would be 500 kB
        got, peak = traced_peak(lambda: linalg._as_matrix(m))
        assert got is m and peak < 64 * 1024


class TestSvd:
    def test_rank_is_the_number_of_singular_values(self):
        res = linalg.SvdResult(u=np.eye(3)[:, :2], sigma=np.array([2.0, 1.0]), v=np.eye(2))
        assert res.rank == 2

    def test_identity(self):
        res = linalg.svd(np.eye(3))
        np.testing.assert_allclose(res.sigma, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(res.u @ res.v.T, np.eye(3), atol=1e-12)

    def test_diagonal_with_zero_row(self):
        res = linalg.svd(np.diag([3.0, 0.0, 1.0]))
        assert res.rank == 2
        np.testing.assert_allclose(res.sigma, [3.0, 1.0])

    def test_hand_derived_singular_values(self):
        res = linalg.svd([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(res.sigma, SIGMA_HAND, rtol=1e-12)

    def test_zero_matrix_has_rank_zero(self):
        res = linalg.svd(np.zeros((3, 4)))
        assert res.rank == 0
        assert res.u.shape == (3, 0)
        assert res.v.shape == (4, 0)

    def test_sign_convention(self):
        res = linalg.svd(random_matrix(5, 7, 4))
        for j in range(res.rank):
            lead = np.argmax(np.abs(res.u[:, j]))
            assert res.u[lead, j] >= 0.0

    def test_bit_stable_across_calls(self):
        m = random_matrix(11, 9, 6)
        a = linalg.svd(m)
        b = linalg.svd(m)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.v, b.v)

    @given(st.integers(0, 10**9), st.integers(1, 20), st.integers(1, 20))
    def test_reconstruction_and_orthonormality(self, seed, m, n):
        mat = random_matrix(seed, m, n)
        res = linalg.svd(mat)
        recon = res.u @ np.diag(res.sigma) @ res.v.T
        denom = max(np.linalg.norm(mat), 1e-30)
        assert np.linalg.norm(recon - mat) / denom <= 1e-10
        eye = np.eye(res.rank)
        assert np.abs(res.u.T @ res.u - eye).max() <= 1e-10
        assert np.abs(res.v.T @ res.v - eye).max() <= 1e-10
        assert np.all(np.diff(res.sigma) <= 0.0)
        assert np.all(res.sigma >= 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            linalg.svd([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            linalg.svd([[np.inf]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            linalg.svd(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            linalg.svd([1.0, 2.0])


def centered_pool(seed, dim, n):
    x = random_matrix(seed, dim, n)
    return x - x.mean(axis=1)[:, None]


def assert_matches_svd(res, oracle, k):
    """leading_svd result against svd cut to k: sigma, factors, projector."""
    r = min(k, oracle.rank)
    assert res.rank == r
    scale = oracle.sigma[0]
    assert np.abs(res.sigma - oracle.sigma[:r]).max() <= 1e-12 * scale
    np.testing.assert_allclose(res.u, oracle.u[:, :r], atol=1e-10)
    np.testing.assert_allclose(res.v, oracle.v[:, :r], atol=1e-10)
    np.testing.assert_allclose(res.u @ res.u.T, oracle.u[:, :r] @ oracle.u[:, :r].T,
                               atol=1e-12)
    eye = np.eye(r)
    assert np.abs(res.u.T @ res.u - eye).max() <= 1e-10
    assert np.abs(res.v.T @ res.v - eye).max() <= 1e-10


class TestLeadingSvd:
    def test_tall_centered_pool_drops_null_direction(self):
        pool = centered_pool(40, 60, 15)
        res = linalg.leading_svd(pool, 15)
        assert_matches_svd(res, linalg.svd(pool), 15)
        assert res.rank == 14

    def test_wide_pool(self):
        pool = centered_pool(41, 20, 70)
        assert_matches_svd(linalg.leading_svd(pool, 8), linalg.svd(pool), 8)

    def test_square_pool_every_column(self):
        pool = random_matrix(42, 12, 12)
        assert_matches_svd(linalg.leading_svd(pool, 12), linalg.svd(pool), 12)

    def test_identical_samples_give_rank_zero(self):
        pool = np.tile(np.arange(6.0)[:, None], (1, 5))
        res = linalg.leading_svd(pool - pool.mean(axis=1)[:, None], 3)
        assert res.rank == 0
        assert res.u.shape == (6, 0)
        assert res.sigma.shape == (0,)
        assert res.v.shape == (5, 0)

    def test_bit_stable_across_calls(self):
        pool = centered_pool(43, 30, 9)
        a = linalg.leading_svd(pool, 6)
        b = linalg.leading_svd(pool, 6)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.v, b.v)

    def test_leading_columns_do_not_depend_on_k(self):
        pool = centered_pool(45, 150, 130)
        full = linalg.leading_svd(pool, 130)
        for k in (1, 2, 63, 64, 65, 129):
            part = linalg.leading_svd(pool, k)
            assert np.array_equal(part.u, full.u[:, :k])
            assert np.array_equal(part.sigma, full.sigma[:k])
            assert np.array_equal(part.v, full.v[:, :k])

    def test_small_kept_sigma_falls_back_to_svd(self, monkeypatch):
        # sigma descends from 1 to 1e-6: the Gram route cannot resolve the
        # smallest kept value, so the result must be svd's, bit for bit.
        rng = np.random.default_rng(44)
        q_left, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        q_right, _ = np.linalg.qr(rng.standard_normal((25, 6)))
        pool = q_left @ np.diag(np.logspace(0, -6, 6)) @ q_right.T
        oracle = linalg.svd(pool)
        calls = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda m: calls.append(1) or svd(m))
        res = linalg.leading_svd(pool, 6)
        assert calls == [1]
        assert res.rank == 6
        assert res.sigma[-1] < 1e-5 * res.sigma[0]
        assert np.array_equal(res.u, oracle.u)
        assert np.array_equal(res.sigma, oracle.sigma)
        assert np.array_equal(res.v, oracle.v)

    def test_rejects_k_outside_range(self):
        with pytest.raises(InvalidInputError):
            linalg.leading_svd(np.ones((3, 5)), 0)
        with pytest.raises(InvalidInputError):
            linalg.leading_svd(np.ones((3, 5)), 4)
        with pytest.raises(InvalidInputError):
            linalg.leading_svd([[np.nan, 1.0]], 1)


def pin_signs_whole(u, v):
    """`_pin_signs` as one pass over the whole of ``|u|``."""
    if u.shape[1]:
        lead = np.argmax(np.abs(u), axis=0)
        signs = np.where(u[lead, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
        u *= signs
        v *= signs


def leading_svd_whole(a, k):
    """The Gram route of `leading_svd` with whole-array passes: a buffer of
    whole Ritz blocks, one norm over it and `pin_signs_whole`."""
    wide = a.shape[0] <= a.shape[1]
    _, vecs = np.linalg.eigh(a @ a.T if wide else a.T @ a)
    lead = vecs.T[::-1]
    other = a if wide else a.T
    block = linalg._RITZ_BLOCK
    stop = min(lead.shape[0], -(-k // block) * block)
    mapped = np.empty((stop, other.shape[1]))
    for i in range(0, stop, block):
        np.matmul(lead[i:i + block], other, out=mapped[i:i + block])
    sigma = np.linalg.norm(mapped[:k], axis=1)
    rank = int(np.count_nonzero(sigma > linalg.RANK_RTOL * sigma[0]))
    mapped = mapped[:rank] / sigma[:rank, None]
    u, v = (lead[:rank].T, mapped.T) if wide else (mapped.T, lead[:rank].T)
    pin_signs_whole(u, v)
    return u, sigma[:rank], v


class TestBlockedPasses:
    @pytest.mark.parametrize("shape", [(700, 300), (300, 700)], ids=["tall", "wide"])
    @pytest.mark.parametrize("k", [63, 64, 65, 299])
    def test_leading_svd_matches_whole_array_passes(self, shape, k):
        a = centered_pool(60, *shape)
        res = linalg.leading_svd(a, k)
        u, sigma, v = leading_svd_whole(a, k)
        assert res.rank == len(sigma) == min(k, 299)
        assert np.array_equal(res.sigma, sigma)
        assert np.array_equal(res.u, u)
        assert np.array_equal(res.v, v)

    @pytest.mark.parametrize("shape", [(500, 63), (500, 64), (500, 65), (500, 299),
                                       (65, 130)])
    def test_pin_signs_matches_whole_array_pass(self, shape):
        rng = np.random.default_rng(shape[1])
        # Small integers make ties in |u| common: the first one must win.
        for u in (rng.standard_normal(shape), rng.integers(-3, 4, shape).astype(float)):
            v = rng.standard_normal((40, shape[1]))
            u_whole, v_whole = u.copy(), v.copy()
            linalg._pin_signs(u, v)
            pin_signs_whole(u_whole, v_whole)
            assert np.array_equal(u, u_whole)
            assert np.array_equal(v, v_whole)


class TestLeastSquares:
    def test_invertible_square(self):
        x = linalg.least_squares(np.eye(3), 2.0 * np.eye(3))
        np.testing.assert_allclose(x, 2.0 * np.eye(3), atol=1e-12)

    def test_exact_1d_scaling(self):
        x = linalg.least_squares([[1.0, 2.0, 3.0]], [[2.0, 4.0, 6.0]])
        np.testing.assert_allclose(x, [[2.0]], atol=1e-12)

    def test_rank_deficient_minimum_norm(self):
        # a+ computed by hand: a = [[1,1],[0,0]] has sigma = sqrt(2),
        # u = e1, v = (1,1)/sqrt(2), so a+ = [[0.5, 0], [0.5, 0]] and
        # X = b a+ = [[1, 0], [1, 0]].
        x = linalg.least_squares([[1.0, 1.0], [0.0, 0.0]], np.ones((2, 2)))
        np.testing.assert_allclose(x, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            linalg.least_squares(np.ones((2, 3)), np.ones((2, 4)))

    @given(st.integers(0, 10**9))
    def test_residual_beats_random_perturbations(self, seed):
        rng = np.random.default_rng(seed)
        k, kp, n = rng.integers(1, 6, size=3)
        a = rng.standard_normal((k, n))
        b = rng.standard_normal((kp, n))
        x = linalg.least_squares(a, b)
        base = np.linalg.norm(b - x @ a)
        for _ in range(100):
            delta = rng.standard_normal(x.shape)
            assert base <= np.linalg.norm(b - (x + 1e-3 * delta) @ a) + 1e-12

    @given(st.integers(0, 10**9))
    def test_minimum_norm_solution(self, seed):
        # Rows of the solution lie in the row space of a: any component in
        # the null space would grow ||X||_F without changing the residual.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 6))
        a[3] = a[0] + a[1]  # force rank deficiency
        b = rng.standard_normal((2, 6))
        x = linalg.least_squares(a, b)
        null_proj = np.eye(4) - a @ linalg._pseudo_inverse(a)
        assert np.abs(x @ null_proj).max() <= 1e-10


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(linalg._pseudo_inverse(np.eye(3)), np.eye(3),
                                   atol=1e-12)

    def test_zero_singular_value_maps_to_zero(self):
        got = linalg._pseudo_inverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-12)

    def test_hand_computed_column(self):
        # A = [[1], [1]]: A+ = (A^T A)^-1 A^T = (1/2) [1, 1].
        got = linalg._pseudo_inverse([[1.0], [1.0]])
        np.testing.assert_allclose(got, [[0.5, 0.5]], atol=1e-12)

    @given(st.integers(0, 10**9), st.integers(1, 12), st.integers(1, 12))
    def test_penrose_conditions(self, seed, m, n):
        a = random_matrix(seed, m, n)
        p = linalg._pseudo_inverse(a)
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(a @ p @ a - a) / scale <= 1e-8
        pscale = max(np.linalg.norm(p), 1.0)
        assert np.linalg.norm(p @ a @ p - p) / pscale <= 1e-8
        ap = a @ p
        pa = p @ a
        assert np.linalg.norm(ap - ap.T) <= 1e-8 * max(np.linalg.norm(ap), 1.0)
        assert np.linalg.norm(pa - pa.T) <= 1e-8 * max(np.linalg.norm(pa), 1.0)

    def test_propagates_invalid_input(self):
        with pytest.raises(InvalidInputError):
            linalg._pseudo_inverse([[np.nan]])
