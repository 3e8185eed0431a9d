import inspect

import numpy as np
import pytest
import scipy.linalg

from retarget_kit import (
    FeatureMatrix,
    TrajectoryPair,
    accel_err,
    diversity,
    fid,
    mm_dist,
    mpjpe,
    multimodality,
    r_precision,
    retrieval_ranks,
    success_rate,
    top_k_share,
    vel_err,
)
from retarget_kit.errors import ValidationError


def gaussian_1d_sample(mu, sigma):
    """Two points with exact sample mean mu and exact ddof=1 variance sigma^2."""
    c = sigma / np.sqrt(2.0)
    return np.array([[mu - c], [mu + c]])


def fid_oracle(a, b):
    """Independent evaluator built on scipy's general matrix square root."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    d = a.shape[1]
    cov_a = np.cov(a, rowvar=False, ddof=1).reshape(d, d)
    cov_b = np.cov(b, rowvar=False, ddof=1).reshape(d, d)
    cross = scipy.linalg.sqrtm(cov_a @ cov_b)
    if np.iscomplexobj(cross):
        cross = cross.real
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(cov_a + cov_b - 2.0 * cross))


class TestTracking:
    def test_mpjpe_zero_on_identical(self, rng):
        q = rng.normal(size=(10, 6))
        assert mpjpe(TrajectoryPair(q, q.copy(), 30.0)) == 0.0

    def test_mpjpe_constant_offset(self):
        q = np.zeros((5, 3))
        assert mpjpe(TrajectoryPair(q, q + 0.2, 30.0)) == pytest.approx(0.2)

    def test_vel_err_matches_gradient_oracle(self, rng):
        fps = 30.0
        ref = rng.normal(size=(20, 4))
        ex = rng.normal(size=(20, 4))
        pair = TrajectoryPair(ref, ex, fps)
        oracle = np.mean(
            np.abs(np.gradient(ex, 1.0 / fps, axis=0) - np.gradient(ref, 1.0 / fps, axis=0))
        )
        assert vel_err(pair) == pytest.approx(oracle, abs=1e-12)

    def test_vel_err_linear_ramp(self):
        # executed ramps at 1 rad/s faster than the (constant) reference
        fps = 10.0
        t = np.arange(12) / fps
        ref = np.zeros((12, 1))
        ex = t[:, None]
        assert vel_err(TrajectoryPair(ref, ex, fps)) == pytest.approx(1.0, abs=1e-9)

    def test_accel_err_quadratic(self):
        fps = 20.0
        t = np.arange(30) / fps
        ref = np.zeros((30, 1))
        ex = 0.5 * 3.0 * t[:, None] ** 2  # constant 3 rad/s^2
        # boundary one-sided stencils are first-order; check interior value
        pair = TrajectoryPair(ref, ex, fps)
        assert accel_err(pair) == pytest.approx(3.0, rel=0.15)

    def test_short_trajectories_raise(self):
        one = TrajectoryPair(np.zeros((1, 2)), np.zeros((1, 2)), 30.0)
        with pytest.raises(ValidationError, match="velocity error needs at least 2 frames"):
            vel_err(one)
        two = TrajectoryPair(np.zeros((2, 2)), np.zeros((2, 2)), 30.0)
        with pytest.raises(ValidationError, match="acceleration error needs at least 3 frames"):
            accel_err(two)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match=r"shapes \(5, 2\) and \(4, 2\) differ"):
            TrajectoryPair(np.zeros((5, 2)), np.zeros((4, 2)), 30.0)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2)])
    def test_empty_trajectories_refused(self, shape):
        # (T, 0) trajectories once gave mpjpe nan with a "Mean of empty slice" warning
        with pytest.raises(ValidationError, match=r"T, DoF >= 1"):
            TrajectoryPair(np.zeros(shape), np.zeros(shape), 30.0)

    def test_success_rate(self):
        def pair(heights):
            q = np.zeros((len(heights), 1))
            return TrajectoryPair(q, q, 30.0, heights=heights)

        pairs = [pair([0.9, 0.8]), pair([0.9, 0.3]), pair([0.5, 0.5])]
        # threshold 0.5: strictly-below fails, touching passes
        assert success_rate(pairs, 0.5) == pytest.approx(2 / 3)

    def test_success_rate_missing_heights(self):
        q = np.zeros((3, 1))
        with pytest.raises(ValidationError, match="trajectory pair has no height track"):
            success_rate([TrajectoryPair(q, q, 30.0)], 0.5)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_success_rate_non_finite_threshold(self, threshold):
        # NaN once compared false on every height and scored every motion a success
        q = np.zeros((3, 1))
        pair = TrajectoryPair(q, q, 30.0, heights=np.ones(3))
        with pytest.raises(ValidationError, match="height threshold must be finite"):
            success_rate([pair], threshold)


class TestFid:
    def test_univariate_closed_form(self):
        a = gaussian_1d_sample(0.0, 1.0)
        b = gaussian_1d_sample(3.0, 2.0)
        # (0-3)^2 + (1-2)^2 = 10
        assert fid(a, b) == pytest.approx(10.0, abs=1e-9)

    def test_zero_on_identical(self, rng):
        x = rng.normal(size=(200, 6))
        assert fid(x, x.copy()) <= 1e-8

    def test_matches_scipy_oracle(self, rng):
        for _ in range(10):
            a = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
            b = rng.normal(size=(250, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
            assert fid(a, b) == pytest.approx(fid_oracle(a, b), abs=1e-6)

    def test_symmetry(self, rng):
        a = rng.normal(size=(100, 4))
        b = 2.0 * rng.normal(size=(120, 4)) + 1.0
        assert fid(a, b) == pytest.approx(fid(b, a), abs=1e-8)

    def test_mean_gap_gaussians(self):
        rng = np.random.default_rng(7)
        d = 8
        a = rng.normal(size=(10000, d))
        b = rng.normal(size=(10000, d))
        b[:, 0] += 2.0
        # same covariance, mean gap 2 along one axis: FID ~ 4
        assert fid(a, b) == pytest.approx(4.0, rel=0.05)

    def test_warns_when_underdetermined(self, rng):
        with pytest.warns(UserWarning, match="fewer samples"):
            fid(rng.normal(size=(4, 6)), rng.normal(size=(50, 6)))

    def test_rejects_tiny_samples(self, rng):
        with pytest.raises(ValidationError, match="need at least 2 rows per sample"):
            fid(rng.normal(size=(1, 3)), rng.normal(size=(10, 3)))

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValidationError, match="feature dims 3 and 4 differ"):
            fid(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)))

    def test_accepts_feature_matrix(self, rng):
        x = rng.normal(size=(50, 3))
        assert fid(FeatureMatrix(x), x) <= 1e-8


class TestDiversity:
    def test_equidistant_points_exact(self):
        # rows of a scaled identity: every pairwise distance is 5*sqrt(2)
        x = 5.0 * np.eye(6)
        assert diversity(x, 3) == pytest.approx(5.0 * np.sqrt(2.0), abs=1e-12)

    def test_bounded_by_pairwise_extremes(self, rng):
        x = rng.normal(size=(40, 3))
        d = np.linalg.norm(x[:, None] - x[None], axis=2)
        off = d[~np.eye(40, dtype=bool)]
        val = diversity(x, 20)
        assert off.min() - 1e-12 <= val <= off.max() + 1e-12

    def test_seed_reproducibility(self, rng):
        x = rng.normal(size=(64, 4))
        assert diversity(x, 16, seed=3) == diversity(x, 16, seed=3)
        assert diversity(x, 16, seed=3) != diversity(x, 16, seed=4)

    def test_too_few_samples(self, rng):
        with pytest.raises(ValidationError, match="need at least 10 rows for 5 disjoint pairs"):
            diversity(rng.normal(size=(9, 2)), 5)

    @pytest.mark.parametrize("count", [0, -1, -2, 2.5, True, None])
    def test_pair_count_must_be_positive_integer(self, rng, count):
        x = rng.normal(size=(12, 2))
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            diversity(x, count)
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            multimodality(FeatureMatrix(x, ["a"] * 6 + ["b"] * 6), count)


class TestMultimodality:
    def test_constant_groups(self):
        # two groups of identical rows: zero within-group distance
        x = np.vstack([np.ones((6, 2)), np.zeros((6, 2))])
        labels = ["a"] * 6 + ["b"] * 6
        assert multimodality(FeatureMatrix(x, labels), 3) == 0.0

    def test_average_over_groups(self):
        # group a has pairwise distance 2*sqrt(2) on 2*eye rows, group b zero
        xa = 2.0 * np.eye(4)
        xb = np.zeros((4, 4))
        x = np.vstack([xa, xb])
        labels = ["a"] * 4 + ["b"] * 4
        val = multimodality(FeatureMatrix(x, labels), 2)
        assert val == pytest.approx(np.sqrt(8.0) / 2.0, abs=1e-12)

    def test_group_too_small(self):
        x = np.ones((5, 2))
        labels = ["a"] * 3 + ["b"] * 2
        with pytest.raises(ValidationError, match="group 'a' has 3 rows, needs 4"):
            multimodality(FeatureMatrix(x, labels), 2)

    def test_labels_required(self, rng):
        with pytest.raises(ValidationError):
            multimodality(rng.normal(size=(8, 2)), 2)

    def test_groups_come_from_the_feature_matrix_only(self):
        # A `labels=` override of the wrong length once raised a raw IndexError.
        assert "labels" not in inspect.signature(multimodality).parameters
        with pytest.raises(TypeError, match="unexpected keyword argument 'labels'"):
            multimodality(np.eye(4), 1, labels=[0, 1])


def r_precision_loop(text, motion, pool_size, top_k, seed):
    """Oracle: one pool draw and one distance pass per (text, top_k), as R-precision
    was computed before the ranks were shared across top_k."""
    n = text.shape[0]
    rng = np.random.default_rng(seed)
    others = np.arange(n)
    successes = 0
    for i in range(n):
        distractors = rng.choice(np.delete(others, i), size=pool_size - 1, replace=False)
        d_true = np.linalg.norm(text[i] - motion[i])
        d_pool = np.linalg.norm(text[i] - motion[distractors], axis=1)
        if 1 + int(np.sum(d_pool < d_true)) <= top_k:
            successes += 1
    return successes / n


def retrieval_ranks_loop(text, motion, pool_size, seed):
    """Oracle: the ranks as computed when each row drew its distractors from the
    list of the other rows, `np.delete(np.arange(n), i)`."""
    n = text.shape[0]
    rng = np.random.default_rng(seed)
    others = np.arange(n)
    ranks = np.empty(n, dtype=int)
    for i in range(n):
        distractors = rng.choice(np.delete(others, i), size=pool_size - 1, replace=False)
        d_true = np.linalg.norm(text[i] - motion[i])
        d_pool = np.linalg.norm(text[i] - motion[distractors], axis=1)
        ranks[i] = 1 + int(np.sum(d_pool < d_true))
    return ranks


class TestRetrievalRanksOracle:
    """The ranks equal those of the loop over the other rows' list, draw for draw."""

    @pytest.mark.parametrize(
        "n, d, pool_size", [(1, 3, 1), (2, 1, 2), (7, 3, 7), (120, 5, 8), (499, 330, 32)]
    )
    def test_random_features(self, rng, n, d, pool_size):
        t = rng.normal(size=(n, d))
        m = t + rng.normal(size=(n, d))
        for seed in (0, 3):
            expected = retrieval_ranks_loop(t, m, pool_size, seed)
            assert np.array_equal(retrieval_ranks(t, m, pool_size, seed), expected)

    def test_exact_ties(self, rng):
        # Small integer features: distractors at exactly the match's distance are common.
        t = rng.integers(0, 3, size=(200, 2)).astype(float)
        m = rng.integers(0, 3, size=(200, 2)).astype(float)
        ranks = retrieval_ranks(t, m, pool_size=16, seed=5)
        assert np.array_equal(ranks, retrieval_ranks_loop(t, m, 16, 5))
        d_true = np.linalg.norm(t - m, axis=1)
        tied = [np.sum(np.linalg.norm(t[i] - m, axis=1) == d_true[i]) > 1 for i in range(200)]
        assert all(tied)


class TestRetrieval:
    @pytest.mark.parametrize("pool_size", [2, 8, 32])
    def test_ranks_match_loop_oracle(self, rng, pool_size):
        t = rng.normal(size=(120, 5))
        m = t + rng.normal(size=(120, 5))
        ranks = retrieval_ranks(t, m, pool_size=pool_size, seed=3)
        assert ranks.shape == (120,) and ranks.min() >= 1 and ranks.max() <= pool_size
        for k in range(1, min(pool_size, 4)):
            expected = r_precision_loop(t, m, pool_size, k, seed=3)
            assert top_k_share(ranks, k) == expected
            assert r_precision(t, m, pool_size=pool_size, top_k=k, seed=3) == expected


    def test_mm_dist_exact(self):
        t = np.zeros((4, 3))
        m = np.zeros((4, 3))
        m[:, 0] = 2.0
        assert mm_dist(t, m) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "metric",
        [mm_dist, fid, lambda a, b: retrieval_ranks(a, b, pool_size=1),
         lambda a, b: diversity(a, 1)],
        ids=["mm_dist", "fid", "retrieval_ranks", "diversity"],
    )
    def test_raw_arrays_without_rows_refused(self, metric):
        # mm_dist on (0, d) arrays once returned nan with a "Mean of empty slice" warning
        with pytest.raises(ValidationError, match=r"must be nonempty, got \(0, 3\)"):
            metric(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_r_precision_perfect_match(self, rng):
        x = rng.normal(size=(100, 8))
        assert r_precision(x, x.copy(), pool_size=32, top_k=1) == 1.0

    def test_r_precision_chance_level(self):
        rng = np.random.default_rng(11)
        t = rng.normal(size=(2048, 8))
        m = rng.normal(size=(2048, 8))
        for k in (1, 2, 3):
            p = r_precision(t, m, pool_size=32, top_k=k)
            expect = k / 32
            sigma = np.sqrt(expect * (1 - expect) / 2048)
            assert abs(p - expect) <= 3 * sigma

    def test_r_precision_monotone_in_k(self, rng):
        t = rng.normal(size=(200, 4))
        m = t + 0.5 * rng.normal(size=(200, 4))
        vals = [r_precision(t, m, pool_size=16, top_k=k) for k in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]

    @pytest.mark.parametrize("pool_size", [0, -3, 2.0, True])
    def test_ranks_need_a_positive_integer_pool(self, rng, pool_size):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValidationError, match="pool_size must be an integer >= 1"):
            retrieval_ranks(x, x, pool_size=pool_size)

    def test_pool_too_large(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValidationError, match="pool size 11 exceeds 10 samples"):
            r_precision(x, x, pool_size=11)

    def test_bad_top_k(self, rng):
        x = rng.normal(size=(40, 2))
        with pytest.raises(ValidationError):
            r_precision(x, x, pool_size=8, top_k=8)

    def test_seeded_reproducibility(self, rng):
        t = rng.normal(size=(64, 4))
        m = rng.normal(size=(64, 4))
        assert r_precision(t, m, pool_size=8) == r_precision(t, m, pool_size=8)


def test_top_k_share_refuses_empty_nested_and_non_integer_arguments():
    # These once raised a raw ZeroDivisionError, and returned 0.0 and 1.0.
    with pytest.raises(ValidationError, match="^ranks must be nonempty$"):
        top_k_share([], 1)
    with pytest.raises(ValidationError, match="^top_k must be an integer >= 1, got nan$"):
        top_k_share([1, 2], float("nan"))
    with pytest.raises(ValidationError, match=r"^ranks: expected shape \(None,\), got \(1, 2\)$"):
        top_k_share([[1, 2]], 1)
    assert top_k_share(np.array([1, 2, 3, 1]), 1) == 0.5
