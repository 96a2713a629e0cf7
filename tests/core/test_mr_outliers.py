"""Tests for repro.core.mr_outliers (2-round MapReduce k-center with z outliers)."""

from __future__ import annotations

import pytest

from repro.core import MapReduceKCenterOutliers
from repro.evaluation import optimal_kcenter_with_outliers_radius
from repro.exceptions import InvalidParameterError


class TestConfiguration:
    def test_mutually_exclusive_knobs(self):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenterOutliers(5, 10, epsilon=0.5, coreset_multiplier=2)

    def test_adversarial_requires_indices(self):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenterOutliers(5, 10, partitioning="adversarial")

    def test_default_eps_hat_follows_epsilon(self):
        solver = MapReduceKCenterOutliers(5, 10, epsilon=0.6)
        assert solver.eps_hat == pytest.approx(0.1)

    def test_invalid_partitioning(self):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenterOutliers(5, 10, partitioning="bogus")

    @pytest.mark.parametrize("eps_hat", [float("nan"), float("inf")])
    def test_non_finite_eps_hat_rejected(self, eps_hat):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenterOutliers(3, 5, eps_hat=eps_hat, coreset_multiplier=2)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_multiplier_rejected(self, small_blobs, mu):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenterOutliers(3, 5, coreset_multiplier=mu).fit(small_blobs)

    def test_z_too_large(self, small_blobs):
        with pytest.raises(InvalidParameterError):
            MapReduceKCenterOutliers(3, small_blobs.shape[0]).fit(small_blobs)


class TestDeterministicVariant:
    def test_basic_run(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5, z, ell=4, coreset_multiplier=4, random_state=0
        ).fit(data)
        assert result.k <= 5
        # Coresets, solve, and the assignment round that computes the radii.
        assert result.stats.n_rounds == 3
        assert not result.randomized
        assert result.radius <= result.radius_all_points

    def test_identifies_planted_outliers(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5, z, ell=4, coreset_multiplier=8, random_state=0
        ).fit(data)
        assert set(result.outlier_indices) == set(blobs_with_outliers.outlier_indices)

    def test_radius_far_below_all_points_radius(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5, z, ell=4, coreset_multiplier=4, random_state=0
        ).fit(data)
        assert result.radius < result.radius_all_points / 10.0

    def test_coreset_size_formula(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        k, ell, mu = 5, 4, 2
        result = MapReduceKCenterOutliers(
            k, z, ell=ell, coreset_multiplier=mu, random_state=0
        ).fit(data)
        assert result.coreset_size == ell * mu * (k + z)

    def test_adversarial_partitioning_runs(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5,
            z,
            ell=4,
            coreset_multiplier=4,
            partitioning="adversarial",
            adversarial_indices=blobs_with_outliers.outlier_indices,
            random_state=0,
        ).fit(data)
        assert result.radius < result.radius_all_points

    def test_theorem2_bound_small_instance(self, rng):
        points = rng.normal(size=(18, 2)) * 3
        points[0] += 60.0
        points[1] -= 60.0
        k, z, epsilon = 3, 2, 1.0
        result = MapReduceKCenterOutliers(k, z, ell=2, epsilon=epsilon, random_state=0).fit(points)
        optimum = optimal_kcenter_with_outliers_radius(points, k, z)
        assert result.radius <= (3.0 + epsilon) * optimum + 1e-9

    def test_estimated_radius_positive(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5, z, ell=2, coreset_multiplier=2, random_state=0
        ).fit(data)
        assert result.estimated_radius >= 0
        assert result.search_probes >= 1

    def test_zero_outliers(self, small_blobs):
        result = MapReduceKCenterOutliers(4, 0, ell=2, coreset_multiplier=2, random_state=0).fit(small_blobs)
        assert result.radius == pytest.approx(result.radius_all_points)


class TestRandomizedVariant:
    def test_basic_run(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5, z, ell=4, coreset_multiplier=4, randomized=True,
            include_log_term=False, random_state=0,
        ).fit(data)
        assert result.randomized
        assert result.radius < result.radius_all_points

    def test_z_prime_smaller_than_z_for_large_ell(self):
        solver = MapReduceKCenterOutliers(
            5, 200, ell=16, coreset_multiplier=1, randomized=True, include_log_term=False
        )
        assert solver._z_prime(10_000, 16) < 200

    def test_log_term_increases_z_prime(self):
        with_log = MapReduceKCenterOutliers(5, 40, ell=8, randomized=True, include_log_term=True)
        without = MapReduceKCenterOutliers(5, 40, ell=8, randomized=True, include_log_term=False)
        assert with_log._z_prime(5000, 8) > without._z_prime(5000, 8)

    def test_smaller_coresets_than_deterministic(self, blobs_with_outliers):
        # mu = 1 keeps both targets below the ~27-point partition size on
        # this 215-point instance, so the comparison measures the z vs z'
        # base sizes (the property under test) rather than which random
        # split happens to cap more partitions at their full size.
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        deterministic = MapReduceKCenterOutliers(
            5, z, ell=8, coreset_multiplier=1, random_state=0
        ).fit(data)
        randomized = MapReduceKCenterOutliers(
            5, z, ell=8, coreset_multiplier=1, randomized=True,
            include_log_term=False, random_state=0,
        ).fit(data)
        assert randomized.coreset_size < deterministic.coreset_size

    def test_still_recovers_planted_outliers(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5, z, ell=4, coreset_multiplier=8, randomized=True,
            include_log_term=False, random_state=1,
        ).fit(data)
        assert set(result.outlier_indices) == set(blobs_with_outliers.outlier_indices)
