"""Tests for repro.core.outliers_cluster (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OutliersClusterSolver, outliers_cluster
from repro.evaluation import optimal_kcenter_with_outliers_radius
from repro.exceptions import InvalidParameterError
from repro.metricspace import WeightedPoints


def _unit_coreset(points: np.ndarray) -> WeightedPoints:
    return WeightedPoints(points=points, weights=np.ones(points.shape[0]))


class TestOutliersClusterSolver:
    def test_selects_at_most_k_centers(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3)
        result = solver.run(radius=5.0)
        assert result.n_centers <= 3

    def test_all_covered_with_huge_radius(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3)
        diameter = float(solver.pairwise_distances.max())
        result = solver.run(radius=diameter)
        assert result.uncovered_weight == pytest.approx(0.0)

    def test_zero_radius_covers_only_duplicates(self):
        points = np.array([[0.0], [0.0], [1.0], [2.0], [3.0]])
        solver = OutliersClusterSolver(_unit_coreset(points), k=1)
        result = solver.run(radius=0.0)
        # One center covers only the duplicate pair, leaving three uncovered.
        assert result.uncovered_weight == pytest.approx(3.0)

    def test_first_center_maximizes_covered_weight(self):
        # A heavy point far from a dense cluster: with weights, the heavy
        # point's ball must be picked first.
        points = np.array([[0.0], [0.5], [100.0]])
        weights = np.array([1.0, 1.0, 50.0])
        coreset = WeightedPoints(points=points, weights=weights)
        solver = OutliersClusterSolver(coreset, k=1)
        result = solver.run(radius=1.0)
        assert result.center_indices[0] == 2

    def test_covered_points_within_coverage_radius(self, small_blobs):
        eps_hat = 0.25
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=4, eps_hat=eps_hat)
        radius = 3.0
        result = solver.run(radius=radius)
        covered = ~result.uncovered_mask
        if covered.any():
            distances = solver.pairwise_distances[np.ix_(covered, result.center_indices)]
            assert distances.min(axis=1).max() <= (3 + 4 * eps_hat) * radius + 1e-9

    def test_uncovered_points_outside_coverage_radius(self, small_blobs):
        eps_hat = 0.1
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=2, eps_hat=eps_hat)
        radius = 2.0
        result = solver.run(radius=radius)
        if result.uncovered_mask.any() and result.n_centers:
            distances = solver.pairwise_distances[
                np.ix_(result.uncovered_mask, result.center_indices)
            ]
            assert distances.min(axis=1).min() > (3 + 4 * eps_hat) * radius - 1e-9

    def test_stops_early_when_everything_covered(self):
        points = np.array([[0.0], [0.1], [0.2]])
        solver = OutliersClusterSolver(_unit_coreset(points), k=3)
        result = solver.run(radius=1.0)
        assert result.n_centers == 1

    def test_lemma5_uncovered_weight_at_most_z_at_optimal_radius(self, rng):
        # Lemma 5 (unit weights, eps_hat=0 is the Charikar setting): at any
        # radius >= r*_{k,z}, the uncovered weight is at most z.
        points = rng.normal(size=(16, 2))
        points[0] += 50.0  # one clear outlier
        k, z = 3, 1
        optimum = optimal_kcenter_with_outliers_radius(points, k, z)
        solver = OutliersClusterSolver(_unit_coreset(points), k=k, eps_hat=0.0)
        result = solver.run(radius=optimum)
        assert result.uncovered_weight <= z + 1e-9

    def test_weighted_uncovered_weight(self):
        points = np.array([[0.0], [10.0], [20.0]])
        weights = np.array([5.0, 7.0, 11.0])
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=1)
        result = solver.run(radius=0.5)
        # One center grabs the heaviest point; the other two stay uncovered.
        assert result.uncovered_weight == pytest.approx(12.0)

    def test_negative_radius_rejected(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=2)
        with pytest.raises(InvalidParameterError):
            solver.run(radius=-1.0)

    @pytest.mark.parametrize("eps_hat", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_eps_hat_rejected(self, small_blobs, eps_hat):
        with pytest.raises(InvalidParameterError):
            OutliersClusterSolver(_unit_coreset(small_blobs), k=2, eps_hat=eps_hat)

    def test_requires_weighted_points(self, small_blobs):
        with pytest.raises(InvalidParameterError):
            OutliersClusterSolver(small_blobs, k=2)

    def test_candidate_radii_sorted_unique(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs[:20]), k=2)
        candidates = solver.candidate_radii()
        assert np.all(np.diff(candidates) > 0)

    def test_uncovered_weight_helper(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3)
        assert solver.uncovered_weight(1e9) == pytest.approx(0.0)


class TestIncrementalBallWeights:
    """The incremental ball-weight maintenance must match Algorithm 1 literally."""

    @staticmethod
    def _naive_run(solver: OutliersClusterSolver, radius: float):
        selection_radius = (1.0 + 2.0 * solver.eps_hat) * radius
        coverage_radius = (3.0 + 4.0 * solver.eps_hat) * radius
        pairwise = solver.pairwise_distances
        weights = solver.coreset.weights
        uncovered = np.ones(len(solver.coreset), dtype=bool)
        centers = []
        while len(centers) < solver.k and uncovered.any():
            uncovered_weight = np.where(uncovered, weights, 0.0)
            ball_weights = (pairwise <= selection_radius) @ uncovered_weight
            center = int(np.argmax(ball_weights))
            centers.append(center)
            uncovered &= ~(pairwise[center] <= coverage_radius)
        return centers, uncovered

    @pytest.mark.parametrize("quantile", (0.02, 0.1, 0.3, 0.6))
    def test_matches_naive_reference(self, small_blobs, quantile):
        weights = np.asarray(
            np.random.default_rng(4).integers(1, 9, size=small_blobs.shape[0]),
            dtype=np.float64,
        )
        coreset = WeightedPoints(points=small_blobs, weights=weights)
        solver = OutliersClusterSolver(coreset, k=4, eps_hat=1 / 6)
        radius = float(np.quantile(solver.candidate_radii(), quantile))
        result = solver.run(radius)
        expected_centers, expected_uncovered = self._naive_run(solver, radius)
        assert list(result.center_indices) == expected_centers
        assert np.array_equal(result.uncovered_mask, expected_uncovered)

    def test_repeated_probes_are_independent(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3, eps_hat=1 / 6)
        radius = float(np.median(solver.candidate_radii()))
        first = solver.run(radius)
        second = solver.run(radius)
        assert np.array_equal(first.center_indices, second.center_indices)
        assert first.uncovered_weight == second.uncovered_weight


class TestOutliersClusterFunction:
    def test_one_shot_wrapper(self, small_blobs):
        result = outliers_cluster(_unit_coreset(small_blobs), k=3, radius=5.0)
        assert result.n_centers <= 3
        assert result.radius == pytest.approx(5.0)
