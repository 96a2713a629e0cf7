"""Tests for repro.core.outliers_cluster (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OutliersClusterSolver, outliers_cluster
from repro.core.outliers_cluster import _DENSE_BALL_SHARE, _PAIR_BLOCK, _ROW_BLOCK
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

    def test_nan_radius_rejected(self, small_blobs):
        # NaN compares False with everything: unchecked, one point would be
        # picked k times and all the weight reported uncovered.
        with pytest.raises(InvalidParameterError):
            outliers_cluster(_unit_coreset(small_blobs), k=3, radius=float("nan"))

    def test_infinite_radius_covers_everything(self, small_blobs):
        result = outliers_cluster(_unit_coreset(small_blobs), k=3, radius=float("inf"))
        assert list(result.center_indices) == [0]
        assert result.uncovered_weight == 0.0

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
        """Literal Algorithm 1; also names the update each non-final pick needs.

        After a pick the solver either subtracts the newly covered rows or
        recomputes from the still-uncovered ones, whichever set is smaller.
        """
        selection_radius = (1.0 + 2.0 * solver.eps_hat) * radius
        coverage_radius = (3.0 + 4.0 * solver.eps_hat) * radius
        pairwise = solver.pairwise_distances
        weights = solver.coreset.weights
        uncovered = np.ones(len(solver.coreset), dtype=bool)
        centers = []
        updates = []
        while len(centers) < solver.k and uncovered.any():
            uncovered_weight = np.where(uncovered, weights, 0.0)
            ball_weights = (pairwise <= selection_radius) @ uncovered_weight
            center = int(np.argmax(ball_weights))
            centers.append(center)
            newly_covered = uncovered & (pairwise[center] <= coverage_radius)
            uncovered &= ~newly_covered
            if len(centers) < solver.k:
                smaller = newly_covered.sum() <= uncovered.sum()
                updates.append("subtract" if smaller else "recompute")
        return centers, uncovered, updates

    @staticmethod
    def _ball_share(solver: OutliersClusterSolver, radius: float) -> float:
        """Share of all pairs inside the selection balls at ``radius``.

        The initial ball weights are summed densely exactly when this
        share reaches ``_DENSE_BALL_SHARE``, and scattered otherwise.
        """
        selection_radius = (1.0 + 2.0 * solver.eps_hat) * radius
        return float(np.mean(solver.pairwise_distances <= selection_radius))

    def _assert_matches_naive(self, solver: OutliersClusterSolver, radius: float):
        result = solver.run(radius)
        expected_centers, expected_uncovered, updates = self._naive_run(solver, radius)
        assert list(result.center_indices) == expected_centers
        assert np.array_equal(result.uncovered_mask, expected_uncovered)
        assert result.uncovered_weight == solver.coreset.weights[expected_uncovered].sum()
        return updates

    @pytest.mark.parametrize("quantile", (0.02, 0.1, 0.3, 0.6))
    def test_matches_naive_reference(self, small_blobs, quantile):
        weights = np.asarray(
            np.random.default_rng(4).integers(1, 9, size=small_blobs.shape[0]),
            dtype=np.float64,
        )
        coreset = WeightedPoints(points=small_blobs, weights=weights)
        solver = OutliersClusterSolver(coreset, k=4, eps_hat=1 / 6)
        radius = float(np.quantile(solver.candidate_radii(), quantile))
        self._assert_matches_naive(solver, radius)

    def test_matches_naive_reference_on_both_sides_of_the_dense_share(self, small_blobs):
        # 200 points index their neighbour order in uint8. The sweep runs
        # from balls of a point or two (scattered from the neighbour
        # order) to balls of most of the coreset (summed densely), with
        # radii just below and above the dense-share threshold.
        weights = np.random.default_rng(6).integers(1, 50, size=small_blobs.shape[0])
        coreset = WeightedPoints(points=small_blobs, weights=weights.astype(np.float64))
        solver = OutliersClusterSolver(coreset, k=5, eps_hat=1 / 6)
        assert solver._order.dtype == np.uint8
        candidates = solver.candidate_radii()
        shares = []
        for quantile in (0.0, 0.01, 0.05, 0.15, 0.4, 0.8, 1.0):
            radius = float(np.quantile(candidates, quantile))
            shares.append(self._ball_share(solver, radius))
            self._assert_matches_naive(solver, radius)
        # The radius whose selection balls hold the threshold share of pairs.
        threshold = float(np.quantile(solver.pairwise_distances, _DENSE_BALL_SHARE))
        threshold /= 1.0 + 2.0 * solver.eps_hat
        for radius in (0.99 * threshold, 1.01 * threshold):
            shares.append(self._ball_share(solver, radius))
            self._assert_matches_naive(solver, radius)
        assert min(shares) < _DENSE_BALL_SHARE <= max(shares)
        assert sum(share < _DENSE_BALL_SHARE for share in shares) >= 4
        assert sum(share >= _DENSE_BALL_SHARE for share in shares) >= 3

    def test_matches_naive_reference_beyond_one_row_block(self):
        # 700 points span several row blocks; most points have duplicates,
        # so equal balls make argmax ties; integer weights reach 1e6. The
        # radii run from a few newly covered points per pick (subtract) to
        # most of the coreset covered at once (recompute), and both update
        # rules must occur.
        rng = np.random.default_rng(11)
        base = rng.normal(size=(230, 3)) * np.array([1.0, 4.0, 9.0])
        points = base[rng.integers(0, base.shape[0], size=700)]
        weights = rng.integers(1, 10**6 + 1, size=700).astype(np.float64)
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=6)
        assert len(solver.coreset) > 2 * _ROW_BLOCK
        assert solver._order.dtype == np.uint16
        candidates = solver.candidate_radii()
        updates = []
        shares = []
        for quantile in (0.0, 0.005, 0.02, 0.1, 0.2, 0.3, 0.7):
            radius = float(np.quantile(candidates, quantile))
            updates += self._assert_matches_naive(solver, radius)
            shares.append(self._ball_share(solver, radius))
        assert {"subtract", "recompute"} <= set(updates)
        assert min(shares) < _DENSE_BALL_SHARE <= max(shares)
        # Some initial ball sum is scattered in more than one chunk.
        pairs = len(solver.coreset) ** 2
        assert any(_PAIR_BLOCK < share * pairs < _DENSE_BALL_SHARE * pairs for share in shares)

    def test_ball_sizes_and_weights_are_exact_in_both_branches(self):
        # The ball sums themselves, not only the picks they lead to, for
        # all rows, a subset and one row: scattered in one or several
        # chunks below the dense share, summed densely above it.
        rng = np.random.default_rng(12)
        points = rng.normal(size=(700, 3))
        weights = rng.integers(1, 10**6 + 1, size=700).astype(np.float64)
        solver = OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=3)
        pairwise = solver.pairwise_distances
        subset = np.sort(rng.choice(700, size=300, replace=False))
        all_ball_pairs = []
        near_threshold = (0.98 * _DENSE_BALL_SHARE, 1.02 * _DENSE_BALL_SHARE)
        for share in (0.001, 0.05, 0.2, *near_threshold, 0.6, 1.0):
            radius = float(np.quantile(pairwise, share))
            sizes = solver._ball_sizes(radius)
            assert np.array_equal(sizes, (pairwise <= radius).sum(axis=1))
            all_ball_pairs.append(int(sizes.sum()))
            for rows in (None, subset, np.array([17])):
                selected = slice(None) if rows is None else rows
                expected = weights[selected] @ (pairwise[selected] <= radius)
                assert np.array_equal(solver._weight_within(rows, sizes, radius), expected)
        dense_from = _DENSE_BALL_SHARE * pairwise.size
        assert any(_PAIR_BLOCK < pairs < dense_from for pairs in all_ball_pairs)
        assert any(pairs >= dense_from for pairs in all_ball_pairs)

    def test_matches_naive_reference_for_one_point(self):
        coreset = WeightedPoints(points=np.array([[1.0, 2.0]]), weights=np.array([7.0]))
        solver = OutliersClusterSolver(coreset, k=3, eps_hat=1 / 6)
        assert solver.candidate_radii().size == 0
        for radius in (0.0, 1.0):
            self._assert_matches_naive(solver, radius)
        assert list(solver.run(0.0).center_indices) == [0]

    def test_repeated_probes_are_independent(self, small_blobs):
        solver = OutliersClusterSolver(_unit_coreset(small_blobs), k=3, eps_hat=1 / 6)
        radius = float(np.median(solver.candidate_radii()))
        first = solver.run(radius)
        second = solver.run(radius)
        assert np.array_equal(first.center_indices, second.center_indices)
        assert first.uncovered_weight == second.uncovered_weight


class TestProbeMemory:
    """The solver holds the matrix and its neighbour order, and no temporary their size."""

    @pytest.fixture(scope="class")
    def solver(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(1000, 4))
        weights = rng.integers(1, 20, size=1000).astype(np.float64)
        return OutliersClusterSolver(WeightedPoints(points=points, weights=weights), k=20)

    def test_run_allocates_under_half_the_matrix(self, solver, peak_allocated_bytes):
        radius = float(np.quantile(solver.candidate_radii(), 0.05))
        peak = peak_allocated_bytes(lambda: solver.run(radius))
        assert peak < 0.5 * solver.pairwise_distances.nbytes

    def test_candidate_radii_allocate_under_one_and_a_quarter_matrices(
        self, solver, peak_allocated_bytes
    ):
        peak = peak_allocated_bytes(solver.candidate_radii)
        assert peak < 1.25 * solver.pairwise_distances.nbytes

    def test_construction_allocates_under_one_and_a_half_matrices(
        self, solver, peak_allocated_bytes
    ):
        # The matrix, its quarter-size uint16 neighbour order and a few
        # blocks of temporaries.
        peak = peak_allocated_bytes(lambda: OutliersClusterSolver(solver.coreset, k=20))
        assert peak < 1.5 * solver.pairwise_distances.nbytes


class TestOutliersClusterFunction:
    def test_one_shot_wrapper(self, small_blobs):
        result = outliers_cluster(_unit_coreset(small_blobs), k=3, radius=5.0)
        assert result.n_centers <= 3
        assert result.radius == pytest.approx(5.0)
