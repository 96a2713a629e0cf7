"""OUTLIERSCLUSTER: the weighted sequential routine of Algorithm 1.

Given a weighted coreset ``T``, a number of centers ``k``, a guess ``r``
of the optimal radius, and the precision parameter ``eps_hat``, the
routine greedily picks ``k`` centers: each iteration selects the point of
``T`` whose ball of radius ``(1 + 2*eps_hat) * r`` covers the largest
aggregate weight of still-uncovered points, then marks as covered every
uncovered point within ``(3 + 4*eps_hat) * r`` of the chosen center. The
points left uncovered at the end are the candidate outliers.

The routine is a weighted modification of Charikar et al.'s algorithm
[16] (which is the special case of unit weights and ``eps_hat = 0``), and
it is the second-round workhorse of both the MapReduce and the Streaming
algorithms for the outlier formulation.

:class:`OutliersClusterSolver` precomputes the (small) pairwise distance
matrix of ``T`` once, and with it each row's neighbour order (the row's
argsort, in the smallest unsigned dtype that indexes ``T``), so that the
radius search of :mod:`repro.core.radius_search` can probe many radii
cheaply. A probe costs its selection balls, not ``m^2``: a vectorised
bisection over the neighbour order finds every ball's size in about
``log2 m`` gathers per row, and the ball weights are scattered from the
first entries of each order row, so the work is proportional to the
pairs inside the balls. Balls holding a large share of the pairs are
summed densely instead, one block of ``_ROW_BLOCK`` rows at a time. The
memory is the matrix plus at most a quarter of it for the order (up to
65,536 points) and a few blocks of temporaries. For the integer proxy
weights of the coreset constructions every ball weight is an exact
float64 sum, so the picks (ties go to the lowest index) do not depend on
the order of the sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_eps_hat, check_positive_int
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric, strict_upper_triangle
from ..metricspace.points import WeightedPoints

__all__ = ["OutliersClusterResult", "OutliersClusterSolver", "outliers_cluster"]

# Rows of the pairwise matrix the dense ball sum compares against the
# selection radius at a time. A block's boolean slab is _ROW_BLOCK * m
# bytes and its float64 cast eight times that: about 1 and 8 MB for a
# 4,000-point union.
_ROW_BLOCK = 256

# Pairs (but at least one row) handled at a time by the argsort that
# builds the neighbour order, the scattered ball sum and the dedupe of
# the candidate radii: a few hundred KB of temporaries per step.
_PAIR_BLOCK = _ROW_BLOCK**2

# Share of the rows' pairs inside their selection balls from which the
# ball sum reads the rows densely: scattering a ball entry costs a few
# times more than comparing a matrix entry.
_DENSE_BALL_SHARE = 0.25


@dataclass(frozen=True)
class OutliersClusterResult:
    """Output of one OUTLIERSCLUSTER run.

    Attributes
    ----------
    center_indices:
        Indices (into the coreset) of the selected centers ``X``, in
        selection order; at most ``k`` of them.
    uncovered_mask:
        Boolean mask over the coreset marking the final uncovered set
        ``T'`` (the candidate outliers).
    uncovered_weight:
        Total weight of the uncovered points; the radius search looks for
        the smallest radius making this at most ``z``.
    radius:
        The radius guess ``r`` this run was executed with.
    """

    center_indices: np.ndarray
    uncovered_mask: np.ndarray
    uncovered_weight: float
    radius: float

    @property
    def n_centers(self) -> int:
        """Number of selected centers (``<= k``)."""
        return int(self.center_indices.shape[0])


class OutliersClusterSolver:
    """Reusable OUTLIERSCLUSTER executor over a fixed weighted coreset.

    Parameters
    ----------
    coreset:
        The weighted coreset ``T`` (union of the per-partition coresets).
    k:
        Number of centers to select.
    eps_hat:
        The precision parameter ``eps_hat`` of Algorithm 1 (the paper sets
        ``eps_hat = eps / 6`` to obtain a ``3 + eps`` approximation). A
        value of 0 recovers the unweighted ball radii of Charikar et al.
    metric:
        Metric name or instance.
    """

    def __init__(
        self,
        coreset: WeightedPoints,
        k: int,
        *,
        eps_hat: float = 0.0,
        metric: str | Metric = "euclidean",
    ) -> None:
        if not isinstance(coreset, WeightedPoints):
            raise InvalidParameterError("coreset must be a WeightedPoints instance")
        self._coreset = coreset
        self._k = check_positive_int(k, name="k")
        self._eps_hat = check_eps_hat(eps_hat)
        self._metric = get_metric(metric)
        self._pairwise = self._metric.pairwise(coreset.points)
        self._weights = coreset.weights
        # Each row's neighbour order, in the smallest dtype that indexes it.
        m = self._pairwise.shape[0]
        self._order = np.empty((m, m), dtype=np.min_scalar_type(m - 1))
        rows = max(1, _PAIR_BLOCK // m)
        for start in range(0, m, rows):
            block = slice(start, start + rows)
            self._order[block] = np.argsort(self._pairwise[block], axis=1)

    # -- read-only properties ---------------------------------------------------------

    @property
    def coreset(self) -> WeightedPoints:
        """The weighted coreset this solver operates on."""
        return self._coreset

    @property
    def k(self) -> int:
        """Number of centers selected per run."""
        return self._k

    @property
    def eps_hat(self) -> float:
        """The precision parameter used for the ball radii."""
        return self._eps_hat

    @property
    def pairwise_distances(self) -> np.ndarray:
        """The precomputed pairwise distance matrix of the coreset."""
        return self._pairwise

    def candidate_radii(self) -> np.ndarray:
        """Sorted unique pairwise distances — the radius-search candidates.

        The strict upper triangle is sorted and deduplicated in place,
        ``_PAIR_BLOCK`` values at a time; the result is a view of its
        leading part.
        """
        values = strict_upper_triangle(self._pairwise)
        values.sort()
        size = 0
        for start in range(0, values.size, _PAIR_BLOCK):
            block = values[start : start + _PAIR_BLOCK]
            keep = np.empty(block.size, dtype=bool)
            keep[0] = size == 0 or block[0] != values[size - 1]
            np.not_equal(block[1:], block[:-1], out=keep[1:])
            kept = block[keep]
            values[size : size + kept.size] = kept
            size += kept.size
        return values[:size]

    # -- the algorithm -----------------------------------------------------------------

    def run(self, radius: float) -> OutliersClusterResult:
        """Execute OUTLIERSCLUSTER with the radius guess ``radius``.

        Follows Algorithm 1: selection balls of radius
        ``(1 + 2*eps_hat) * radius``, coverage balls of radius
        ``(3 + 4*eps_hat) * radius``, stop when ``k`` centers are chosen or
        nothing is left uncovered. ``radius`` may be ``inf`` (everything
        is covered); a negative or NaN radius is rejected.

        Cost per probe: about ``log2 m`` gathers per row for the ball
        sizes, then work proportional to the pairs inside the selection
        balls of the rows summed: all rows for the initial ball weights,
        then after each pick but the last the newly covered rows
        (subtracted) or the still-uncovered rows (recomputed), whichever
        are fewer. Rows whose balls hold a large share of their pairs are
        summed densely, ``_ROW_BLOCK`` at a time. No ``m x m`` temporary
        is built. With integer weights every ball weight is exact, and
        the result is that of the literal algorithm.
        """
        if not radius >= 0:
            raise InvalidParameterError(f"radius must be non-negative, not {radius!r}")
        selection_radius = (1.0 + 2.0 * self._eps_hat) * radius
        coverage_radius = (3.0 + 4.0 * self._eps_hat) * radius

        ball_sizes = self._ball_sizes(selection_radius)
        uncovered = np.ones(len(self._coreset), dtype=bool)
        ball_weights = self._weight_within(None, ball_sizes, selection_radius)
        centers: list[int] = []
        while uncovered.any():
            center = int(np.argmax(ball_weights))
            centers.append(center)
            newly_covered = np.flatnonzero(
                uncovered & (self._pairwise[center] <= coverage_radius)
            )
            uncovered[newly_covered] = False
            if len(centers) == self._k:
                break
            still_uncovered = np.flatnonzero(uncovered)
            if newly_covered.size <= still_uncovered.size:
                ball_weights -= self._weight_within(newly_covered, ball_sizes, selection_radius)
            else:
                ball_weights = self._weight_within(
                    still_uncovered, ball_sizes, selection_radius
                )

        return OutliersClusterResult(
            center_indices=np.array(centers, dtype=np.intp),
            uncovered_mask=uncovered,
            uncovered_weight=float(self._weights[uncovered].sum()),
            radius=float(radius),
        )

    def _ball_sizes(self, radius: float) -> np.ndarray:
        """Per point, the number of points within ``radius`` of it.

        A point's ball is a prefix of its row of the neighbour order. One
        vectorised bisection over all rows finds the prefix lengths: each
        of its ``m.bit_length()`` steps gathers one distance per row.
        """
        m = self._pairwise.shape[0]
        row_starts = np.arange(0, m * m, m)
        flat_order = self._order.reshape(-1)
        flat_pairwise = self._pairwise.reshape(-1)
        sizes = np.zeros(m, dtype=np.intp)
        step = 1 << (m.bit_length() - 1)
        while step:
            grown = sizes + step
            fits = grown <= m
            np.minimum(grown, m, out=grown)
            farthest = flat_order[row_starts + grown - 1]
            fits &= flat_pairwise[row_starts + farthest] <= radius
            sizes[fits] += step
            step >>= 1
        return sizes

    def _weight_within(
        self, rows: np.ndarray | None, ball_sizes: np.ndarray, radius: float
    ) -> np.ndarray:
        """Per point, the weight of ``rows`` (all if ``None``) within ``radius`` of it.

        ``ball_sizes`` are the ball sizes at ``radius``. The pairwise
        matrix is exactly symmetric, so row ``i`` adds ``weights[i]`` to
        the points of its own ball, ``_order[i, :ball_sizes[i]]``: these
        are scattered with ``np.bincount``, at most ``_PAIR_BLOCK`` pairs
        (or one row) at a time. When the balls hold at least
        ``_DENSE_BALL_SHARE`` of the rows' pairs, the rows are instead
        compared against ``radius`` whole, ``_ROW_BLOCK`` at a time.
        """
        m = self._pairwise.shape[0]
        total = np.zeros(m)
        count = m if rows is None else rows.size
        ball_pairs = ball_sizes.sum() if rows is None else ball_sizes[rows].sum()
        if ball_pairs >= _DENSE_BALL_SHARE * count * m:
            for start in range(0, count, _ROW_BLOCK):
                block = slice(start, start + _ROW_BLOCK)
                if rows is not None:
                    block = rows[block]
                total += self._weights[block] @ (self._pairwise[block] <= radius)
            return total

        if rows is None:
            rows = np.arange(m)
        flat_order = self._order.reshape(-1)
        ends = np.cumsum(ball_sizes[rows])
        start = 0
        while start < rows.size:
            done = ends[start - 1] if start else 0
            stop = int(np.searchsorted(ends, done + max(_PAIR_BLOCK, m), side="right"))
            chunk = rows[start:stop]
            sizes = ball_sizes[chunk]
            # Flat positions of _order[i, :sizes[i]] for the chunk's rows:
            # row i's ball starts at offset firsts[i] of the chunk.
            firsts = ends[start:stop] - sizes - done
            positions = np.repeat(chunk * m - firsts, sizes)
            positions += np.arange(positions.size)
            weights = np.repeat(self._weights[chunk], sizes)
            total += np.bincount(flat_order[positions], weights=weights, minlength=m)
            start = stop
        return total

    def uncovered_weight(self, radius: float) -> float:
        """Total uncovered weight after a run with radius ``radius``."""
        return self.run(radius).uncovered_weight


def outliers_cluster(
    coreset: WeightedPoints,
    k: int,
    radius: float,
    eps_hat: float = 0.0,
    metric: str | Metric = "euclidean",
) -> OutliersClusterResult:
    """One-shot OUTLIERSCLUSTER run (convenience wrapper around the solver)."""
    solver = OutliersClusterSolver(coreset, k, eps_hat=eps_hat, metric=metric)
    return solver.run(radius)
