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
matrix of ``T`` once so that the radius search of
:mod:`repro.core.radius_search` can probe many radii cheaply. A probe
reads that ``m x m`` matrix in blocks of rows and never builds an
``m x m`` temporary: one full pass for the initial ball weights, then,
per selected center, a pass over whichever is smaller of the newly
covered and the still-uncovered rows. Its extra memory is a few blocks
of ``_ROW_BLOCK`` rows. For the integer proxy weights of the coreset
constructions every ball weight is an exact float64 sum, so the picks
(ties go to the lowest index) do not depend on the order of the sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_eps_hat, check_positive_int
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints

__all__ = ["OutliersClusterResult", "OutliersClusterSolver", "outliers_cluster"]

# Rows of the pairwise matrix compared against the selection radius at a
# time. A block's boolean slab is _ROW_BLOCK * m bytes and its float64
# cast eight times that: about 1 and 8 MB for a 4,000-point union.
_ROW_BLOCK = 256


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
        """Sorted unique pairwise distances — the radius-search candidates."""
        pairwise = self._pairwise
        upper = np.concatenate([pairwise[row, row + 1 :] for row in range(pairwise.shape[0])])
        upper.sort()
        keep = np.ones(upper.size, dtype=bool)
        np.not_equal(upper[1:], upper[:-1], out=keep[1:])
        return upper[keep]

    # -- the algorithm -----------------------------------------------------------------

    def run(self, radius: float) -> OutliersClusterResult:
        """Execute OUTLIERSCLUSTER with the radius guess ``radius``.

        Follows Algorithm 1: selection balls of radius
        ``(1 + 2*eps_hat) * radius``, coverage balls of radius
        ``(3 + 4*eps_hat) * radius``, stop when ``k`` centers are chosen or
        nothing is left uncovered.

        Cost per probe: one ``O(m^2)`` pass over the cached pairwise
        matrix for the initial ball weights, then after each pick but the
        last a pass over the newly covered rows (subtracted) or the
        still-uncovered rows (recomputed), whichever are fewer. Rows are
        read ``_ROW_BLOCK`` at a time, so no ``m x m`` temporary is built.
        With integer weights every ball weight is exact, and the result
        is that of the literal algorithm.
        """
        if radius < 0:
            raise InvalidParameterError("radius must be non-negative")
        selection_radius = (1.0 + 2.0 * self._eps_hat) * radius
        coverage_radius = (3.0 + 4.0 * self._eps_hat) * radius

        uncovered = np.ones(len(self._coreset), dtype=bool)
        ball_weights = self._weight_within(None, selection_radius)
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
                ball_weights -= self._weight_within(newly_covered, selection_radius)
            else:
                ball_weights = self._weight_within(still_uncovered, selection_radius)

        return OutliersClusterResult(
            center_indices=np.array(centers, dtype=np.intp),
            uncovered_mask=uncovered,
            uncovered_weight=float(self._weights[uncovered].sum()),
            radius=float(radius),
        )

    def _weight_within(self, rows: np.ndarray | None, radius: float) -> np.ndarray:
        """Per point, the weight of ``rows`` (all if ``None``) within ``radius`` of it.

        The pairwise matrix is exactly symmetric, so this sums rows
        ``weights[i] * (pairwise[i] <= radius)``, ``_ROW_BLOCK`` at a
        time: contiguous reads where columns would be strided gathers.
        """
        total = np.zeros(self._pairwise.shape[0])
        count = total.size if rows is None else rows.size
        for start in range(0, count, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            if rows is not None:
                block = rows[block]
            total += self._weights[block] @ (self._pairwise[block] <= radius)
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
