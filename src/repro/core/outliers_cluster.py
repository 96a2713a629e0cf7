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
:mod:`repro.core.radius_search` can probe many radii cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_eps_hat, check_positive_int
from ..exceptions import InvalidParameterError
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints

__all__ = ["OutliersClusterResult", "OutliersClusterSolver", "outliers_cluster"]


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
        upper = self._pairwise[np.triu_indices(self._pairwise.shape[0], k=1)]
        return np.unique(upper)

    # -- the algorithm -----------------------------------------------------------------

    def run(self, radius: float) -> OutliersClusterResult:
        """Execute OUTLIERSCLUSTER with the radius guess ``radius``.

        Follows Algorithm 1 literally: selection balls of radius
        ``(1 + 2*eps_hat) * radius``, coverage balls of radius
        ``(3 + 4*eps_hat) * radius``, stop when ``k`` centers are chosen or
        nothing is left uncovered.
        """
        if radius < 0:
            raise InvalidParameterError("radius must be non-negative")
        selection_radius = (1.0 + 2.0 * self._eps_hat) * radius
        coverage_radius = (3.0 + 4.0 * self._eps_hat) * radius

        n = len(self._coreset)
        uncovered = np.ones(n, dtype=bool)
        # One boolean threshold pass over the cached pairwise matrix per
        # probe (no (n, n) float64 materialisation), then the per-ball
        # uncovered weights are maintained *incrementally*: selecting a
        # center only subtracts the newly covered points' contributions
        # (narrow column slices) instead of redoing a dense matrix-vector
        # product per iteration. For the integer proxy weights of the
        # coreset constructions the running values are exact.
        selection_balls = self._pairwise <= selection_radius
        ball_weights = selection_balls @ self._weights
        centers: list[int] = []

        while len(centers) < self._k and uncovered.any():
            center = int(np.argmax(ball_weights))
            centers.append(center)
            newly_covered = np.flatnonzero(
                uncovered & (self._pairwise[center] <= coverage_radius)
            )
            uncovered[newly_covered] = False
            ball_weights -= selection_balls[:, newly_covered] @ self._weights[newly_covered]

        return OutliersClusterResult(
            center_indices=np.array(centers, dtype=np.intp),
            uncovered_mask=uncovered,
            uncovered_weight=float(self._weights[uncovered].sum()),
            radius=float(radius),
        )

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
