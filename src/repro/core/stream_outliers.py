"""Streaming algorithms for k-center with z outliers (Section 4).

Two algorithms are provided:

* :class:`CoresetStreamOutliers` (CORESETOUTLIERS) — the paper's 1-pass
  ``(3 + eps)``-approximation: a weighted doubling-algorithm coreset of
  ``tau`` centers is maintained during the pass and, at the end, the
  final centers are extracted with OUTLIERSCLUSTER plus the radius
  search, exactly as in the second round of the MapReduce algorithm.
  Theory sets ``tau = (k + z) (16/eps_hat)^D``; the experiments of
  Figure 5 use the space knob ``tau = mu * (k + z)``.
* :class:`TwoPassStreamOutliers` — the 2-pass variant that is *oblivious*
  to the doubling dimension: the first pass runs the doubling algorithm
  for ``(k + z)`` centers to obtain a radius estimate
  ``r_hat <= 8 r*_{k+z}``; the second pass grows a maximal weighted set
  of points with mutual distances above ``(eps/48) r_hat`` (each stream
  point is counted towards its closest retained point); the final centers
  again come from OUTLIERSCLUSTER + radius search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import (
    check_eps_hat,
    check_epsilon,
    check_non_negative_int,
    check_positive_int,
)
from ..exceptions import InvalidParameterError, NotFittedError
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints
from ..streaming.runner import StreamingAlgorithm
from .doubling_coreset import StreamingCoreset
from .outliers_cluster import OutliersClusterSolver
from .radius_search import search_radius

__all__ = [
    "StreamOutliersSolution",
    "CoresetStreamOutliers",
    "TwoPassStreamOutliers",
]


@dataclass(frozen=True)
class StreamOutliersSolution:
    """Final answer of a streaming k-center-with-outliers algorithm.

    Attributes
    ----------
    centers:
        ``(<=k, d)`` coordinates of the selected centers.
    estimated_radius:
        The ``r_tilde_min`` found by the radius search on the coreset.
    coreset_size:
        Number of weighted coreset points used for the final solve.
    search_probes:
        Number of OUTLIERSCLUSTER runs performed by the radius search.
    n_processed:
        Number of stream points consumed (per pass).
    """

    centers: np.ndarray
    estimated_radius: float
    coreset_size: int
    search_probes: int
    n_processed: int

    @property
    def k(self) -> int:
        """Number of returned centers."""
        return int(self.centers.shape[0])


def _solve_on_coreset(
    coreset: WeightedPoints,
    k: int,
    z: int,
    eps_hat: float,
    metric: Metric,
    n_processed: int,
) -> StreamOutliersSolution:
    """Common final phase: OUTLIERSCLUSTER + radius search on a weighted coreset."""
    solver = OutliersClusterSolver(coreset, k, eps_hat=eps_hat, metric=metric)
    search = search_radius(solver, z)
    positions = search.solution.center_indices
    return StreamOutliersSolution(
        centers=coreset.points[positions],
        estimated_radius=search.radius,
        coreset_size=len(coreset),
        search_probes=search.probes,
        n_processed=n_processed,
    )


class CoresetStreamOutliers(StreamingAlgorithm):
    """CORESETOUTLIERS: 1-pass (3+eps)-approximation for k-center with z outliers.

    Parameters
    ----------
    k, z:
        Number of centers and outlier budget.
    coreset_size:
        Explicit coreset budget ``tau``; overrides ``coreset_multiplier``.
        Must be at least ``k + z`` (the analysis requires ``tau >= k + z``;
        with fewer points the final OUTLIERSCLUSTER could not even
        distinguish the outliers).
    coreset_multiplier:
        Space knob ``mu``: ``tau = mu * (k + z)`` (default ``mu = 8``).
    eps_hat:
        Precision parameter of OUTLIERSCLUSTER (default 1/6, matching
        ``epsilon = 1``).
    metric:
        Metric name or instance.
    """

    def __init__(
        self,
        k: int,
        z: int,
        *,
        coreset_size: int | None = None,
        coreset_multiplier: float = 8.0,
        eps_hat: float = 1.0 / 6.0,
        metric: str | Metric = "euclidean",
    ) -> None:
        self.k = check_positive_int(k, name="k")
        self.z = check_non_negative_int(z, name="z")
        if coreset_size is None:
            if not (np.isfinite(coreset_multiplier) and coreset_multiplier >= 1):
                raise InvalidParameterError(
                    f"coreset_multiplier must be finite and >= 1; got {coreset_multiplier!r}"
                )
            coreset_size = int(round(coreset_multiplier * (self.k + self.z)))
        self.coreset_size = check_positive_int(coreset_size, name="coreset_size")
        if self.coreset_size < self.k + self.z:
            raise InvalidParameterError("coreset_size must be at least k + z")
        self.eps_hat = check_eps_hat(eps_hat)
        self.metric = get_metric(metric)
        self._coreset = StreamingCoreset(self.coreset_size, metric=self.metric)

    # -- StreamingAlgorithm protocol -----------------------------------------------------

    def process(self, point: np.ndarray) -> None:
        """Feed one stream point into the maintained weighted coreset."""
        self._coreset.process(point)

    def process_batch(self, batch: np.ndarray) -> None:
        """Feed a chunk of stream points through the vectorized update rule."""
        self._coreset.process_batch(batch)

    @property
    def working_memory_size(self) -> int:
        """Stored points (buffered + coreset centers)."""
        return self._coreset.working_memory_size

    @property
    def peak_working_memory_size(self) -> int:
        """Exact peak tracked by the coreset, drive-path independent."""
        return self._coreset.peak_working_memory_size

    def finalize(self) -> StreamOutliersSolution:
        """Extract the final centers from the weighted coreset."""
        coreset = self._coreset.coreset()
        return _solve_on_coreset(
            coreset,
            self.k,
            self.z,
            self.eps_hat,
            self.metric,
            self._coreset.n_processed,
        )


class TwoPassStreamOutliers(StreamingAlgorithm):
    """2-pass, doubling-dimension-oblivious (3+eps)-approximation with outliers.

    Parameters
    ----------
    k, z:
        Number of centers and outlier budget.
    epsilon:
        Precision parameter ``eps`` in ``(0, 1]``; the second pass keeps a
        maximal set of points with mutual distance above
        ``(epsilon / 48) * r_hat`` and OUTLIERSCLUSTER runs with
        ``eps_hat = epsilon / 6``.
    metric:
        Metric name or instance.
    max_coreset_size:
        Optional safety cap on the second-pass coreset size (the theory
        bounds it by ``(k+z)(96/eps)^D``, which is finite but can be huge
        for adversarial inputs).
    """

    n_passes = 2

    def __init__(
        self,
        k: int,
        z: int,
        *,
        epsilon: float = 1.0,
        metric: str | Metric = "euclidean",
        max_coreset_size: int | None = None,
    ) -> None:
        self.k = check_positive_int(k, name="k")
        self.z = check_non_negative_int(z, name="z")
        self.epsilon = check_epsilon(epsilon)
        self.eps_hat = self.epsilon / 6.0
        self.metric = get_metric(metric)
        self.max_coreset_size = (
            None if max_coreset_size is None
            else check_positive_int(max_coreset_size, name="max_coreset_size")
        )

        self._first_pass = StreamingCoreset(self.k + self.z, metric=self.metric)
        self._current_pass = 0
        self._separation: float | None = None
        self._points: list[np.ndarray] = []
        self._weights: list[float] = []
        self._n_processed_second = 0

    # -- StreamingAlgorithm protocol -----------------------------------------------------

    def start_pass(self, pass_index: int) -> None:
        """Switch phases between the two passes."""
        self._current_pass = pass_index
        if pass_index == 1:
            radius_estimate = 8.0 * self._first_pass.phi
            if radius_estimate <= 0.0:
                # Degenerate stream (all first-pass points coincide or very
                # short stream): fall back to keeping every distinct point.
                radius_estimate = 0.0
            self._separation = (self.epsilon / 48.0) * radius_estimate

    def process(self, point: np.ndarray) -> None:
        """First pass feeds the doubling algorithm; second pass grows the coreset."""
        if self._current_pass == 0:
            self._first_pass.process(point)
            return

        point = np.asarray(point, dtype=np.float64).reshape(-1)
        self._n_processed_second += 1
        if self._points:
            existing = np.vstack(self._points)
            distances = self.metric.point_to_points(point, existing)
            closest = int(np.argmin(distances))
            if distances[closest] <= self._separation or (
                self.max_coreset_size is not None
                and len(self._points) >= self.max_coreset_size
            ):
                self._weights[closest] += 1.0
                return
        self._points.append(np.array(point))
        self._weights.append(1.0)

    def process_batch(self, batch: np.ndarray) -> None:
        """Chunked version of :meth:`process`; equivalent to a row-by-row loop."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if self._current_pass == 0:
            self._first_pass.process_batch(batch)
            return
        n = batch.shape[0]
        self._n_processed_second += n
        position = 0
        while position < n and not self._points:
            self._points.append(np.array(batch[position]))
            self._weights.append(1.0)
            position += 1
        if position >= n:
            return

        tail = batch[position:]
        dmin, amin = self.metric.nearest(tail, np.vstack(self._points))
        pos = 0
        m = tail.shape[0]
        while pos < m:
            if (
                self.max_coreset_size is not None
                and len(self._points) >= self.max_coreset_size
            ):
                # At capacity every remaining point is absorbed by its
                # closest retained point; the retained set no longer grows,
                # so the cached assignments stay valid.
                self._absorb(amin[pos:])
                return
            separated = np.flatnonzero(dmin[pos:] > self._separation)
            if separated.size == 0:
                self._absorb(amin[pos:])
                return
            first = pos + int(separated[0])
            if first > pos:
                self._absorb(amin[pos:first])
            new_index = len(self._points)
            self._points.append(np.array(tail[first]))
            self._weights.append(1.0)
            pos = first + 1
            if pos < m:
                to_new = self.metric.cdist(tail[pos:], tail[first].reshape(1, -1))[:, 0]
                closer = to_new < dmin[pos:]
                dmin[pos:][closer] = to_new[closer]
                amin[pos:][closer] = new_index

    def _absorb(self, indices: np.ndarray) -> None:
        """Bulk ``weights[closest] += 1`` over a run of absorbed points."""
        counts = np.bincount(indices, minlength=len(self._weights))
        for index in np.flatnonzero(counts):
            self._weights[index] += float(counts[index])

    @property
    def working_memory_size(self) -> int:
        """Stored points across both passes' data structures."""
        return self._first_pass.working_memory_size + len(self._points)

    @property
    def peak_working_memory_size(self) -> int:
        """Exact peak across both passes, drive-path independent.

        The second-pass store only ever grows, so the peak is the larger
        of the first pass's tracked peak and the current working set.
        """
        return max(
            self._first_pass.peak_working_memory_size,
            self.working_memory_size,
        )

    def finalize(self) -> StreamOutliersSolution:
        """Extract the final centers from the second-pass weighted coreset."""
        if not self._points:
            raise NotFittedError("the second pass processed no points")
        coreset = WeightedPoints(
            points=np.vstack(self._points), weights=np.array(self._weights)
        )
        return _solve_on_coreset(
            coreset,
            self.k,
            self.z,
            self.eps_hat,
            self.metric,
            self._n_processed_second,
        )
