"""2-round MapReduce algorithms for k-center with z outliers (Section 3.2).

Two variants are provided through a single driver class:

* the **deterministic** algorithm (Theorem 2): arbitrary equal-size
  partitioning, per-partition weighted coresets of base size ``k + z``,
  final solution via OUTLIERSCLUSTER + radius search on the union —
  a ``(3 + eps)``-approximation with local memory
  ``O(sqrt(|S| (k+z)) (24/eps)^D)``;
* the **randomized** algorithm (Section 3.2.1, Corollary 3): uniformly
  random partitioning and per-partition base size ``k + z'`` with
  ``z' = 6 (z/ell + log2 |S|)`` — with high probability the same
  approximation using much smaller coresets when ``z`` is large.

Both variants accept the paper's experimental knob ``coreset_multiplier``
(``mu``) instead of the theoretical ``epsilon`` stopping rule: the
deterministic variant then uses coresets of size ``mu * (k + z)`` and the
randomized one ``mu * (k + 6 z / ell)``, exactly the configurations of
Figure 4.

Both entry points run the pipeline described in
:mod:`repro.core.mr_kcenter`: a chunked shuffle into per-partition
storage, the two rounds above, and an assignment round that computes
the radii and the outlier set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .._validation import (
    check_non_negative_int,
    check_positive_int,
    check_random_state,
)
from ..exceptions import InvalidParameterError
from ..mapreduce.backends import ExecutorBackend
from ..mapreduce.partitioner import draw_partition_seeds
from ..mapreduce.runtime import (
    JobStats,
    MapReduceRuntime,
    StreamedPartition,
    identity_mapper,
    shuffle_point_stream,
)
from ..metricspace.distance import Metric, get_metric
from ..metricspace.points import WeightedPoints
from ..streaming.stream import ArrayStream
from .coreset import CoresetSpec, build_coreset
from .outliers_cluster import OutliersClusterSolver
from .radius_search import search_radius

__all__ = ["MROutliersResult", "MapReduceKCenterOutliers"]


@dataclass(frozen=True)
class _CoresetPhaseOutput:
    """Round-1 reducer output: a partition's weighted coreset plus its build time.

    The coordinator sums the timings; only the coreset continues into
    round 2, so memory accounting sees exactly the same values on every
    backend.
    """

    coreset: WeightedPoints
    elapsed: float


@dataclass(frozen=True)
class _SolvePhaseOutput:
    """Round-2 reducer output: the union, the radius search outcome, the solve time."""

    union: WeightedPoints
    search: object
    elapsed: float


def _coreset_reducer(
    partition_id,
    values,
    *,
    spec: CoresetSpec,
    metric: Metric,
    seeds: tuple[int, ...],
):
    """Build one partition's weighted coreset (round-1 reducer; picklable).

    Global origin indices come from the partition's index column.
    """
    part: StreamedPartition = values[0]
    start = time.perf_counter()
    result = build_coreset(
        part.points.array,
        spec,
        metric,
        weighted=True,
        origin_offset=0,
        first_center=None,
        random_state=seeds[partition_id],
    )
    elapsed = time.perf_counter() - start
    coreset = WeightedPoints(
        points=result.coreset.points,
        weights=result.coreset.weights,
        origin_indices=part.indices.array[result.center_indices],
    )
    return [(0, _CoresetPhaseOutput(coreset, elapsed))]


def _solve_reducer(
    _key,
    values,
    *,
    k: int,
    z: int,
    eps_hat: float,
    metric: Metric,
):
    """Radius search + OUTLIERSCLUSTER on the coreset union (round-2 reducer; picklable)."""
    union = WeightedPoints.concatenate(values)
    start = time.perf_counter()
    solver = OutliersClusterSolver(union, k, eps_hat=eps_hat, metric=metric)
    search = search_radius(solver, z)
    elapsed = time.perf_counter() - start
    return [(0, _SolvePhaseOutput(union, search, elapsed))]


@dataclass(frozen=True)
class _OutlierAssignTask:
    """Round-3 input: score one partition against the centers."""

    partition: StreamedPartition
    centers: np.ndarray
    z: int

    def __len__(self) -> int:
        return len(self.partition)


def _assign_reducer(_partition_id, values, *, metric: Metric):
    """Per-partition distance summary vs the final centers (round-3; picklable).

    Uses the blocked :meth:`~repro.metricspace.distance.Metric.nearest`
    kernel and returns only what the coordinator needs to reconstruct
    the global outlier set: the partition's ``z + 1`` largest
    center-distances with their global indices. Merging the
    per-partition top lists recovers the exact global top ``z + 1``
    (every globally-large distance is large within its partition).
    """
    task: _OutlierAssignTask = values[0]
    indices = task.partition.indices.array
    distances, _ = metric.nearest(task.partition.points.array, task.centers)
    keep = min(task.z + 1, distances.shape[0])
    # Order by (distance, global index) — the same tie-break the global
    # selection uses — so the kept candidates are exactly the ones a
    # global selection would pick among equal distances.
    order = np.lexsort((indices, distances))[-keep:]
    return [(0, (distances[order], indices[order]))]


@dataclass(frozen=True)
class MROutliersResult:
    """Result of a 2-round MapReduce k-center-with-outliers run.

    Attributes
    ----------
    centers:
        ``(<=k, d)`` coordinates of the returned centers.
    center_indices:
        Indices of the centers in the original dataset (when available).
    radius:
        Radius of the dataset w.r.t. the centers **after discarding the
        z farthest points** (the problem's objective).
    radius_all_points:
        Plain radius including the outliers, for reference.
    outlier_indices:
        Indices of the ``z`` points the solution leaves farthest away.
    estimated_radius:
        The ``r_tilde_min`` found by the radius search on the coreset.
    coreset_size:
        Size of the union of the weighted coresets.
    ell:
        Number of partitions used.
    randomized:
        Whether the randomized variant was used.
    stats:
        MapReduce accounting.
    coreset_time, solve_time:
        Wall-clock seconds in the two phases (coreset construction summed
        over partitions; radius search + OUTLIERSCLUSTER for the solve).
    search_probes:
        Number of OUTLIERSCLUSTER executions performed by the radius search.
    peak_working_memory_size:
        The paper's space metric (stored points): the largest working
        set any single participant held — reducers *and* the
        coordinator: ``O(n/ell + chunk + union coreset)``.
    """

    centers: np.ndarray
    center_indices: np.ndarray
    radius: float
    radius_all_points: float
    outlier_indices: np.ndarray
    estimated_radius: float
    coreset_size: int
    ell: int
    randomized: bool
    stats: JobStats
    coreset_time: float
    solve_time: float
    search_probes: int
    peak_working_memory_size: int = 0

    @property
    def k(self) -> int:
        """Number of returned centers."""
        return int(self.centers.shape[0])


class MapReduceKCenterOutliers:
    """Coreset-based 2-round MapReduce solver for k-center with z outliers.

    Parameters
    ----------
    k:
        Number of centers.
    z:
        Number of outliers the objective may discard.
    ell:
        Number of partitions (degree of parallelism).
    epsilon:
        Precision parameter; drives both the theoretical coreset stopping
        rule and ``eps_hat = epsilon / 6`` used by OUTLIERSCLUSTER.
        Mutually exclusive with ``coreset_multiplier``.
    coreset_multiplier:
        The experimental knob ``mu``: per-partition coresets of size
        ``mu * (k + z)`` (deterministic) or ``mu * (k + 6 z / ell)``
        (randomized). ``mu = 1`` with the deterministic variant is the
        baseline of [26].
    randomized:
        Use the randomized partitioning / reduced coreset variant of
        Section 3.2.1.
    eps_hat:
        Explicit override of the OUTLIERSCLUSTER precision parameter.
        Defaults to ``epsilon / 6`` when ``epsilon`` is given, else to
        ``1/6`` (i.e. the value corresponding to ``epsilon = 1``).
    partitioning:
        ``"contiguous"``, ``"round_robin"``, ``"random"`` or
        ``"adversarial"``. The adversarial option requires
        ``adversarial_indices`` (typically the planted outliers) and
        reproduces the stress setup of Figure 4. The randomized variant
        always uses random partitioning regardless of this setting.
    adversarial_indices:
        Indices forced into a single partition under adversarial
        partitioning.
    include_log_term:
        Whether ``z'`` includes the ``log2 |S|`` term of Lemma 7 (the
        paper's experiments drop it; theory keeps it). Only relevant for
        the randomized variant.
    metric, random_state, local_memory_limit, max_workers, backend, workers:
        As in :class:`~repro.core.mr_kcenter.MapReduceKCenter`
        (``workers`` are the distributed backend's daemon addresses).
    """

    def __init__(
        self,
        k: int,
        z: int,
        *,
        ell: int = 4,
        epsilon: float | None = None,
        coreset_multiplier: float | None = None,
        randomized: bool = False,
        eps_hat: float | None = None,
        partitioning: str = "contiguous",
        adversarial_indices=None,
        include_log_term: bool = True,
        metric: str | Metric = "euclidean",
        random_state=None,
        local_memory_limit: int | None = None,
        max_workers: int | None = None,
        backend: str | ExecutorBackend | None = None,
        workers=None,
    ) -> None:
        self.k = check_positive_int(k, name="k")
        self.z = check_non_negative_int(z, name="z")
        self.ell = check_positive_int(ell, name="ell")
        if epsilon is not None and coreset_multiplier is not None:
            raise InvalidParameterError(
                "epsilon and coreset_multiplier are mutually exclusive"
            )
        if epsilon is None and coreset_multiplier is None:
            epsilon = 1.0
        self.epsilon = epsilon
        self.coreset_multiplier = coreset_multiplier
        self.randomized = bool(randomized)
        if eps_hat is None:
            eps_hat = (epsilon / 6.0) if epsilon is not None else 1.0 / 6.0
        if eps_hat < 0:
            raise InvalidParameterError("eps_hat must be non-negative")
        self.eps_hat = float(eps_hat)
        valid_partitionings = {"contiguous", "round_robin", "random", "adversarial"}
        if partitioning not in valid_partitionings:
            raise InvalidParameterError(
                f"partitioning must be one of {sorted(valid_partitionings)}; got {partitioning!r}"
            )
        if partitioning == "adversarial" and adversarial_indices is None:
            raise InvalidParameterError(
                "adversarial partitioning requires adversarial_indices"
            )
        self.partitioning = partitioning
        self.adversarial_indices = (
            None
            if adversarial_indices is None
            else np.asarray(adversarial_indices, dtype=np.intp)
        )
        self.include_log_term = bool(include_log_term)
        self.metric = get_metric(metric)
        self.random_state = random_state
        self.local_memory_limit = local_memory_limit
        if max_workers is not None:
            max_workers = check_positive_int(max_workers, name="max_workers")
        self.max_workers = max_workers
        self.backend = backend
        self.workers = None if workers is None else list(workers)

    # -- helpers -----------------------------------------------------------------------

    def _z_prime(self, n: int, ell: int) -> int:
        """The randomized variant's per-partition outlier bound ``z'`` (Lemma 7)."""
        log_term = math.log2(max(n, 2)) if self.include_log_term else 0.0
        return max(1, int(math.ceil(6.0 * (self.z / ell + log_term))))

    def _base_size(self, n: int, ell: int) -> int:
        if self.randomized:
            return self.k + self._z_prime(n, ell)
        return self.k + self.z

    def _coreset_spec(self, n: int, ell: int) -> CoresetSpec:
        base = self._base_size(n, ell)
        if self.coreset_multiplier is not None:
            return CoresetSpec.from_multiplier(base, self.coreset_multiplier)
        return CoresetSpec.from_epsilon(base, self.epsilon)

    # -- entry points ------------------------------------------------------------------

    def fit(self, points) -> MROutliersResult:
        """Run the algorithm on the ``(n, d)`` matrix ``points``.

        Shorthand for :meth:`fit_stream` over an
        :class:`~repro.streaming.stream.ArrayStream` of ``points`` with
        the default chunking and storage tier.
        """
        return self.fit_stream(ArrayStream(points))

    def fit_stream(
        self,
        stream,
        *,
        chunk_size: int = 4096,
        storage: str = "auto",
        spill_dir: str | None = None,
        memory_budget_bytes: int | None = None,
    ) -> MROutliersResult:
        """Run the algorithm on a chunked point stream, out of core.

        The coordinator never materialises the ``(n, d)`` matrix. The
        shuffle routes chunks directly into per-partition storage (files
        under ``/dev/shm`` under the ``"processes"`` backend); a third
        MapReduce round evaluates the final solution by scoring each
        partition against the centers with the blocked
        :meth:`~repro.metricspace.distance.Metric.nearest` kernel and
        returning only its ``z + 1`` largest distances, from which the
        coordinator reconstructs the exact global outlier set and radii.
        Centers, radii and outlier sets are bit-identical on every
        backend, storage tier and chunk size.

        Parameters
        ----------
        stream:
            A :class:`~repro.streaming.stream.PointStream`, or any
            iterable of points / point batches. ``"contiguous"`` and
            ``"adversarial"`` partitioning need a known stream length.
            ``ell`` is capped at the stream length when it is known and
            used as given otherwise.
        chunk_size:
            Rows per routing chunk; also the coordinator's transient
            working set during the shuffle.
        storage:
            Partition-storage tier for the shuffle: ``"auto"``
            (default), ``"memory"``, ``"shared"`` or ``"disk"``. Under
            ``"auto"`` with a ``memory_budget_bytes``, streams whose
            estimated partition footprint exceeds the budget spill to
            disk; ``stats.storage_tier`` / ``stats.spilled_bytes``
            report what ran. Every tier is bit-identical.
        spill_dir:
            Directory for ``"disk"``-tier spill files (default: a
            run-owned temporary directory, removed afterwards).
        memory_budget_bytes:
            In-memory partition budget consulted by ``storage="auto"``.
        """
        chunk_size = check_positive_int(chunk_size, name="chunk_size")
        rng = check_random_state(self.random_state)
        partitioning = (
            "random" if self.randomized or self.partitioning == "random"
            else self.partitioning
        )

        with MapReduceRuntime(
            local_memory_limit=self.local_memory_limit,
            max_workers=self.max_workers,
            backend=self.backend,
            workers=self.workers,
            storage=storage,
            spill_dir=spill_dir,
            memory_budget_bytes=memory_budget_bytes,
        ) as runtime:
            parts, n, ell = shuffle_point_stream(
                runtime,
                stream,
                ell=self.ell,
                partitioning=partitioning,
                rng=rng,
                chunk_size=chunk_size,
                adversarial_indices=self.adversarial_indices,
            )
            if self.k > n:
                raise InvalidParameterError(f"k={self.k} exceeds the dataset size {n}")
            if self.z >= n:
                raise InvalidParameterError(
                    f"z={self.z} must be smaller than the dataset size {n}"
                )
            spec = self._coreset_spec(n, ell)
            partition_seeds = draw_partition_seeds(rng, len(parts))

            coreset_pairs = [
                (partition_id, part)
                for partition_id, part in enumerate(parts)
                if len(part)
            ]
            coreset_outputs = runtime.execute_round(
                coreset_pairs,
                identity_mapper,
                partial(
                    _coreset_reducer,
                    spec=spec,
                    metric=self.metric,
                    seeds=partition_seeds,
                ),
            )
            coreset_time = sum(value.elapsed for _, value in coreset_outputs)

            solve_pairs = [(0, value.coreset) for _, value in coreset_outputs]
            solution: _SolvePhaseOutput = runtime.execute_round(
                solve_pairs,
                identity_mapper,
                partial(
                    _solve_reducer,
                    k=self.k,
                    z=self.z,
                    eps_hat=self.eps_hat,
                    metric=self.metric,
                ),
            )[0][1]
            union = solution.union
            search = solution.search
            runtime.note_coordinator_items(len(union))
            coreset_center_positions = search.solution.center_indices
            centers = union.points[coreset_center_positions]
            center_indices = (
                union.origin_indices[coreset_center_positions]
                if union.origin_indices is not None
                else np.full(coreset_center_positions.shape[0], -1, dtype=np.intp)
            )

            assign_pairs = [
                (partition_id, _OutlierAssignTask(part, centers, self.z))
                for partition_id, part in enumerate(parts)
                if len(part)
            ]
            assign_outputs = runtime.execute_round(
                assign_pairs,
                identity_mapper,
                partial(_assign_reducer, metric=self.metric),
            )
            stats = runtime.stats

        # Merge the per-partition top-(z+1) summaries into the global
        # outlier set. Sorting by (distance, index) reproduces the stable
        # tie-break of Clustering.outlier_indices, so the merge selects
        # exactly the outliers a global selection would.
        top_distances = np.concatenate([value[0] for _, value in assign_outputs])
        top_indices = np.concatenate([value[1] for _, value in assign_outputs])
        order = np.lexsort((top_indices, top_distances))
        radius_all = float(top_distances[order[-1]])
        if self.z == 0:
            outlier_indices = np.empty(0, dtype=np.intp)
            radius = radius_all
        else:
            outlier_indices = np.sort(top_indices[order[-self.z :]])
            radius = float(top_distances[order[-(self.z + 1)]])

        return MROutliersResult(
            centers=centers,
            center_indices=center_indices,
            radius=radius,
            radius_all_points=radius_all,
            outlier_indices=outlier_indices,
            estimated_radius=search.radius,
            coreset_size=len(union),
            ell=len(coreset_pairs),
            randomized=self.randomized,
            stats=stats,
            coreset_time=coreset_time,
            solve_time=solution.elapsed,
            search_probes=search.probes,
            peak_working_memory_size=stats.peak_working_memory_size,
        )
