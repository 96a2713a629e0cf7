"""2-round MapReduce algorithm for k-center (Section 3.1, Theorem 1).

Round 1 partitions the input into ``ell`` subsets and, in parallel, runs
the incremental GMM traversal on each subset until the coreset stopping
rule is met (either the theoretical ``epsilon`` rule or the experimental
``tau = mu * k`` rule). Round 2 gathers the union of the per-partition
coresets into one reducer and runs GMM on the union to produce the final
``k`` centers. The result is a ``(2 + eps)``-approximation with local
memory ``O(|S|/ell + ell * k * (4/eps)^D)``.

Setting ``coreset_multiplier = 1`` recovers the algorithm of Malkomes et
al. [26] (the paper's baseline in Figure 2), which is also exposed
directly as :class:`repro.baselines.malkomes.MalkomesKCenter`.

Both entry points run the same pipeline: the input is shuffled chunk by
chunk into per-partition storage (``fit`` streams its matrix through
:class:`~repro.streaming.stream.ArrayStream`), rounds 1 and 2 follow,
and a third round scores each partition against the final centers to
compute the radius. The reducers are module-level functions
parameterised with :func:`functools.partial` over picklable arguments
(partitions travel as :class:`~repro.mapreduce.backends.SharedArray`
handles), so the driver runs unchanged — and produces identical results
— on every executor backend, including ``"processes"``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .._validation import check_positive_int, check_random_state
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
from ..streaming.stream import ArrayStream
from .coreset import CoresetSpec, build_coreset
from .gmm import gmm_select

__all__ = ["MRKCenterResult", "MapReduceKCenter"]


_PARTITIONINGS = ("contiguous", "round_robin", "random")


@dataclass(frozen=True)
class _Coreset:
    """Round-1 output: a partition's coreset rows with their global indices."""

    points: np.ndarray
    origin_indices: np.ndarray
    elapsed: float

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class _Solution:
    """Round-2 output: the solution with coordinates."""

    centers: np.ndarray
    center_indices: np.ndarray
    coreset_size: int
    elapsed: float


@dataclass(frozen=True)
class _AssignTask:
    """Round-3 input: score one partition against the centers."""

    partition: StreamedPartition
    centers: np.ndarray

    def __len__(self) -> int:
        return len(self.partition)


def _coreset_reducer(
    partition_id,
    values,
    *,
    spec: CoresetSpec,
    metric: Metric,
    seeds: tuple[int, ...],
):
    """Build the coreset of one partition (round-1 reducer; picklable).

    The reducer works on its own partition matrix and forwards coreset
    *coordinates* alongside the global indices from the partition's
    index column.
    """
    part: StreamedPartition = values[0]
    start = time.perf_counter()
    result = build_coreset(
        part.points.array,
        spec,
        metric,
        weighted=False,
        first_center=None,
        random_state=seeds[partition_id],
    )
    elapsed = time.perf_counter() - start
    return [
        (
            0,
            _Coreset(
                points=part.points.array[result.center_indices],
                origin_indices=part.indices.array[result.center_indices],
                elapsed=elapsed,
            ),
        )
    ]


def _solve_reducer(
    _key,
    values,
    *,
    k: int,
    metric: Metric,
    seed: int,
):
    """Run GMM on the union of the coresets (round-2 reducer; picklable)."""
    union_points = np.concatenate([value.points for value in values])
    union_origin = np.concatenate([value.origin_indices for value in values])
    start = time.perf_counter()
    solution = gmm_select(
        union_points,
        k,
        metric,
        first_center=None,
        random_state=seed,
    )
    elapsed = time.perf_counter() - start
    return [
        (
            0,
            _Solution(
                centers=union_points[solution.centers],
                center_indices=union_origin[solution.centers],
                coreset_size=int(union_points.shape[0]),
                elapsed=elapsed,
            ),
        )
    ]


def _assign_reducer(_partition_id, values, *, metric: Metric):
    """Radius of one partition w.r.t. the final centers (round-3 reducer; picklable).

    Uses the blocked :meth:`~repro.metricspace.distance.Metric.nearest`
    kernel, so the reducer's working set stays at its partition plus the
    ``k`` centers — never the ``(n_i, k)`` cross matrix.
    """
    task: _AssignTask = values[0]
    distances, _ = metric.nearest(task.partition.points.array, task.centers)
    return [(0, float(distances.max()))]


@dataclass(frozen=True)
class MRKCenterResult:
    """Result of a 2-round MapReduce k-center run.

    Attributes
    ----------
    centers:
        ``(k, d)`` coordinates of the returned centers.
    center_indices:
        Indices of the centers in the original dataset.
    radius:
        Radius of the dataset with respect to the returned centers.
    coreset_size:
        Size of the union of the per-partition coresets handled by the
        second-round reducer.
    ell:
        Number of partitions (degree of parallelism) used.
    stats:
        MapReduce accounting (rounds, local / aggregate memory, parallel
        time estimate).
    coreset_time:
        Wall-clock seconds spent building the per-partition coresets
        (sum over partitions; divide by ``ell`` for the ideal parallel time,
        or use ``stats`` for the slowest-reducer estimate).
    solve_time:
        Wall-clock seconds spent solving on the union of the coresets.
    peak_working_memory_size:
        The paper's space metric (stored points): the largest working
        set any single participant held — reducers *and* the
        coordinator: ``O(n/ell + chunk + union coreset)``.
    """

    centers: np.ndarray
    center_indices: np.ndarray
    radius: float
    coreset_size: int
    ell: int
    stats: JobStats
    coreset_time: float
    solve_time: float
    peak_working_memory_size: int = 0

    @property
    def k(self) -> int:
        """Number of returned centers."""
        return int(self.centers.shape[0])


class MapReduceKCenter:
    """Coreset-based 2-round MapReduce solver for the k-center problem.

    Parameters
    ----------
    k:
        Number of centers.
    ell:
        Number of partitions (the paper's degree of parallelism). The
        theory suggests ``ell = Theta(sqrt(|S| / k))``; any value >= 1 works.
    epsilon:
        Precision parameter of the theoretical coreset stopping rule.
        Mutually exclusive with ``coreset_multiplier``; if neither is
        given, ``epsilon = 1.0`` is used.
    coreset_multiplier:
        The experimental knob ``mu``: each partition contributes a coreset
        of exactly ``mu * k`` points. ``mu = 1`` is the baseline of [26].
    partitioning:
        ``"contiguous"`` (default), ``"round_robin"`` or ``"random"``.
    metric:
        Metric name or instance.
    random_state:
        Seed for the random partitioning and the arbitrary choice of the
        first GMM center in each partition.
    local_memory_limit:
        Optional per-reducer memory cap (items) enforced by the runtime.
    max_workers:
        Workers used by the runtime to execute the per-partition coreset
        constructions concurrently (1 = sequential). The result is
        deterministic for any value because per-partition seeds are drawn
        up front.
    backend:
        Executor backend for the runtime: ``"serial"``, ``"threads"``,
        ``"processes"``, ``"distributed"``, an instance, or ``None``
        (threads when ``max_workers`` > 1, distributed when ``workers``
        is given, serial otherwise). All backends produce identical
        centers, radii and accounting, modulo timings.
    workers:
        Worker daemon addresses (``["host:port", ...]``) for the
        distributed backend — see the "Distributed backend" section of
        the :mod:`repro.mapreduce.runtime` docstring. Each daemon is
        started with ``repro worker --listen HOST:PORT``.

    Examples
    --------
    >>> from repro.datasets import gaussian_mixture, GaussianMixtureSpec
    >>> pts = gaussian_mixture(500, GaussianMixtureSpec(5, 2), random_state=0)
    >>> result = MapReduceKCenter(k=5, ell=4, coreset_multiplier=4,
    ...                           random_state=0).fit(pts)
    >>> result.k
    5
    """

    def __init__(
        self,
        k: int,
        *,
        ell: int = 4,
        epsilon: float | None = None,
        coreset_multiplier: float | None = None,
        partitioning: str = "contiguous",
        metric: str | Metric = "euclidean",
        random_state=None,
        local_memory_limit: int | None = None,
        max_workers: int | None = None,
        backend: str | ExecutorBackend | None = None,
        workers=None,
    ) -> None:
        self.k = check_positive_int(k, name="k")
        self.ell = check_positive_int(ell, name="ell")
        if epsilon is not None and coreset_multiplier is not None:
            raise InvalidParameterError(
                "epsilon and coreset_multiplier are mutually exclusive"
            )
        if epsilon is None and coreset_multiplier is None:
            epsilon = 1.0
        self.epsilon = epsilon
        self.coreset_multiplier = coreset_multiplier
        if partitioning not in _PARTITIONINGS:
            raise InvalidParameterError(
                f"partitioning must be one of {sorted(_PARTITIONINGS)}; got {partitioning!r}"
            )
        self.partitioning = partitioning
        self.metric = get_metric(metric)
        self.random_state = random_state
        self.local_memory_limit = local_memory_limit
        if max_workers is not None:
            max_workers = check_positive_int(max_workers, name="max_workers")
        self.max_workers = max_workers
        self.backend = backend
        self.workers = None if workers is None else list(workers)

    # -- helpers -----------------------------------------------------------------------

    def _coreset_spec(self) -> CoresetSpec:
        if self.coreset_multiplier is not None:
            return CoresetSpec.from_multiplier(self.k, self.coreset_multiplier)
        return CoresetSpec.from_epsilon(self.k, self.epsilon)

    # -- entry points ------------------------------------------------------------------

    def fit(self, points) -> MRKCenterResult:
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
    ) -> MRKCenterResult:
        """Run the algorithm on a chunked point stream, out of core.

        The coordinator never materialises the ``(n, d)`` matrix: chunks
        are routed straight into per-partition storage (files under
        ``/dev/shm`` under the ``"processes"`` backend), the reducers
        build their coresets from their own partitions, and the final
        radius is computed by a third MapReduce round that scores each
        partition against the centers with the blocked
        :meth:`~repro.metricspace.distance.Metric.nearest` kernel. The
        coordinator's working set is ``O(chunk_size + union coreset)``
        (see ``stats.coordinator_peak_items``), which restores the
        paper's memory model: dataset size is bounded by the *reducers'*
        memory, not the coordinator's. Centers, indices and radius are
        bit-identical on every backend, storage tier and chunk size.

        Parameters
        ----------
        stream:
            A :class:`~repro.streaming.stream.PointStream`, or any
            iterable of points / point batches (wrapped in a
            :class:`~repro.streaming.stream.GeneratorStream`).
            ``"contiguous"`` partitioning needs a stream with a known
            length (``len(stream)``); unknown-length sources can use
            ``"round_robin"`` or ``"random"``. ``ell`` is capped at the
            stream length when it is known and used as given otherwise.
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
        spec = self._coreset_spec()

        with MapReduceRuntime(
            local_memory_limit=self.local_memory_limit,
            max_workers=self.max_workers,
            backend=self.backend,
            workers=self.workers,
            storage=storage,
            spill_dir=spill_dir,
            memory_budget_bytes=memory_budget_bytes,
        ) as runtime:
            parts, n, _ = shuffle_point_stream(
                runtime,
                stream,
                ell=self.ell,
                partitioning=self.partitioning,
                rng=rng,
                chunk_size=chunk_size,
            )
            if self.k > n:
                raise InvalidParameterError(f"k={self.k} exceeds the dataset size {n}")
            partition_seeds = draw_partition_seeds(rng, len(parts))
            final_seed = int(rng.integers(2**31 - 1))

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

            solution: _Solution = runtime.execute_round(
                coreset_outputs,
                identity_mapper,
                partial(
                    _solve_reducer,
                    k=self.k,
                    metric=self.metric,
                    seed=final_seed,
                ),
            )[0][1]
            # The union of the coresets passed through the coordinator
            # between rounds 1 and 2: charge it to the coordinator's peak.
            runtime.note_coordinator_items(solution.coreset_size)

            assign_pairs = [
                (partition_id, _AssignTask(part, solution.centers))
                for partition_id, part in enumerate(parts)
                if len(part)
            ]
            assign_outputs = runtime.execute_round(
                assign_pairs,
                identity_mapper,
                partial(_assign_reducer, metric=self.metric),
            )
            radius = max(value for _, value in assign_outputs)
            stats = runtime.stats

        return MRKCenterResult(
            centers=solution.centers,
            center_indices=solution.center_indices,
            radius=radius,
            coreset_size=solution.coreset_size,
            ell=len(coreset_pairs),
            stats=stats,
            coreset_time=coreset_time,
            solve_time=solution.elapsed,
            peak_working_memory_size=stats.peak_working_memory_size,
        )
