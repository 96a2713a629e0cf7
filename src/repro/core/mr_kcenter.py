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

One skeleton for both MapReduce drivers
---------------------------------------
This algorithm and the outlier algorithms of
:mod:`repro.core.mr_outliers` are one computation: partition the input,
build a GMM coreset per partition, solve on the union of the coresets.
Both drivers derive from the private :class:`_CoresetMapReduce`, which
owns the shared constructor parameters, ``fit`` and ``fit_stream``. The
input is shuffled chunk by chunk into per-partition storage (``fit``
streams its matrix through :class:`~repro.streaming.stream.ArrayStream`),
then three rounds run:

1. every partition builds its coreset, carrying global origin indices;
2. the coordinator concatenates the union once and one reducer solves on
   it, returning the chosen union positions;
3. every partition is scored against the final centers and reports its
   ``z + 1`` largest distances, which the coordinator merges into the
   radii and the outlier set (``z = 0`` here, so this is the radius).

A driver supplies only its hooks: the partitioning it routes by
(``_routing``), the coreset size (``_coreset_spec(n, ell)``), whether
round 1 keeps weights (``_weighted``), the round-2 reducer
(``_solve_reducer``), ``z``, and how the result is packaged
(``_result``). The reducers are module-level functions parameterised
with :func:`functools.partial` over picklable arguments (partitions
travel as :class:`~repro.mapreduce.backends.SharedArray` handles), so
the skeleton runs unchanged — and produces identical results — on every
executor backend, including ``"processes"``. Phase times are read from
the runtime's per-round accounting, the only timer on this path.
"""

from __future__ import annotations

import dataclasses
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
from ..metricspace.points import WeightedPoints
from ..streaming.stream import ArrayStream
from .coreset import CoresetSpec, build_coreset
from .gmm import gmm_select

__all__ = ["MRKCenterResult", "MapReduceKCenter"]


@dataclass(frozen=True)
class _AssignTask:
    """Round-3 input: score one partition against the centers."""

    partition: StreamedPartition
    centers: np.ndarray
    z: int

    def __len__(self) -> int:
        return len(self.partition)


def _coreset_reducer(
    partition_id,
    values,
    *,
    spec: CoresetSpec,
    metric: Metric,
    seeds: tuple[int, ...],
    weighted: bool,
):
    """Build one partition's coreset (round-1 reducer; picklable).

    Weights are the proxy counts when ``weighted`` and all 1 otherwise;
    the origin indices are global, read from the partition's index column.
    """
    part: StreamedPartition = values[0]
    result = build_coreset(
        part.points.array,
        spec,
        metric,
        weighted=weighted,
        random_state=seeds[partition_id],
    )
    coreset = dataclasses.replace(
        result.coreset, origin_indices=part.indices.array[result.center_indices]
    )
    return [(0, coreset)]


def _gmm_reducer(_key, values, *, k: int, metric: Metric, seed: int):
    """Run GMM on the coreset union (k-center's round-2 reducer; picklable)."""
    union: WeightedPoints = values[0]
    solution = gmm_select(union.points, k, metric, random_state=seed)
    return [(0, (solution.centers, None))]


def _assign_reducer(_partition_id, values, *, metric: Metric):
    """Per-partition distance summary vs the final centers (round-3; picklable).

    Uses the blocked :meth:`~repro.metricspace.distance.Metric.nearest`
    kernel — the working set stays at the partition plus the centers —
    and returns only what the coordinator needs: the partition's
    ``z + 1`` largest center-distances with their global indices.
    Merging the per-partition top lists recovers the exact global top
    ``z + 1`` (every globally-large distance is large within its
    partition).
    """
    task: _AssignTask = values[0]
    indices = task.partition.indices.array
    distances, _ = metric.nearest(task.partition.points.array, task.centers)
    keep = min(task.z + 1, distances.shape[0])
    cut = distances.shape[0] - keep
    # Only distances at or above the keep-th largest can be kept. Order
    # those by (distance, global index) — the tie-break the coordinator's
    # merge uses — so the kept candidates are exactly the ones a global
    # selection would pick among equal distances.
    candidates = np.flatnonzero(distances >= np.partition(distances, cut)[cut])
    order = np.lexsort((indices[candidates], distances[candidates]))
    top = candidates[order[-keep:]]
    return [(0, (distances[top], indices[top]))]


class _MapReduceResult:
    """Views over ``stats`` shared by both drivers' results."""

    centers: np.ndarray
    stats: JobStats

    @property
    def k(self) -> int:
        """Number of returned centers."""
        return int(self.centers.shape[0])

    @property
    def coreset_time(self) -> float:
        """Seconds in the round-1 reducers, summed over partitions."""
        return self.stats.rounds[0].sequential_time

    @property
    def solve_time(self) -> float:
        """Seconds in the round-2 reducer."""
        return self.stats.rounds[1].sequential_time

    @property
    def peak_working_memory_size(self) -> int:
        """The paper's space metric: ``stats.peak_working_memory_size``."""
        return self.stats.peak_working_memory_size


@dataclass(frozen=True)
class MRKCenterResult(_MapReduceResult):
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
        Wall-clock seconds the round-1 reducers spent, summed over
        partitions (``stats.rounds[0].sequential_time``; divide by
        ``ell`` for the ideal parallel time, or use ``stats`` for the
        slowest-reducer estimate). Besides ``build_coreset`` this
        includes each reducer's partition slicing and output packaging.
    solve_time:
        Wall-clock seconds the round-2 reducer spent on the union of the
        coresets (``stats.rounds[1].sequential_time``): GMM plus the
        reducer's output packaging.
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


class _CoresetMapReduce:
    """The 3-round skeleton both MapReduce drivers derive from.

    See the module docstring for the rounds and the hooks a driver
    supplies; the constructor parameters are documented on the drivers.
    """

    #: Outliers the objective may discard; plain k-center discards none.
    z: int = 0
    #: Whether round 1 keeps the proxy-count weights.
    _weighted: bool = False
    #: Indices adversarial partitioning forces into one partition.
    adversarial_indices: np.ndarray | None = None
    _partitionings: tuple[str, ...] = ("contiguous", "round_robin", "random")

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
        if partitioning not in self._partitionings:
            raise InvalidParameterError(
                f"partitioning must be one of {sorted(self._partitionings)}; got {partitioning!r}"
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

    # -- hooks -------------------------------------------------------------------------

    def _routing(self) -> str:
        """The partitioning the shuffle routes by."""
        return self.partitioning

    def _coreset_spec(self, n: int, ell: int) -> CoresetSpec:
        """Per-partition coreset size for ``n`` points in ``ell`` partitions."""
        raise NotImplementedError

    def _solve_reducer(self, rng: np.random.Generator):
        """The round-2 reducer, drawing any seed it needs from ``rng``.

        It receives the coreset union and returns ``[(0, (positions,
        solved))]``: the chosen union positions and one solver-specific
        value, handed on to :meth:`_result`.
        """
        raise NotImplementedError

    def _result(self, *, solved, **fields):
        """Package the skeleton's ``fields`` and ``solved`` as the driver's result."""
        raise NotImplementedError

    # -- entry points ------------------------------------------------------------------

    def fit(self, points):
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
    ):
        """Run the algorithm on a chunked point stream, out of core.

        The coordinator never materialises the ``(n, d)`` matrix: chunks
        are routed straight into per-partition storage (files under
        ``/dev/shm`` under the ``"processes"`` backend), the reducers
        build their coresets from their own partitions, and a third
        MapReduce round scores each partition against the centers with
        the blocked :meth:`~repro.metricspace.distance.Metric.nearest`
        kernel, returning only its ``z + 1`` largest distances, from
        which the coordinator reconstructs the exact radii and outlier
        set. The coordinator's working set is ``O(chunk_size + union
        coreset)`` (see ``stats.coordinator_peak_items``), which restores
        the paper's memory model: dataset size is bounded by the
        *reducers'* memory, not the coordinator's. Results are
        bit-identical on every backend, storage tier and chunk size.

        Parameters
        ----------
        stream:
            A :class:`~repro.streaming.stream.PointStream`, or any
            iterable of points / point batches (wrapped in a
            :class:`~repro.streaming.stream.GeneratorStream`).
            ``"contiguous"`` and ``"adversarial"`` partitioning need a
            stream with a known length (``len(stream)``); unknown-length
            sources can use ``"round_robin"`` or ``"random"``. ``ell`` is
            capped at the stream length when it is known and used as
            given otherwise.
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
                partitioning=self._routing(),
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
            solve_reducer = self._solve_reducer(rng)
            live = [(partition_id, part) for partition_id, part in enumerate(parts) if len(part)]

            def run_round(pairs, reducer):
                return runtime.execute_round(pairs, identity_mapper, reducer)

            coresets = run_round(
                live,
                partial(
                    _coreset_reducer,
                    spec=spec,
                    metric=self.metric,
                    seeds=partition_seeds,
                    weighted=self._weighted,
                ),
            )
            # The union of the coresets passes through the coordinator
            # between rounds 1 and 2: charge it to the coordinator's peak.
            union = WeightedPoints.concatenate([coreset for _, coreset in coresets])
            runtime.note_coordinator_items(len(union))

            [(_, (positions, solved))] = run_round([(0, union)], solve_reducer)
            centers = union.points[positions]

            tops = run_round(
                [
                    (partition_id, _AssignTask(part, centers, self.z))
                    for partition_id, part in live
                ],
                partial(_assign_reducer, metric=self.metric),
            )
            stats = runtime.stats

        # Merge the per-partition top-(z+1) summaries. Sorting by
        # (distance, index) reproduces the stable tie-break of
        # Clustering.outlier_indices, so the merge selects exactly the
        # outliers a global selection would (none when z = 0).
        top_distances = np.concatenate([distances for _, (distances, _) in tops])
        top_indices = np.concatenate([indices for _, (_, indices) in tops])
        order = np.lexsort((top_indices, top_distances))
        return self._result(
            centers=centers,
            center_indices=union.origin_indices[positions],
            radius=float(top_distances[order[-(self.z + 1)]]),
            radius_all_points=float(top_distances[order[-1]]),
            outlier_indices=np.sort(top_indices[order[order.size - self.z :]]),
            coreset_size=len(union),
            ell=len(live),
            stats=stats,
            solved=solved,
        )


class MapReduceKCenter(_CoresetMapReduce):
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

    def _coreset_spec(self, n: int, ell: int) -> CoresetSpec:
        if self.coreset_multiplier is not None:
            return CoresetSpec.from_multiplier(self.k, self.coreset_multiplier)
        return CoresetSpec.from_epsilon(self.k, self.epsilon)

    def _solve_reducer(self, rng: np.random.Generator):
        seed = int(rng.integers(2**31 - 1))
        return partial(_gmm_reducer, k=self.k, metric=self.metric, seed=seed)

    def _result(self, *, radius_all_points, outlier_indices, solved, **fields):
        return MRKCenterResult(**fields)
