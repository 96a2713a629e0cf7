"""A MapReduce runtime with memory accounting and pluggable execution backends.

The paper's algorithms are 2-round MapReduce computations; what their
analysis actually constrains is (a) the number of rounds, (b) the local
memory ``M_L`` any single reducer needs, and (c) the aggregate memory
``M_A`` across reducers. This module runs such computations while
*faithfully tracking those three quantities*, plus per-reducer wall-clock
time so that the parallel running time of a round can be reported as the
maximum reducer time (the quantity a real cluster would exhibit).

Execution model
---------------
The map phase of the paper's algorithms is a partitioning of the input,
and here it is exactly that: :meth:`MapReduceRuntime.shuffle_stream`
routes the input through a
:class:`~repro.mapreduce.partitioner.ChunkRouter` into per-partition
storage (see "Out-of-core shuffle" below). Every round after it is a
list of keyed tasks: :meth:`MapReduceRuntime.execute_round` takes
``(key, value)`` pairs with distinct keys and calls ``reducer(key,
value)`` once per task. The accounting runs in the coordinating process:
each task's value is sized with :func:`default_sizeof` and checked
against the local memory limit *before* any reducer runs. Only then are
the tasks handed to an
:class:`~repro.mapreduce.backends.ExecutorBackend`:

* ``backend="serial"`` — reducers run one after the other in the calling
  process. The deterministic reference; also the default when
  ``max_workers`` is 1 or unset.
* ``backend="threads"`` — reducers run on a thread pool. Best when the
  reducer work is dominated by NumPy kernels (they release the GIL), and
  when reducers close over large in-process state, since nothing is
  serialised. The default when ``max_workers`` > 1, matching this
  engine's historical behavior.
* ``backend="processes"`` — reducers run on a process pool. Each task
  pickles the reducer callable and the task's value, so reducers must be
  module-level functions (or partials of them); in exchange the GIL no
  longer serialises pure-Python reducer work. Shuffled partitions live
  in files under ``/dev/shm`` (the ``"shared"`` storage tier), so tasks
  reference them by path instead of copying them.
* ``backend="distributed"`` — reducers run on remote worker daemons over
  TCP (see the "Distributed backend" section below).

:attr:`JobStats.backend` records the name of the backend that ran.

Distributed backend
-------------------
``backend="distributed"`` plus ``workers=["host:port", ...]`` hands the
tasks to a set of worker daemons, each started with ``repro worker
--listen HOST:PORT`` (or ``python -m repro.mapreduce.worker``) — the
first backend that scales past a single machine. The coordinator speaks
a length-prefixed TCP protocol (a 1-byte opcode plus an 8-byte
big-endian payload length per frame; the opcodes are documented in
:mod:`repro.mapreduce.worker`): per round it ships the pickled reducer
once per worker, then one TASK frame per ``(key, value)`` task, and
collects the pickled ``(output, elapsed)`` results. Placement is
round-robin — the task at position ``i`` (the partition index, for the
shuffle rounds) goes to worker ``i mod W`` — a pure function of the
partition index, so which worker computes what is as deterministic as
the shuffle routing itself.

Partition payloads travel by storage tier: memory-tier partitions (the
default under this backend) pickle their rows by value inside the task;
file-backed partitions (``"shared"`` and ``"disk"``) are pushed once per
worker as raw ``.npy`` bytes and re-opened remotely as read-only
memmaps, so a file is shipped at most once per worker however many
rounds reference it. A worker that dies mid-job (refused connection,
reset, truncated frame) has its unfinished tasks requeued round-robin
onto the surviving workers — reducers are pure, so the retried job is
bit-identical — and :attr:`JobStats.worker_assignments` records every
attempt while :attr:`JobStats.bytes_shipped` totals the payload bytes
that crossed the wire. All randomness is drawn in the coordinator before
dispatch, so the distributed drivers agree bit-for-bit with the serial
reference; the equivalence matrix in
``tests/properties/test_property_distributed_equivalence.py`` enforces
this against an in-process loopback
:class:`~repro.mapreduce.cluster.LocalCluster`.

Rule of thumb: ``threads`` wins when reducers are thin wrappers around
vectorised NumPy calls and payloads are large (zero serialisation);
``processes`` wins when reducers spend significant time in Python
bytecode (GMM's incremental loop, radius search probes) or when true CPU
isolation is wanted — provided the per-task payload is kept small, e.g.
file-backed partition handles.

Out-of-core shuffle
-------------------
The paper's analysis bounds the *reducers'* memory at ``O(n / ell)``
per partition — but a shuffle that first materialises the full
``(n, d)`` matrix in the coordinator silently re-introduces an ``O(n)``
coordinator bound, making the coordinator (not the reducers) the limit
on dataset size. :meth:`MapReduceRuntime.shuffle_stream` avoids that
bound: it consumes the input as a sequence of ``(m, d)`` chunks (from a
:class:`~repro.streaming.stream.PointStream`, a generator over a file,
or a memory-mapped array), routes each chunk's rows directly into
per-partition :class:`~repro.mapreduce.backends.PartitionBuffer`
storage via a :class:`~repro.mapreduce.partitioner.ChunkRouter`, and
returns the sealed partitions as :class:`StreamedPartition` handles.
The coordinator's own working set during the shuffle is ``O(chunk)``:
routing metadata plus one chunk in flight.

Both k-center drivers run every job this way, through the one 3-round
skeleton they share (``_CoresetMapReduce`` in :mod:`repro.core.mr_kcenter`;
``fit`` wraps its matrix in an :class:`~repro.streaming.stream.ArrayStream`
and calls ``fit_stream``): per-partition coresets, the solve on their
union, and an assignment round that scores each partition against the
final centers (the paper counts the first two). Their phase times are
the rounds' reducer times recorded here, the only timer on that path.
The routers are pure functions of the global point index (the random
split uses a seeded counter-based hash, see
:func:`~repro.mapreduce.partitioner.hashed_assignment`), so every point
lands in exactly the partition the ``split_*`` functions assign it;
the adversarial split, which is not such a function, is computed up
front for sized streams and routed through an explicit assignment
array. Reducers hold ``O(n/ell)``, the coordinator holds
``O(chunk + union coreset)``, recorded as
:attr:`JobStats.coordinator_peak_items`.

Storage tiers
-------------
*Where the sealed partitions live* is a knob orthogonal to the executor
backend: ``storage=`` on the runtime (and on both drivers' ``fit_stream``
and the CLI ``mr-*`` commands, which pass it on) selects the tier:

* ``"memory"`` — plain per-partition arrays in the coordinator's
  address space; the natural tier for the serial and thread backends.
* ``"shared"`` — per-partition ``.npy`` files in a runtime-owned
  directory under ``/dev/shm`` (``tempfile.gettempdir()`` where there
  is no ``/dev/shm``), memory-mapped read-only by the reducers, which
  process-backend workers open by *path*; bounded by ``/dev/shm``
  (typically half of RAM).
* ``"disk"`` — the same files in a spill directory on disk (``spill_dir``
  or a runtime-owned temporary directory), which is what makes
  single-host datasets beyond shared memory drivable while each reducer
  still only keeps its ``O(n/ell)`` partition resident.
* ``"auto"`` (default) — the historical backend pairing (``"shared"``
  for the process pool, plain arrays otherwise) unless
  ``memory_budget_bytes`` is set and the estimated partition-tier
  footprint exceeds it (or the stream is unsized), in which case the
  shuffle spills to disk. See
  :func:`~repro.mapreduce.backends.resolve_storage`.

Every tier produces bit-identical partitions (the routing never
changes); :attr:`JobStats.storage_tier` and :attr:`JobStats.spilled_bytes`
record which tier ran and how many bytes went to disk, and
:func:`repro.core.planner.plan_mapreduce` predicts the per-tier
footprints up front.

Accounting is backend-agnostic by construction: every backend returns
one output and one in-reducer timing per task, in task order, and the
recorded :class:`RoundStats` are therefore identical across backends
modulo the timing values themselves. The cross-backend equivalence suite
in ``tests/mapreduce/test_backends.py`` enforces this.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from ..exceptions import (
    EmptyStreamError,
    InvalidParameterError,
    MemoryBudgetExceededError,
)
from ..streaming.stream import GeneratorStream, PointStream
from .backends import (
    ExecutorBackend,
    PartitionBuffer,
    SharedArray,
    check_storage_tier,
    resolve_backend,
    resolve_storage,
)
from .partitioner import ChunkRouter, split_adversarial

__all__ = [
    "RoundStats",
    "JobStats",
    "StreamedPartition",
    "MapReduceRuntime",
    "default_sizeof",
    "shuffle_point_stream",
]


_SHM_ROOT = "/dev/shm"
"""RAM-backed directory the ``"shared"`` tier's runtime-owned directory lives in."""

Reducer = Callable[[Hashable, object], object]


def default_sizeof(value: object) -> int:
    """Memory accounting: NumPy arrays count rows, sized objects count ``len``, else 1.

    The unit is "points" (items), matching the paper's memory bounds which
    are stated in numbers of stored points rather than bytes.
    """
    if isinstance(value, np.ndarray):
        return int(value.shape[0]) if value.ndim > 0 else 1
    try:
        return len(value)  # type: ignore[arg-type]
    except TypeError:
        return 1


@dataclass
class RoundStats:
    """Accounting for one MapReduce round.

    Attributes
    ----------
    round_index:
        0-based index of the round within the job.
    reducer_input_sizes:
        Memory (in items, per :func:`default_sizeof`) received by each
        reducer, keyed by task key.
    reducer_times:
        Wall-clock seconds spent inside each reducer, keyed by task key.
    """

    round_index: int
    reducer_input_sizes: dict = field(default_factory=dict)
    reducer_times: dict = field(default_factory=dict)

    @property
    def n_reducers(self) -> int:
        """Number of tasks (reducer calls) in the round."""
        return len(self.reducer_input_sizes)

    @property
    def max_local_memory(self) -> int:
        """Largest reducer input size in this round (the round's ``M_L``)."""
        return max(self.reducer_input_sizes.values(), default=0)

    @property
    def total_memory(self) -> int:
        """Sum of reducer input sizes in this round (contribution to ``M_A``)."""
        return sum(self.reducer_input_sizes.values())

    @property
    def parallel_time(self) -> float:
        """Parallel reduce time estimate: the slowest reducer of the round."""
        return max(self.reducer_times.values(), default=0.0)

    @property
    def sequential_time(self) -> float:
        """Total reduce time if every reducer ran on a single processor."""
        return sum(self.reducer_times.values())


@dataclass
class JobStats:
    """Aggregated accounting over all rounds executed by a runtime."""

    rounds: list[RoundStats] = field(default_factory=list)
    #: Name of the executor backend that ran the rounds (``"serial"``,
    #: ``"threads"``, ``"processes"`` or ``"distributed"``); ``None``
    #: when no runtime recorded one.
    backend: str | None = None
    #: Largest working set (in points) the *coordinator* itself held at
    #: any moment: the larger of one routing chunk of the shuffle and
    #: the coreset union that passes through it between rounds 1 and 2,
    #: i.e. ``O(chunk + coreset)``. The input matrix a caller of ``fit``
    #: already holds is not counted.
    coordinator_peak_items: int = 0
    #: Partition-storage tier the shuffle used
    #: (``"memory"``/``"shared"``/``"disk"``); ``None`` when no shuffle
    #: ran.
    storage_tier: str | None = None
    #: Bytes of partition data written to spill files (0 unless the
    #: ``"disk"`` tier ran).
    spilled_bytes: int = 0
    #: One dict per round executed on the distributed backend, mapping
    #: each task key to the worker addresses attempted in order (a list
    #: longer than one records a retry after a worker failure). Empty
    #: for the single-host backends.
    worker_assignments: list = field(default_factory=list)
    #: Total payload bytes shipped to distributed workers (reducers,
    #: pushed spill files and task payloads); 0 for single-host backends.
    bytes_shipped: int = 0

    @property
    def n_rounds(self) -> int:
        """Number of rounds executed."""
        return len(self.rounds)

    @property
    def peak_local_memory(self) -> int:
        """The job's ``M_L``: the largest reducer input over all rounds."""
        return max((r.max_local_memory for r in self.rounds), default=0)

    @property
    def aggregate_memory(self) -> int:
        """The job's ``M_A``: the largest per-round total reducer input."""
        return max((r.total_memory for r in self.rounds), default=0)

    @property
    def peak_working_memory_size(self) -> int:
        """The paper's space metric for the whole job, in stored points.

        The largest working set any single participant (a reducer *or*
        the coordinator) held — the MapReduce counterpart of the
        streaming algorithms' ``peak_working_memory_size``.
        """
        return max(self.peak_local_memory, self.coordinator_peak_items)

    @property
    def parallel_time(self) -> float:
        """Parallel time estimate: the slowest reducer of each round, summed."""
        return sum(r.parallel_time for r in self.rounds)

    @property
    def sequential_time(self) -> float:
        """Time the job's reducers would take on a single processor."""
        return sum(r.sequential_time for r in self.rounds)


@dataclass(frozen=True)
class StreamedPartition:
    """One shuffled partition: its point matrix plus the global-index column.

    ``__len__`` reports the number of *points*, so the runtime's memory
    accounting charges a round-1 reducer its partition size, the paper's
    ``M_L`` (the index column is metadata). Picklable on every backend
    (the members are :class:`SharedArray` handles).
    """

    points: SharedArray
    indices: SharedArray

    def __len__(self) -> int:
        return len(self.points)


class MapReduceRuntime:
    """MapReduce engine with memory accounting and a pluggable task executor.

    Parameters
    ----------
    local_memory_limit:
        Optional hard cap (in items) on the input any single reducer may
        receive; exceeding it raises
        :class:`~repro.exceptions.MemoryBudgetExceededError`. ``None``
        disables enforcement (accounting still happens).
    max_workers:
        Worker count for the pooled backends. ``None`` means 1 for the
        default (backend-less) configuration and one worker per CPU when
        an explicit ``"threads"``/``"processes"`` backend is named. Not
        accepted together with a backend instance.
    backend:
        ``"serial"``, ``"threads"``, ``"processes"``, ``"distributed"``,
        an :class:`~repro.mapreduce.backends.ExecutorBackend` instance,
        or ``None`` (historical behavior: threads when ``max_workers``
        > 1, serial otherwise — or distributed when ``workers`` is
        given). See the module docstring for when each backend wins.
        Reducers must not share mutable state unsafely on the pooled
        backends, and must be picklable for ``"processes"`` and
        ``"distributed"``. Backends named by string are owned and closed
        by the runtime; an instance passed in stays open across
        :meth:`close` so its pool can be reused, and is closed by the
        caller.
    workers:
        Worker daemon addresses (``["host:port", ...]``) for the
        distributed backend; selects ``backend="distributed"`` when no
        backend is named. See the "Distributed backend" section of the
        module docstring.
    storage:
        Partition-storage tier for :meth:`shuffle_stream`: ``"auto"``
        (default), ``"memory"``, ``"shared"`` or ``"disk"``. See the
        "Storage tiers" section of the module docstring.
    spill_dir:
        Directory for ``"disk"``-tier spill files. ``None`` (default)
        uses a runtime-owned temporary directory that :meth:`close`
        removes; a caller-provided directory is created if missing and
        left in place (only the spill files themselves are deleted).
        ``"shared"``-tier files always go to a runtime-owned directory
        under ``/dev/shm``.
    memory_budget_bytes:
        Budget (bytes) for the in-memory partition tiers under
        ``storage="auto"``: a shuffle whose estimated partition
        footprint exceeds it — or cannot be estimated, for unsized
        streams — spills to disk. ``None`` disables the budget.

    Examples
    --------
    >>> runtime = MapReduceRuntime()
    >>> def reducer(key, value):
    ...     return key * sum(value)
    >>> runtime.execute_round([(1, [1, 2]), (10, [3, 4])], reducer)
    [3, 70]
    >>> runtime.stats.rounds[0].reducer_input_sizes
    {1: 2, 10: 2}
    >>> runtime.stats.backend
    'serial'
    """

    def __init__(
        self,
        *,
        local_memory_limit: int | None = None,
        max_workers: int | None = None,
        backend: str | ExecutorBackend | None = None,
        workers=None,
        storage: str = "auto",
        spill_dir: str | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        if local_memory_limit is not None and local_memory_limit < 1:
            raise InvalidParameterError("local_memory_limit must be >= 1 or None")
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError("max_workers must be >= 1")
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise InvalidParameterError("memory_budget_bytes must be >= 1 or None")
        # Validated before any chunk is consumed: a typo'd tier must not
        # cost a single-pass stream its first chunk.
        self._storage = check_storage_tier(storage)
        self._local_memory_limit = local_memory_limit
        # Backends named by string (or defaulted) are created, and therefore
        # owned and closed, by this runtime; instances passed in belong to
        # the caller, whose pool must survive (and be reusable after) close().
        self._owns_backend = backend is None or isinstance(backend, str)
        self._backend = resolve_backend(backend, max_workers=max_workers, workers=workers)
        self._spill_dir = spill_dir
        self._own_dirs: dict[str, str] = {}
        self._memory_budget_bytes = memory_budget_bytes
        self._sealed: list[SharedArray] = []
        self._stats = JobStats(backend=self._backend.name)

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def backend(self) -> ExecutorBackend:
        """The executor backend running this runtime's rounds."""
        return self._backend

    def note_coordinator_items(self, items: int) -> None:
        """Record that the coordinator held ``items`` points at one moment."""
        self._stats.coordinator_peak_items = max(
            self._stats.coordinator_peak_items, int(items)
        )

    def _tier_dir(self, tier: str) -> str | None:
        """The directory a file-backed tier's partitions go to (created on first use).

        ``"disk"`` uses the caller's ``spill_dir`` when one is given;
        ``"shared"`` always uses a runtime-owned directory under
        ``/dev/shm``. Runtime-owned directories are removed by :meth:`close`.
        """
        if tier == "memory":
            return None
        if tier == "disk" and self._spill_dir is not None:
            os.makedirs(self._spill_dir, exist_ok=True)
            return self._spill_dir
        if tier not in self._own_dirs:
            if tier == "shared":
                root = _SHM_ROOT if os.path.isdir(_SHM_ROOT) else None
                self._own_dirs[tier] = tempfile.mkdtemp(prefix="repro-shm-", dir=root)
            else:
                self._own_dirs[tier] = tempfile.mkdtemp(prefix="repro-spill-")
        return self._own_dirs[tier]

    def shuffle_stream(
        self,
        chunks: Iterable[np.ndarray],
        router: ChunkRouter,
        *,
        max_chunk_rows: int | None = None,
    ) -> list[StreamedPartition]:
        """Route a chunked point stream into per-partition storage (out of core).

        ``chunks`` yields ``(m, d)`` arrays in stream order (e.g. from
        :meth:`repro.streaming.stream.PointStream.iterate_batches`);
        ``router`` decides each row's partition from its global stream
        index alone. Rows and their global indices are scattered into
        per-partition :class:`~repro.mapreduce.backends.PartitionBuffer`
        storage on the runtime's storage tier (see the "Storage tiers"
        section of the module docstring) — so the coordinator never
        assembles the full ``(n, d)`` matrix; its working set is one
        chunk plus routing metadata, recorded in
        :attr:`JobStats.coordinator_peak_items`. The tier that ran and
        the bytes it spilled are recorded in :attr:`JobStats.storage_tier`
        / :attr:`JobStats.spilled_bytes`.

        Returns one :class:`StreamedPartition` per partition of
        ``router`` (zero-row for partitions the routing left empty). The
        sealed partitions are registered with the runtime and released
        by :meth:`close`; on a mid-stream failure every buffer allocated
        so far is closed and its file unlinked before the exception
        propagates. ``max_chunk_rows`` re-splits oversized incoming
        chunks (sources with native batching, such as
        :class:`~repro.streaming.stream.GeneratorStream`, may deliver
        chunks larger than the requested size) so the coordinator's
        in-flight working set stays bounded regardless of the source's
        granularity.
        """
        if max_chunk_rows is not None and max_chunk_rows < 1:
            raise InvalidParameterError("max_chunk_rows must be >= 1 (or None)")
        # A sized stream preallocates each partition's share (ceil division);
        # an unsized one starts from the first chunk's size and grows.
        hint = None if router.n_total is None else max(1, -(-router.n_total // router.ell))
        # Buffers are appended one at a time so that the cleanup below sees
        # every one allocated before a later allocation fails.
        buffers: list[PartitionBuffer] = []
        index_buffers: list[PartitionBuffer] = []
        sealed: list[SharedArray] = []
        dimension: int | None = None
        tier: str | None = None
        chunk_peak = 0

        def bounded_chunks():
            for chunk in chunks:
                chunk = np.asarray(chunk, dtype=np.float64)
                if chunk.ndim != 2:
                    raise InvalidParameterError(
                        f"shuffle chunks must be (m, d) arrays; got ndim={chunk.ndim}"
                    )
                if max_chunk_rows is None or chunk.shape[0] <= max_chunk_rows:
                    yield chunk
                else:
                    for start in range(0, chunk.shape[0], max_chunk_rows):
                        yield chunk[start : start + max_chunk_rows]

        try:
            for chunk in bounded_chunks():
                m = chunk.shape[0]
                if m == 0:
                    continue
                if dimension is None:
                    # The partition footprint can only be estimated once the
                    # first chunk reveals the dimension.
                    dimension = int(chunk.shape[1])
                    estimated_bytes = None
                    if router.n_total is not None:
                        # float64 coordinates plus the intp global index.
                        row_bytes = dimension * 8 + np.dtype(np.intp).itemsize
                        estimated_bytes = router.n_total * row_bytes
                    tier = resolve_storage(
                        self._storage,
                        backend=self._backend,
                        estimated_bytes=estimated_bytes,
                        memory_budget_bytes=self._memory_budget_bytes,
                    )
                    tier_dir = self._tier_dir(tier)
                    capacity = hint or max(1, m)
                    for _ in range(router.ell):
                        buffers.append(
                            PartitionBuffer(
                                dimension,
                                storage=tier,
                                initial_capacity=capacity,
                                spill_dir=tier_dir,
                            )
                        )
                    for _ in range(router.ell):
                        index_buffers.append(
                            PartitionBuffer(
                                None,
                                dtype=np.intp,
                                storage=tier,
                                initial_capacity=capacity,
                                spill_dir=tier_dir,
                            )
                        )
                elif chunk.shape[1] != dimension:
                    raise InvalidParameterError(
                        f"chunk has dimension {chunk.shape[1]}, expected {dimension}"
                    )
                chunk_peak = max(chunk_peak, m)
                global_indices = router.points_routed + np.arange(m, dtype=np.intp)
                assignment = router.route(m)
                # Stable sort keeps stream order inside each partition, matching
                # the increasing-index order of the in-memory split_* functions.
                order = np.argsort(assignment, kind="stable")
                counts = np.bincount(assignment, minlength=router.ell)
                sorted_rows = chunk[order]
                sorted_indices = global_indices[order]
                start = 0
                for partition_id, count in enumerate(counts):
                    stop = start + int(count)
                    if stop > start:
                        buffers[partition_id].append(sorted_rows[start:stop])
                        index_buffers[partition_id].append(sorted_indices[start:stop])
                    start = stop

            if dimension is None:
                raise EmptyStreamError("the stream delivered no points to shuffle")
            if router.n_total is not None and router.points_routed != router.n_total:
                raise InvalidParameterError(
                    f"the stream delivered {router.points_routed} points but "
                    f"declared {router.n_total}"
                )

            spilled = sum(buffer.spilled_bytes for buffer in buffers + index_buffers)
            for buffer in buffers + index_buffers:
                sealed.append(buffer.finalize())
        except BaseException:
            # A failure (or interrupt) mid-shuffle must not strand the
            # partially-filled partition files — nor any partition already
            # sealed when a later finalize fails — until process exit.
            for handle in sealed:
                handle.close()
            for buffer in buffers + index_buffers:
                buffer.close()
            raise

        self._sealed.extend(sealed)
        self.note_coordinator_items(chunk_peak)
        self._stats.storage_tier = tier
        self._stats.spilled_bytes += spilled
        return [
            StreamedPartition(points, indices)
            for points, indices in zip(sealed[: router.ell], sealed[router.ell :])
        ]

    def close(self) -> None:
        """Release resources this runtime owns. Idempotent.

        Shuffled partitions and runtime-owned partition directories are
        always released; the backend's pools are shut down only when the
        runtime created the backend itself (from a name or the default).
        A backend instance passed in by the caller is left running so it
        can be reused across runtimes — the caller closes it.
        """
        while self._sealed:
            self._sealed.pop().close()
        while self._own_dirs:
            shutil.rmtree(self._own_dirs.popitem()[1], ignore_errors=True)
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------------------

    @property
    def stats(self) -> JobStats:
        """Accumulated per-round and per-job accounting."""
        return self._stats

    def execute_round(
        self, tasks: Sequence[tuple[Hashable, object]], reducer: Reducer
    ) -> list:
        """Run one round: ``reducer(key, value)`` once per ``(key, value)`` task.

        Task keys must be distinct. Each task's value is sized with
        :func:`default_sizeof` and checked against the local memory
        limit in the coordinator before any reducer runs, so the
        accounting (and limit enforcement) is identical on every backend.
        Returns the reducers' outputs in task order, whichever backend
        ran them.
        """
        tasks = list(tasks)
        stats = RoundStats(round_index=self._stats.n_rounds)
        for key, value in tasks:
            if key in stats.reducer_input_sizes:
                raise InvalidParameterError(f"duplicate task key {key!r} in one round")
            size = default_sizeof(value)
            stats.reducer_input_sizes[key] = size
            if self._local_memory_limit is not None and size > self._local_memory_limit:
                raise MemoryBudgetExceededError(
                    f"reducer for key {key!r} received {size} items, "
                    f"exceeding the local memory limit of {self._local_memory_limit}"
                )

        results = self._backend.run_reducers(reducer, tasks)
        stats.reducer_times = {key: elapsed for (key, _), (_, elapsed) in zip(tasks, results)}

        # Distributed rounds additionally report where each task ran and
        # how many payload bytes crossed the wire; see JobStats.
        take_accounting = getattr(self._backend, "take_round_accounting", None)
        if take_accounting is not None:
            assignments, shipped = take_accounting()
            self._stats.worker_assignments.append(assignments)
            self._stats.bytes_shipped += shipped

        self._stats.rounds.append(stats)
        return [output for output, _ in results]


def shuffle_point_stream(
    runtime: MapReduceRuntime,
    stream,
    *,
    ell: int,
    partitioning: str,
    rng: np.random.Generator,
    chunk_size: int,
    adversarial_indices=None,
) -> tuple[list[StreamedPartition], int, int]:
    """The MapReduce skeleton's shuffle prologue.

    Wraps ``stream`` (a :class:`~repro.streaming.stream.PointStream` or
    any iterable of points/batches), probes its length, caps ``ell`` at
    the length when it is known, builds the matching
    :class:`~repro.mapreduce.partitioner.ChunkRouter` — consuming ``rng``
    exactly like the ``split_*`` functions (one variate for the random
    hash seed, the permutation of :func:`split_adversarial` for the
    adversarial split, nothing for the deterministic strategies) — and
    runs :meth:`MapReduceRuntime.shuffle_stream` with oversized native
    batches re-split to ``chunk_size``, on the runtime's partition-storage
    tier.

    ``"adversarial"`` partitioning forces ``adversarial_indices`` into
    partition 0 through :func:`split_adversarial`; it needs the stream
    length up front, so unsized streams are rejected, and the router
    holds one ``intp`` partition id per point, which
    :attr:`JobStats.coordinator_peak_items` (a count of points) does not
    charge.

    Returns ``(partitions, n_points, ell_used)``. A stream that declares
    length 0 raises :class:`~repro.exceptions.EmptyStreamError`
    deterministically, before any buffer is allocated. For
    unknown-length streams ``ell`` is used as given, not capped at the
    number of points.
    """
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    if not isinstance(stream, PointStream):
        stream = GeneratorStream(stream)
    try:
        n_hint = len(stream)
    except TypeError:
        n_hint = None
    if n_hint == 0:
        raise EmptyStreamError("the stream declares length 0; nothing to shuffle")
    ell_used = ell if n_hint is None else min(ell, n_hint)
    if partitioning == "random":
        router = ChunkRouter(
            ell_used, "random", n_total=n_hint, seed=int(rng.integers(2**63 - 1))
        )
    elif partitioning == "adversarial":
        if n_hint is None:
            raise InvalidParameterError(
                "adversarial partitioning needs the stream length up front"
            )
        assignment = np.empty(n_hint, dtype=np.intp)
        parts = split_adversarial(n_hint, ell_used, adversarial_indices, random_state=rng)
        for partition_id, indices in enumerate(parts):
            assignment[indices] = partition_id
        router = ChunkRouter(ell_used, "adversarial", n_total=n_hint, assignment=assignment)
    else:
        router = ChunkRouter(ell_used, partitioning, n_total=n_hint)
    parts = runtime.shuffle_stream(
        stream.iterate_batches(chunk_size), router, max_chunk_rows=chunk_size
    )
    return parts, router.points_routed, ell_used
