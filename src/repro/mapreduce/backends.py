"""Pluggable executor backends for the MapReduce runtime.

The runtime in :mod:`repro.mapreduce.runtime` separates *what* a round
computes (its keyed tasks and their memory accounting) from *how* the
tasks are executed. The latter is delegated to an
:class:`ExecutorBackend`, of which three single-host implementations are
provided here:

* :class:`SerialBackend` (``"serial"``) — runs reducers one after the
  other in the calling process. Fully deterministic timing; the reference
  implementation every other backend must agree with.
* :class:`ThreadBackend` (``"threads"``) — runs reducers on a
  :class:`~concurrent.futures.ThreadPoolExecutor`. Gives real speed-ups
  for NumPy-heavy reducers (which release the GIL inside vectorised
  kernels) with zero serialisation cost, because all threads share the
  coordinator's address space.
* :class:`ProcessBackend` (``"processes"``) — runs reducers on a
  :class:`~concurrent.futures.ProcessPoolExecutor`. Sidesteps the GIL
  entirely, so pure-Python reducer work also scales, at the price of
  pickling the reducer callable and each task's value. Each worker
  process runs under a BLAS thread budget set once when it starts (see
  :func:`set_blas_threads`), so the pool does not oversubscribe the
  cores with OpenBLAS threads; the coordinator keeps its own count.

Orthogonal to *where reducers run* is *where the shuffle's partition rows
live* while they are being assembled: three tiers (see
:func:`resolve_storage`) backed by two stores.

* :class:`MemoryPartitionStore` (``"memory"``) — plain NumPy arrays in
  the coordinator's address space; the natural tier for the serial and
  thread backends (their reducers share that address space anyway).
* :class:`DiskPartitionStore` (``"shared"`` and ``"disk"``) —
  per-partition ``.npy`` files that chunks are appended to and that
  :meth:`finalize <DiskPartitionStore.finalize>` reopens as read-only
  :class:`numpy.memmap` matrices. Worker processes open the file by
  *path* when they unpickle a handle, so no row data is ever pickled.
  The two tiers differ only in where the files live: ``"shared"`` puts
  them in a runtime-owned directory under ``/dev/shm`` (RAM-backed, so
  the memmaps are shared memory; the natural tier for the process
  backend), ``"disk"`` in a spill directory on disk, which lifts the
  ``/dev/shm`` ceiling on single-host dataset size: a reducer's working
  set stays ``O(n/ell)`` resident while the sealed partitions live on
  disk.

:class:`PartitionBuffer` validates and appends rows and delegates the
actual storage to one of these stores.

Reducer callables handed to :class:`ProcessBackend` must be picklable:
module-level functions, or :func:`functools.partial` of module-level
functions over picklable arguments. The k-center drivers in
:mod:`repro.core` are written this way so that any backend can run them.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import struct
import time
import uuid
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Hashable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SharedArray",
    "MemoryPartitionStore",
    "DiskPartitionStore",
    "PartitionBuffer",
    "available_backends",
    "available_storage_tiers",
    "blas_threads",
    "check_storage_tier",
    "resolve_backend",
    "resolve_storage",
    "set_blas_threads",
    "set_spill_path_resolver",
    "usable_cores",
]

_log = logging.getLogger(__name__)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set, else the machine's count.

    A CPU-restricted container reports the host's ``os.cpu_count()`` but
    schedules the process on its affinity set only; pool sizes and BLAS
    budgets are derived from the latter.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


# -- BLAS thread budget ----------------------------------------------------------------

#: ``(setter, getter)`` symbol pairs of the OpenBLAS builds we know: the
#: ``scipy-openblas`` wheels NumPy bundles (64-bit and 32-bit integer
#: builds), older NumPy wheels, and system libraries.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas() -> tuple:
    """``(setter, getter)`` ctypes functions of every loaded OpenBLAS, looked up once.

    The libraries are the ones ``/proc/self/maps`` shows mapped. Empty
    when none exports a known symbol (another BLAS, or no procfs); that
    case is logged once and BLAS runs unpinned. A forked pool worker
    inherits the lookup (the function addresses stay valid in the child).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:  # pragma: no cover - no procfs
        paths = set()
    found = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was replaced on disk
            continue
        for setter, getter in _OPENBLAS_SYMBOLS:
            if hasattr(library, setter) and hasattr(library, getter):
                found.append((getattr(library, setter), getattr(library, getter)))
                break
    if not found:
        _log.info("no known OpenBLAS thread setter is loaded; BLAS threads stay unpinned")
    return tuple(found)


def set_blas_threads(n_threads: int) -> None:
    """Set this process's OpenBLAS thread count (a no-op when no setter is known).

    The count is process-wide, so only a process whose every BLAS call
    should obey it may set it: a process-pool worker, never the
    coordinator.
    """
    for setter, _ in _openblas():
        setter(int(n_threads))


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count, or ``None`` when no getter is known."""
    libraries = _openblas()
    return int(libraries[0][1]()) if libraries else None


def _timed_reduce(reducer, key, value):
    """Run ``reducer(key, value)`` and measure the wall-clock time spent inside it.

    The only timer on the MapReduce path and the only place a reducer
    runs. Module-level so that the process backend can submit it to a
    :class:`~concurrent.futures.ProcessPoolExecutor`; the timing is taken
    where the reducer runs, so it measures reducer compute, not
    serialisation.
    """
    start = time.perf_counter()
    output = reducer(key, value)
    return output, time.perf_counter() - start


# -- shared arrays ---------------------------------------------------------------------


_SPILL_PATH_RESOLVER = None
"""Optional hook translating spill paths at attach time.

Distributed workers receive partition files pushed by value (see
:mod:`repro.mapreduce.worker`) and store them under their own spill
directory; the hook maps the coordinator-side path carried by a pickled
handle to the worker-local copy. ``None`` (the default everywhere except
inside a worker) leaves paths untouched.
"""


def set_spill_path_resolver(resolver) -> None:
    """Install ``resolver`` (a ``path -> path`` callable, or ``None``) globally."""
    global _SPILL_PATH_RESOLVER
    _SPILL_PATH_RESOLVER = resolver


def _attach_spilled_array(meta: tuple[str, tuple, str]) -> "SharedArray":
    """Reconstruct a spilled :class:`SharedArray` in a worker process by path.

    The worker memory-maps the ``.npy`` spill file read-only; nothing is
    copied and the attached handle never owns (so never unlinks) the
    file — the coordinator's sealed handle does. On a distributed worker
    the path is first translated to the locally-received copy of the
    pushed file (see :func:`set_spill_path_resolver`).
    """
    path, shape, dtype = meta
    if _SPILL_PATH_RESOLVER is not None:
        path = _SPILL_PATH_RESOLVER(path)
    return SharedArray.from_spill_file(path, shape, dtype)


def _rebuild_by_value(array: np.ndarray) -> "SharedArray":
    """Reconstruct a by-value :class:`SharedArray` from its pickled rows."""
    array = np.asarray(array)
    array.flags.writeable = False
    return SharedArray(array, by_value=True)


class SharedArray:
    """A read-only NumPy array that reducers can reference cheaply on any backend.

    Instances are created by the partition stores' ``finalize``. A
    file-backed handle (the ``"shared"`` and ``"disk"`` tiers) views a
    memory-mapped ``.npy`` file and pickles as ``(path, shape, dtype)``,
    which the receiving process memory-maps read-only. A memory-tier
    handle pickles its rows by value (``by_value=True``), which is
    correct on every backend but pays the copy.
    """

    __slots__ = ("_array", "_spill_meta", "_owns_spill", "_by_value")

    def __init__(
        self,
        array: np.ndarray,
        *,
        spill_meta: tuple[str, tuple, str] | None = None,
        owns_spill: bool = False,
        by_value: bool = False,
    ) -> None:
        self._array = array
        self._spill_meta = spill_meta
        self._owns_spill = owns_spill
        self._by_value = by_value

    @classmethod
    def from_spill_file(
        cls, path: str, shape: tuple, dtype, *, owner: bool = False
    ) -> "SharedArray":
        """Memory-map an ``.npy`` partition file without copying it.

        Used by :class:`DiskPartitionStore` to hand off a partition it
        appended chunk by chunk. The owner-side handle (``owner=True``)
        deletes the file on :meth:`close`; handles attached in worker
        processes never do.
        """
        if int(np.prod(tuple(shape))) == 0:
            # mmap cannot map zero bytes; an empty partition is read eagerly
            # (it costs nothing) so zero-row spill files stay valid handles.
            view = np.load(path)
            view.flags.writeable = False
        else:
            view = np.load(path, mmap_mode="r")
        expected = (tuple(shape), np.dtype(dtype))
        if (view.shape, view.dtype) != expected:  # pragma: no cover - corruption guard
            raise InvalidParameterError(
                f"spill file {path} holds {view.shape} {view.dtype}; expected {expected}"
            )
        return cls(
            view,
            spill_meta=(os.fspath(path), tuple(shape), np.dtype(dtype).str),
            owns_spill=owner,
        )

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ``ndarray``."""
        return self._array

    @property
    def shape(self) -> tuple:
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, item) -> np.ndarray:
        return self._array[item]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # NumPy's own semantics: copy=True always copies, copy=False raises
        # ValueError when a copy would be needed, None copies only if needed.
        return np.array(self._array, dtype=dtype, copy=copy)

    def __reduce__(self):
        if self._spill_meta is not None:
            return (_attach_spilled_array, (self._spill_meta,))
        if self._by_value:
            return (_rebuild_by_value, (np.asarray(self._array),))
        raise TypeError(
            "this SharedArray wraps a plain in-process array and cannot be "
            "sent to another process; obtain it from a file-backed or "
            "by-value partition store instead"
        )

    def close(self) -> None:
        """Release the backing storage (owner side: also delete the file)."""
        if self._owns_spill and self._spill_meta is not None:
            # Drop the memmap view before deleting the file; on POSIX the
            # unlink is safe even if stray views are still mapped.
            path = self._spill_meta[0]
            self._array = np.empty(0, dtype=self._array.dtype)
            self._owns_spill = False
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - already deleted
                pass


# -- partition storage tiers -----------------------------------------------------------


def _partition_shape(dimension: int | None, capacity) -> tuple:
    """Row-block shape: ``(capacity, d)``, or ``(capacity,)`` for 1-d buffers."""
    if dimension is None:
        return (capacity,)
    return (capacity, dimension)


class MemoryPartitionStore:
    """Partition rows in a plain NumPy array in the coordinator's address space.

    The right tier for the serial and thread backends, whose reducers
    share the coordinator's memory. The array grows geometrically
    (amortised O(1) appends). The sealed handle pickles its rows *by
    value*, so the tier stays usable (at a copy cost) even under the
    process backend.
    """

    tier = "memory"

    def __init__(self, dimension: int | None, dtype: np.dtype, initial_capacity: int) -> None:
        self._dimension = dimension
        self._dtype = dtype
        self._n = 0
        self._storage = np.empty(
            _partition_shape(dimension, initial_capacity), dtype=dtype
        )

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def spilled_bytes(self) -> int:
        return 0

    def append(self, rows: np.ndarray) -> None:
        m = rows.shape[0]
        needed = self._n + m
        capacity = self._storage.shape[0]
        if needed > capacity:
            grown = np.empty(
                _partition_shape(self._dimension, max(needed, 2 * capacity)),
                dtype=self._dtype,
            )
            grown[: self._n] = self._storage[: self._n]
            self._storage = grown
        self._storage[self._n : needed] = rows
        self._n = needed

    def finalize(self) -> SharedArray:
        view = self._storage[: self._n]
        view.flags.writeable = False
        return SharedArray(view, by_value=True)

    def close(self) -> None:
        self._storage = np.empty(_partition_shape(self._dimension, 0), dtype=self._dtype)


_NPY_HEADER_SIZE = 128
"""Fixed on-disk ``.npy`` header size reserved by :class:`DiskPartitionStore`.

The header is rewritten in place at finalize time (once the row count is
known), so it must have a fixed length; 128 bytes fits any realistic
``(n, d)`` shape with room to spare and keeps the data 64-byte aligned
for the memmap.
"""


def _npy_header(shape: tuple, dtype: np.dtype) -> bytes:
    """A version-1.0 ``.npy`` header padded to exactly ``_NPY_HEADER_SIZE`` bytes."""
    descr = np.lib.format.dtype_to_descr(dtype)
    header = (
        f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': {tuple(shape)!r}, }}"
    ).encode("latin1")
    payload_len = _NPY_HEADER_SIZE - 10  # magic (6) + version (2) + length field (2)
    if len(header) + 1 > payload_len:  # pragma: no cover - astronomically large shapes
        raise InvalidParameterError(f"spill header for shape {shape} exceeds the reserved size")
    payload = header.ljust(payload_len - 1, b" ") + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", payload_len) + payload


class DiskPartitionStore:
    """Partition rows appended to an ``.npy`` file: the ``"shared"`` and ``"disk"`` tiers.

    Chunks are written straight through to the file (the coordinator
    keeps no copy), a placeholder header is rewritten with the true
    shape at finalize time, and the sealed partition is reopened as a
    read-only :class:`numpy.memmap`. Worker processes unpickling the
    handle open the file by path, so no row data is ever pickled.

    The tier only names where ``spill_dir`` lives: under ``"shared"`` it
    is a RAM-backed directory (``/dev/shm``), so the file's bytes are
    shared memory and :attr:`spilled_bytes` stays 0; under ``"disk"``
    every byte written counts as spilled.
    """

    def __init__(
        self, dimension: int | None, dtype: np.dtype, spill_dir: str, *, tier: str = "disk"
    ) -> None:
        self.tier = tier
        self._dimension = dimension
        self._dtype = dtype
        self._n = 0
        self._written = 0
        self._path = os.path.join(os.fspath(spill_dir), f"part-{uuid.uuid4().hex}.npy")
        self._file = open(self._path, "w+b")
        try:
            self._file.write(b"\0" * _NPY_HEADER_SIZE)
        except BaseException:
            self.close()
            raise

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def spilled_bytes(self) -> int:
        return self._written if self.tier == "disk" else 0

    def append(self, rows: np.ndarray) -> None:
        data = np.ascontiguousarray(rows)
        self._file.write(data.data)
        self._n += rows.shape[0]
        self._written += data.nbytes

    def finalize(self) -> SharedArray:
        shape = _partition_shape(self._dimension, self._n)
        self._file.seek(0)
        self._file.write(_npy_header(shape, self._dtype))
        self._file.close()
        self._file = None
        path, self._path = self._path, None
        return SharedArray.from_spill_file(path, shape, self._dtype, owner=True)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._path is not None:
            path, self._path = self._path, None
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - already deleted
                pass


_STORAGE_TIERS = ("disk", "memory", "shared")


def available_storage_tiers() -> tuple[str, ...]:
    """Names accepted by the ``storage=`` knobs (``"auto"`` plus the concrete tiers)."""
    return ("auto",) + _STORAGE_TIERS


def check_storage_tier(storage: str) -> str:
    """Return ``storage`` if it names a tier, else raise :class:`InvalidParameterError`."""
    if storage not in available_storage_tiers():
        raise InvalidParameterError(
            f"unknown storage tier {storage!r}; available: "
            f"{', '.join(available_storage_tiers())}"
        )
    return storage


def resolve_storage(
    storage: str | None,
    *,
    backend: "ExecutorBackend | None" = None,
    estimated_bytes: int | None = None,
    memory_budget_bytes: int | None = None,
) -> str:
    """Turn a storage knob (``"auto"``/``"memory"``/``"shared"``/``"disk"``) into a tier.

    ``"auto"`` (or ``None``) preserves the historical pairing — the
    backend's ``default_storage``: ``"shared"`` (files under
    ``/dev/shm``) for the process pool, plain in-process arrays
    otherwise — unless a
    ``memory_budget_bytes`` is given and the shuffle's estimated
    partition-tier footprint exceeds it (or is unknown, for unsized
    streams), in which case the shuffle spills to disk.
    """
    if check_storage_tier("auto" if storage is None else storage) != "auto":
        return storage
    if memory_budget_bytes is not None and (
        estimated_bytes is None or estimated_bytes > memory_budget_bytes
    ):
        return "disk"
    return getattr(backend, "default_storage", "memory")


class PartitionBuffer:
    """Append-only row buffer for one shuffle partition, on a pluggable storage tier.

    The out-of-core shuffle routes each incoming chunk's rows directly
    into per-partition buffers so the coordinator never assembles the
    full ``(n, d)`` matrix. The buffer validates and counts rows and
    delegates storage to a store:

    * ``storage="memory"`` — a plain NumPy array in the current address
      space (:class:`MemoryPartitionStore`); ``"auto"`` resolves to it;
    * ``storage="shared"`` or ``"disk"`` — an ``.npy`` file in
      ``spill_dir`` (:class:`DiskPartitionStore`; the caller picks a
      RAM-backed directory for ``"shared"``).

    The memory tier grows geometrically (amortised O(1) appends; for
    unknown-length streams the overshoot is at most 2x the partition
    size, and exact-size preallocation is available through
    ``initial_capacity``); the file tiers append straight to their file.
    ``dimension=None`` stores scalar rows (a 1-d buffer), which the
    drivers use for the global-index column that rides along with each
    partition's points.
    """

    def __init__(
        self,
        dimension: int | None,
        *,
        dtype=np.float64,
        initial_capacity: int = 1024,
        storage: str = "memory",
        spill_dir: str | None = None,
    ) -> None:
        if dimension is not None and dimension < 1:
            raise InvalidParameterError("dimension must be >= 1 (or None for 1-d rows)")
        if initial_capacity < 1:
            raise InvalidParameterError("initial_capacity must be >= 1")
        storage = resolve_storage(storage)
        self._dimension = None if dimension is None else int(dimension)
        self._dtype = np.dtype(dtype)
        self._finalized = False
        if storage == "memory":
            self._store = MemoryPartitionStore(
                self._dimension, self._dtype, int(initial_capacity)
            )
        else:
            if spill_dir is None:
                raise InvalidParameterError(
                    f"{storage} partition storage requires a spill_dir"
                )
            self._store = DiskPartitionStore(
                self._dimension, self._dtype, spill_dir, tier=storage
            )

    @property
    def n_rows(self) -> int:
        """Rows appended so far."""
        return self._store.n_rows

    @property
    def storage_tier(self) -> str:
        """Name of the tier the rows live on (``"memory"``/``"shared"``/``"disk"``)."""
        return self._store.tier

    @property
    def spilled_bytes(self) -> int:
        """Bytes this buffer wrote to disk (0 for the ``"memory"`` and ``"shared"`` tiers)."""
        return self._store.spilled_bytes

    def append(self, rows) -> None:
        """Append a block of rows (``(m, d)``, or ``(m,)`` for 1-d buffers)."""
        if self._finalized:
            raise InvalidParameterError("cannot append to a finalized PartitionBuffer")
        rows = np.asarray(rows, dtype=self._dtype)
        expected_ndim = 1 if self._dimension is None else 2
        if rows.ndim != expected_ndim or (
            self._dimension is not None and rows.shape[1] != self._dimension
        ):
            raise InvalidParameterError(
                f"rows must have shape {_partition_shape(self._dimension, 'm')}; "
                f"got {rows.shape}"
            )
        if rows.shape[0] == 0:
            return
        self._store.append(rows)

    def finalize(self) -> SharedArray:
        """Seal the buffer and return its contents as a read-only :class:`SharedArray`.

        Zero-copy: the returned wrapper views the buffer's own storage
        (the file transfers to it for the file-backed tiers). The buffer
        cannot be appended to afterwards.
        """
        if self._finalized:
            raise InvalidParameterError("PartitionBuffer already finalized")
        self._finalized = True
        return self._store.finalize()

    def close(self) -> None:
        """Release storage that was never handed off. Idempotent."""
        self._store.close()


# -- backends --------------------------------------------------------------------------


@runtime_checkable
class ExecutorBackend(Protocol):
    """How the tasks of a MapReduce round are executed.

    ``run_reducers`` calls ``reducer(key, value)`` once per ``(key,
    value)`` task and returns one ``(output, elapsed_seconds)`` pair per
    task, in task order — the runtime relies on that to keep accounting
    and output order identical across backends.
    """

    name: str
    #: BLAS thread count the backend sets for its reducers, or ``None``
    #: when they run under the coordinator's own count;
    #: :attr:`RoundStats.blas_threads
    #: <repro.mapreduce.runtime.RoundStats.blas_threads>` records it.
    blas_threads: int | None

    def run_reducers(
        self, reducer, tasks: Sequence[tuple[Hashable, object]]
    ) -> list[tuple[object, float]]:
        """Run ``reducer`` on every task and return outputs plus timings."""
        ...

    def close(self) -> None:
        """Release pools. Idempotent."""
        ...


class SerialBackend:
    """Reference backend: reducers run sequentially in the calling process."""

    name = "serial"
    #: Reducers share the coordinator's address space; shuffle partition
    #: buffers can live on the plain heap.
    default_storage = "memory"
    blas_threads = None

    def run_reducers(self, reducer, tasks):
        return [_timed_reduce(reducer, key, value) for key, value in tasks]

    def close(self) -> None:
        pass


class _PoolBackend:
    """A backend whose reducers run on a lazily created executor pool."""

    _executor: type  # the concurrent.futures executor class
    blas_threads = None

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = _check_workers(max_workers)
        self._pool = None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _new_pool(self):
        return self._executor(max_workers=self._max_workers)

    def run_reducers(self, reducer, tasks):
        if self._pool is None:
            self._pool = self._new_pool()
        futures = [
            self._pool.submit(_timed_reduce, reducer, key, value) for key, value in tasks
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadBackend(_PoolBackend):
    """Reducers run concurrently on a thread pool (shared address space, GIL applies).

    BLAS is never pinned: the threads share the coordinator's process, so
    a thread count set for one reducer would hold for the whole process.
    """

    name = "threads"
    default_storage = "memory"
    _executor = ThreadPoolExecutor

    def run_reducers(self, reducer, tasks):
        if self._max_workers == 1 or len(tasks) <= 1:
            return [_timed_reduce(reducer, key, value) for key, value in tasks]
        return super().run_reducers(reducer, tasks)


class ProcessBackend(_PoolBackend):
    """Reducers run on a process pool; partitions travel as file handles.

    The reducer callable and each task's value are pickled per task, so
    reducers must be module-level functions or partials thereof.
    Partitions on the file-backed tiers pickle as a path that the worker
    memory-maps, so a task carries no row data.

    Each worker process sets its BLAS thread count to
    :attr:`blas_threads` when it starts: the usable cores split evenly
    among the workers, ``max(1, usable_cores() // max_workers)``, and
    never more than the coordinator's own count (so a host that limited
    BLAS threads keeps its limit). Without the budget every forked
    worker inherits the coordinator's full count, which oversubscribes
    the cores and makes GEMV-shaped kernels pay thread-sync costs. The
    budget is fixed per pool: a per-round budget that gave one-task
    rounds every core measured no faster, since those rounds take about
    a millisecond in the benchmarked jobs. The coordinator's count is
    never changed. ``blas_threads`` is ``None`` when no known OpenBLAS is
    loaded; the workers then run unpinned.
    """

    name = "processes"
    #: Reducers run in separate processes; partitions go to files under
    #: ``/dev/shm`` that tasks reference by path.
    default_storage = "shared"
    _executor = ProcessPoolExecutor

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__(max_workers)
        coordinator = blas_threads()
        if coordinator is not None:
            self.blas_threads = min(coordinator, max(1, usable_cores() // self._max_workers))

    def _new_pool(self):
        if self.blas_threads is None:
            return super()._new_pool()
        return self._executor(
            max_workers=self._max_workers,
            initializer=set_blas_threads,
            initargs=(self.blas_threads,),
        )


_BACKENDS = {
    "serial": SerialBackend,
    "threads": ThreadBackend,
    "processes": ProcessBackend,
}

#: Registered lazily in :func:`resolve_backend` (the implementation lives
#: in :mod:`repro.mapreduce.cluster`, which imports this module).
_DISTRIBUTED = "distributed"


def _check_workers(max_workers: int | None) -> int:
    if max_workers is None:
        return usable_cores()
    if max_workers < 1:
        raise InvalidParameterError("max_workers must be >= 1")
    return int(max_workers)


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`resolve_backend` (and the ``backend=`` knobs)."""
    return tuple(sorted((*_BACKENDS, _DISTRIBUTED)))


def resolve_backend(
    backend: str | ExecutorBackend | None = None,
    *,
    max_workers: int | None = None,
    workers=None,
) -> ExecutorBackend:
    """Turn a backend name (or ``None``, or a ready instance) into a backend.

    ``None`` preserves the runtime's historical behavior: a thread pool
    when ``max_workers`` > 1, the serial reference otherwise — unless
    ``workers`` (a sequence of ``host:port`` addresses) is given, which
    selects the distributed backend. Strings are looked up among
    :func:`available_backends`; for ``"threads"`` and ``"processes"`` a
    ``max_workers`` of ``None`` means one worker per usable core.
    ``"distributed"`` requires ``workers`` and takes no ``max_workers``
    (the address list sizes the cluster), and ``"serial"`` takes none
    above 1. An instance is returned as is; it is configured directly,
    so neither ``max_workers`` nor ``workers`` may accompany it.
    """
    if backend is None and workers is not None:
        backend = _DISTRIBUTED
    if backend is None:
        if max_workers is not None and max_workers > 1:
            return ThreadBackend(max_workers)
        return SerialBackend()
    if not isinstance(backend, str):
        for knob, value in (("workers", workers), ("max_workers", max_workers)):
            if value is not None:
                raise InvalidParameterError(
                    f"{knob}= only applies to a backend named by string; "
                    "configure the backend instance directly instead"
                )
        if isinstance(backend, ExecutorBackend):
            return backend
        raise InvalidParameterError(
            f"backend must be a string or an ExecutorBackend; got {backend!r}"
        )
    name = backend.lower()
    if name == _DISTRIBUTED:
        from .cluster import DistributedBackend

        if workers is None:
            raise InvalidParameterError(
                "the distributed backend requires worker addresses "
                "(workers=['host:port', ...]); start daemons with "
                "'repro worker --listen HOST:PORT'"
            )
        if max_workers is not None:
            raise InvalidParameterError(
                "max_workers= does not apply to the 'distributed' backend; "
                "its workers= address list sizes the cluster"
            )
        return DistributedBackend(workers)
    if workers is not None:
        raise InvalidParameterError(
            f"workers= addresses only apply to the 'distributed' backend; "
            f"got backend={backend!r} (use max_workers= for pool sizes)"
        )
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
        ) from None
    if factory is SerialBackend:
        if max_workers is not None and _check_workers(max_workers) > 1:
            raise InvalidParameterError(
                f"the 'serial' backend runs one reducer at a time; got "
                f"max_workers={max_workers} (use 'threads' or 'processes' for a pool)"
            )
        return SerialBackend()
    return factory(max_workers)
