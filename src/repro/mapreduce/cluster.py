"""Coordinator side of the distributed executor backend.

:class:`DistributedBackend` implements the
:class:`~repro.mapreduce.backends.ExecutorBackend` protocol over TCP: it
ships each ``(key, value)`` task to one of a fixed set of worker daemons (see
:mod:`repro.mapreduce.worker` for the daemon and the wire protocol),
runs the reducer remotely, and collects the pickled results. It slots
into :class:`~repro.mapreduce.runtime.MapReduceRuntime` like any other
backend — ``backend="distributed"`` plus ``workers=["host:port", ...]``
— and the drivers' results are bit-identical to the serial reference
because all randomness is drawn in the coordinator before dispatch.

Placement and payloads
----------------------
Tasks are placed round-robin: the task at position ``i`` of the round
(for the shuffle rounds, exactly the partition index) goes to
worker ``i mod W``. Placement is therefore a pure function of the
partition index and the worker list, matching the pure-function routing
of the shuffle itself. The reducer callable is shipped once per round
per worker, not once per task. Partition payloads travel by tier:

* memory-tier partitions (the default under this backend) pickle their
  rows *by value* inside the TASK frame;
* file-backed partitions (the ``"shared"`` and ``"disk"`` tiers) are
  detected while pickling the task (the handles carry their path),
  pushed once per worker as raw ``.npy`` bytes in a PUT frame, and
  re-opened worker-side as read-only memmaps — no row data is pickled,
  and a file already pushed to a worker is never pushed twice.

Failure model
-------------
A transport failure — refused connection, reset, EOF or truncated frame
mid-result — marks the worker dead for the rest of the job and requeues
its unfinished tasks round-robin onto the surviving workers (reducers
are pure, so a retry is safe and bit-identical). When no worker
survives, :class:`~repro.exceptions.WorkerUnavailableError` reports the
last failure seen per worker. An exception raised *by the reducer* is
deterministic and is not retried: it surfaces as
:class:`~repro.exceptions.WorkerTaskError` with the remote traceback.
Per-round attempts and shipped bytes are recorded in
:attr:`~repro.mapreduce.runtime.JobStats.worker_assignments` and
:attr:`~repro.mapreduce.runtime.JobStats.bytes_shipped`.

:class:`LocalCluster` spawns N in-process loopback workers (real TCP,
real pickling, deterministic failure injection) so the full distributed
path runs in CI without any remote machines.
"""

from __future__ import annotations

import io
import pickle
import socket
import threading
from typing import Hashable, Sequence

from ..exceptions import (
    InvalidParameterError,
    WorkerTaskError,
    WorkerUnavailableError,
)
from .backends import SharedArray
from .worker import (
    OP_ERROR,
    OP_OK,
    OP_PUT,
    OP_QUIT,
    OP_REDUCER,
    OP_RESULT,
    OP_TASK,
    WorkerServer,
    parse_worker_address,
    recv_frame,
    send_frame,
)

__all__ = [
    "DistributedBackend",
    "LocalCluster",
]


class _SpillScanPickler(pickle.Pickler):
    """Pickles a payload while collecting the spill files it references.

    File-backed :class:`SharedArray` handles pickle as ``(path, shape,
    dtype)`` — no row data — so the coordinator must learn *which* files
    a task needs in order to push them ahead of it. Scanning during the
    one pickling pass the task needs anyway makes discovery free.
    """

    def __init__(self, buffer: io.BytesIO) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.spill_paths: list[str] = []

    def persistent_id(self, obj):
        if isinstance(obj, SharedArray):
            meta = getattr(obj, "_spill_meta", None)
            if meta is not None and meta[0] not in self.spill_paths:
                self.spill_paths.append(meta[0])
        return None  # always pickle normally; the scan is a side effect


def _dumps_scanning_spills(payload) -> tuple[bytes, list[str]]:
    buffer = io.BytesIO()
    pickler = _SpillScanPickler(buffer)
    pickler.dump(payload)
    return buffer.getvalue(), pickler.spill_paths


class _WorkerLink:
    """Coordinator-side state for one worker: socket, liveness, pushed files."""

    __slots__ = (
        "host", "port", "label", "sock", "alive", "failure",
        "pushed_spills", "round_marker",
    )

    def __init__(self, spec) -> None:
        self.host, self.port = parse_worker_address(spec)
        if self.port == 0:
            raise InvalidParameterError(
                f"a worker address needs the daemon's bound port, not 0; got {spec!r}"
            )
        self.label = f"{self.host}:{self.port}"
        self.sock: socket.socket | None = None
        self.alive = True
        self.failure: str | None = None
        self.pushed_spills: set[str] = set()
        self.round_marker: object | None = None

    def close(self, *, polite: bool) -> None:
        sock, self.sock = self.sock, None
        if sock is None:
            return
        if polite:
            try:
                send_frame(sock, OP_QUIT)
                recv_frame(sock)
            except OSError:
                pass
        sock.close()
        # A QUIT ends the worker-side connection, which deletes the spill
        # files it received — the next connection must push them again.
        self.pushed_spills.clear()
        self.round_marker = None


class DistributedBackend:
    """Executor backend that runs reducers on remote worker daemons over TCP.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs), e.g. the :attr:`LocalCluster.addresses` of a test
        cluster or the printed listen addresses of ``repro worker``
        daemons. At least one is required; the list order defines the
        round-robin placement.
    connect_timeout:
        Seconds to wait for a TCP connect before declaring a worker
        unreachable (the job then proceeds on the surviving workers).

    Notes
    -----
    The backend keeps one connection per worker, reused across rounds
    and across runtimes until :meth:`close`; a closed backend reconnects
    lazily, so instances may be reused. ``close()`` ends the
    connections but never stops the daemons themselves.
    """

    name = "distributed"
    #: Workers live in other processes (possibly other hosts); shuffle
    #: partition buffers default to the by-value memory tier.
    default_storage = "memory"
    #: Daemons run reducers under their own BLAS thread count.
    blas_threads = None

    def __init__(
        self,
        workers: Sequence,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        links = [_WorkerLink(spec) for spec in workers]
        if not links:
            raise InvalidParameterError(
                "the distributed backend requires at least one worker address"
            )
        if connect_timeout <= 0:
            raise InvalidParameterError("connect_timeout must be positive")
        self._links = links
        self._connect_timeout = float(connect_timeout)
        self._lock = threading.Lock()
        self._last_assignments: dict[Hashable, list[str]] = {}
        self._last_bytes = 0
        self._bytes_shipped = 0

    # -- introspection -----------------------------------------------------------------

    @property
    def worker_addresses(self) -> tuple[str, ...]:
        """The configured worker addresses, in placement order."""
        return tuple(link.label for link in self._links)

    @property
    def max_workers(self) -> int:
        """Number of configured workers (the backend's degree of parallelism)."""
        return len(self._links)

    @property
    def bytes_shipped(self) -> int:
        """Total payload bytes sent to workers over this backend's lifetime."""
        return self._bytes_shipped

    def take_round_accounting(self) -> tuple[dict[Hashable, list[str]], int]:
        """Per-round accounting for :class:`~repro.mapreduce.runtime.JobStats`.

        Returns ``(assignments, bytes_shipped)`` for the most recent
        :meth:`run_reducers` call and resets the per-round counters:
        ``assignments`` maps each task key to the worker labels that
        were attempted in order (more than one entry records a retry
        after a worker failure).
        """
        assignments, self._last_assignments = self._last_assignments, {}
        shipped, self._last_bytes = self._last_bytes, 0
        return assignments, shipped

    # -- connection plumbing -----------------------------------------------------------

    def _connect(self, link: _WorkerLink) -> socket.socket:
        sock = socket.create_connection(
            (link.host, link.port), timeout=self._connect_timeout
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _mark_dead(self, link: _WorkerLink, exc: BaseException) -> None:
        link.alive = False
        link.failure = f"{type(exc).__name__}: {exc}"
        sock, link.sock = link.sock, None
        if sock is not None:
            sock.close()
        link.pushed_spills.clear()
        link.round_marker = None

    def _request(self, link: _WorkerLink, opcode: bytes, payload: bytes) -> tuple[bytes, bytes]:
        send_frame(link.sock, opcode, payload)
        return recv_frame(link.sock)

    # -- the ExecutorBackend protocol --------------------------------------------------

    def run_reducers(self, reducer, tasks):
        """Run ``reducer`` on every ``(key, value)`` task across the workers; see the module docs."""
        tasks = list(tasks)
        reducer_payload = pickle.dumps(reducer, protocol=pickle.HIGHEST_PROTOCOL)

        round_marker = object()
        assignments: dict[Hashable, list[str]] = {key: [] for key, _ in tasks}
        results: dict[int, tuple[object, float]] = {}
        task_errors: list[WorkerTaskError] = []
        abort = threading.Event()
        shipped = [0]  # single cell, guarded by self._lock

        def remote_error(response: bytes, context: str, link: _WorkerLink) -> WorkerTaskError:
            exc_type, message, remote_traceback = pickle.loads(response)
            return WorkerTaskError(
                f"{context} raised {exc_type} on worker {link.label}: {message}\n"
                f"--- remote traceback ---\n{remote_traceback}"
            )

        def drain(link: _WorkerLink, assigned: list[int], failed: list[int]) -> None:
            sent = 0

            def expect_ok(opcode: bytes, response: bytes, context: str) -> bool:
                """True when OK; records a (non-retriable) remote error on ERROR."""
                if opcode == OP_OK:
                    return True
                if opcode == OP_ERROR:
                    # An application error (unpicklable reducer, bad spill
                    # payload) is deterministic: abort instead of retrying
                    # the identical payload on every worker in turn.
                    task_errors.append(remote_error(response, context, link))
                    abort.set()
                    return False
                raise ProtocolViolation(opcode)

            try:
                for position, index in enumerate(assigned):
                    if abort.is_set():
                        failed.extend(assigned[position:])
                        return
                    key = tasks[index][0]
                    assignments[key].append(link.label)
                    if link.sock is None:
                        link.sock = self._connect(link)
                        link.round_marker = None
                    if link.round_marker is not round_marker:
                        opcode, response = self._request(link, OP_REDUCER, reducer_payload)
                        if not expect_ok(opcode, response, "unpickling the reducer"):
                            failed.extend(assigned[position:])
                            return
                        link.round_marker = round_marker
                        sent += len(reducer_payload)
                    # Pickled per dispatch (not up front for the whole round),
                    # so the coordinator holds at most one serialized payload
                    # per worker in flight — a retry re-pickles instead of the
                    # round keeping a full serialized copy of every partition.
                    payload, spill_paths = _dumps_scanning_spills(tasks[index])
                    for path in spill_paths:
                        if path in link.pushed_spills:
                            continue
                        with open(path, "rb") as handle:
                            data = handle.read()
                        put_payload = pickle.dumps(
                            (path, data), protocol=pickle.HIGHEST_PROTOCOL
                        )
                        opcode, response = self._request(link, OP_PUT, put_payload)
                        if not expect_ok(
                            opcode, response, f"storing pushed spill file {path!r}"
                        ):
                            failed.extend(assigned[position:])
                            return
                        link.pushed_spills.add(path)
                        sent += len(put_payload)
                    opcode, response = self._request(link, OP_TASK, payload)
                    sent += len(payload)
                    if opcode == OP_RESULT:
                        results[index] = pickle.loads(response)
                    elif opcode == OP_ERROR:
                        task_errors.append(
                            remote_error(response, f"reducer for key {key!r}", link)
                        )
                        abort.set()
                        failed.extend(assigned[position + 1:])
                        return
                    else:
                        raise ProtocolViolation(opcode)
            except (OSError, EOFError, pickle.PickleError, ProtocolViolation) as exc:
                self._mark_dead(link, exc)
                # The task in flight and everything after it must be retried.
                failed.extend(index for index in assigned if index not in results)
            except Exception as exc:
                # Anything else (e.g. a RESULT that unpickles into a class the
                # coordinator cannot resolve) is deterministic: surface it
                # instead of letting the thread die and the tasks vanish.
                task_errors.append(WorkerTaskError(
                    f"coordinator-side failure handling results from worker "
                    f"{link.label}: {exc!r}"
                ))
                abort.set()
            finally:
                with self._lock:
                    shipped[0] += sent

        pending = list(range(len(tasks)))
        while pending and not abort.is_set():
            alive = [link for link in self._links if link.alive]
            if not alive:
                details = "; ".join(
                    f"{link.label}: {link.failure or 'no failure recorded'}"
                    for link in self._links
                )
                raise WorkerUnavailableError(
                    f"no surviving worker to run {len(pending)} remaining reduce "
                    f"task(s) ({details})"
                )
            queues: list[list[int]] = [[] for _ in alive]
            for index in pending:
                queues[index % len(alive)].append(index)
            failures: list[list[int]] = [[] for _ in alive]
            threads = []
            for link, assigned, failed in zip(alive, queues, failures):
                if not assigned:
                    continue
                thread = threading.Thread(
                    target=drain, args=(link, assigned, failed), daemon=True
                )
                threads.append(thread)
                thread.start()
            for thread in threads:
                thread.join()
            if task_errors:
                raise task_errors[0]
            pending = sorted(
                {index for failed in failures for index in failed if index not in results}
            )

        self._last_assignments = assignments
        self._last_bytes = shipped[0]
        self._bytes_shipped += shipped[0]
        return [results[index] for index in range(len(tasks))]

    def close(self) -> None:
        """End the worker connections (the daemons keep serving). Idempotent."""
        for link in self._links:
            link.close(polite=link.alive)

    def __enter__(self) -> "DistributedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProtocolViolation(Exception):
    """Internal: the worker answered with an unexpected opcode.

    Treated exactly like a transport failure (the worker is marked dead
    and its tasks retried elsewhere); never escapes the backend.
    """

    def __init__(self, opcode: bytes) -> None:
        super().__init__(f"unexpected response opcode {opcode!r}")


class LocalCluster:
    """N in-process loopback workers, for tests and the CI smoke jobs.

    Spawns :class:`~repro.mapreduce.worker.WorkerServer` instances on
    ``127.0.0.1`` (OS-assigned ports), each serving on a background
    thread — real TCP sockets and real pickling, but deterministic and
    self-contained. The workers live in the coordinator's process, so
    their reducers share the coordinator's BLAS threads and are never
    pinned (a pin would be process-wide). Separate ``repro worker``
    daemons each have their own count, which the host can limit when it
    starts them (see :mod:`repro.mapreduce.worker`). Use as a context
    manager::

        with LocalCluster(2) as cluster:
            solver = MapReduceKCenter(5, workers=cluster.addresses)
            result = solver.fit(points)

    Parameters
    ----------
    n_workers:
        Number of loopback workers to start.
    fail_after_tasks:
        Optional failure injection: ``{worker_index: n}`` makes that
        worker die on its ``n+1``-th task (see
        :class:`~repro.mapreduce.worker.WorkerServer`).
    fail_mode:
        ``"close"`` (drop the connection) or ``"truncate"`` (send a
        partial result frame first).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        fail_after_tasks: dict[int, int] | None = None,
        fail_mode: str = "close",
    ) -> None:
        if n_workers < 1:
            raise InvalidParameterError("n_workers must be >= 1")
        fail_after_tasks = fail_after_tasks or {}
        self._servers: list[WorkerServer] = []
        try:
            for index in range(n_workers):
                server = WorkerServer(
                    fail_after_tasks=fail_after_tasks.get(index),
                    fail_mode=fail_mode,
                )
                self._servers.append(server)
                server.serve_in_background()
        except BaseException:
            self.close()
            raise

    @property
    def addresses(self) -> list[str]:
        """``host:port`` of every worker, in placement order."""
        return [server.address for server in self._servers]

    @property
    def workers(self) -> list[WorkerServer]:
        """The underlying servers (for spill-dir and task-count assertions)."""
        return list(self._servers)

    def backend(self, **kwargs) -> DistributedBackend:
        """A :class:`DistributedBackend` wired to this cluster's workers."""
        return DistributedBackend(self.addresses, **kwargs)

    def kill_worker(self, index: int) -> None:
        """Hard-stop one worker (listener and live connections)."""
        self._servers[index].shutdown()

    def close(self) -> None:
        """Stop every worker and remove their spill directories. Idempotent."""
        for server in self._servers:
            server.shutdown()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
