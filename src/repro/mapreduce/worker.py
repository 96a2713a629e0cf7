"""Distributed MapReduce worker daemon and the TCP wire protocol.

``python -m repro.mapreduce.worker --listen HOST:PORT`` (or ``repro
worker --listen HOST:PORT``) starts a worker daemon: a small TCP server
that accepts reduce tasks from a coordinator-side
:class:`~repro.mapreduce.cluster.DistributedBackend`, executes them in
the worker's own address space, and streams the pickled results back.
One daemon serves any number of jobs, one connection per job; the
in-process :class:`~repro.mapreduce.cluster.LocalCluster` harness spawns
the same server on loopback sockets for deterministic tests.

A daemon runs its reducers under its own OpenBLAS thread count, all of
the host's cores by default, which suits one daemon per host. When
several daemons share a host's cores, give each its share when starting
it, e.g. ``OPENBLAS_NUM_THREADS=2 repro worker ...`` or ``taskset -c
0,1 repro worker ...``.

Wire protocol
-------------
Every frame is a 9-byte header — a 1-byte opcode followed by an unsigned
8-byte big-endian payload length — and then the payload itself. Request
opcodes (coordinator to worker):

* ``h`` **HELLO** — empty payload; the worker replies OK with pickled
  metadata (pid, address, spill directory).
* ``r`` **REDUCER** — pickled reducer callable; becomes the connection's
  current reducer (sent once per round, not once per task). Replies OK.
* ``p`` **PUT** — pickled ``(origin_path, file_bytes)``: a partition
  file (``"shared"`` or ``"disk"`` tier) pushed by value. The worker
  writes the bytes into its own spill directory and registers
  ``origin_path`` as an alias, so a file-backed
  :class:`~repro.mapreduce.backends.SharedArray` handle
  pickled into a later task re-opens the *local copy* as a read-only
  memmap. Replies OK with the local path.
* ``t`` **TASK** — pickled ``(key, value)``: call the connection's
  reducer as ``reducer(key, value)``. Replies RESULT with pickled
  ``(output, elapsed_seconds)``, or ERROR with a pickled
  ``(exception_type, message, traceback)`` summary when the reducer
  itself raised (an application failure the coordinator must not retry).
* ``q`` **QUIT** — end the connection. The worker deletes every spill
  file received on it, then replies OK and closes.

Response opcodes (worker to coordinator): ``o`` OK, ``R`` RESULT,
``E`` ERROR. Anything that breaks the framing — EOF mid-frame, an
unknown opcode — is a *transport* failure: the coordinator marks the
worker dead and retries its tasks on the surviving workers, while the
worker drops the connection and cleans up its received files. Memory-tier
partitions need no PUT at all: their handles pickle the rows by value
inside the TASK frame.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import socket
import struct
import sys
import tempfile
import threading
import traceback
import uuid
from typing import Sequence

from ..exceptions import InvalidParameterError
from . import backends as _backends
from .backends import _timed_reduce

__all__ = [
    "OP_HELLO",
    "OP_REDUCER",
    "OP_PUT",
    "OP_TASK",
    "OP_QUIT",
    "OP_OK",
    "OP_RESULT",
    "OP_ERROR",
    "ProtocolError",
    "parse_worker_address",
    "send_frame",
    "recv_frame",
    "WorkerServer",
    "serve",
    "add_worker_arguments",
    "main",
]


_HEADER = struct.Struct("!cQ")

OP_HELLO = b"h"
OP_REDUCER = b"r"
OP_PUT = b"p"
OP_TASK = b"t"
OP_QUIT = b"q"
OP_OK = b"o"
OP_RESULT = b"R"
OP_ERROR = b"E"

_REQUEST_OPS = (OP_HELLO, OP_REDUCER, OP_PUT, OP_TASK, OP_QUIT)

#: Upper bound on a single frame's payload, a corruption guard: a header
#: announcing more than this is treated as a broken stream rather than
#: honoured with a terabyte-sized allocation.
MAX_FRAME_BYTES = 1 << 40


class ProtocolError(ConnectionError):
    """The peer violated the framing (EOF mid-frame, bad opcode, oversized frame).

    A :class:`ConnectionError`, so coordinator-side code that treats
    ``OSError`` as "this worker is gone" handles truncated frames and
    vanished peers through one code path.
    """


def send_frame(sock: socket.socket, opcode: bytes, payload: bytes = b"") -> None:
    """Write one length-prefixed frame to ``sock``."""
    sock.sendall(_HEADER.pack(opcode, len(payload)))
    if payload:
        sock.sendall(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ProtocolError` on early EOF."""
    parts = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes received)"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def recv_frame(sock: socket.socket) -> tuple[bytes, bytes]:
    """Read one frame; returns ``(opcode, payload)``."""
    opcode, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame announces {length} bytes; refusing")
    payload = _recv_exact(sock, length) if length else b""
    return opcode, payload


# -- worker-side spill aliasing --------------------------------------------------------

_CONNECTION_LOCAL = threading.local()
"""Per-connection spill-path aliases (each connection runs on its own thread)."""


def _translate_spill_path(path: str) -> str:
    """Resolve a coordinator-side spill path to this connection's local copy."""
    aliases = getattr(_CONNECTION_LOCAL, "spill_aliases", None)
    if aliases:
        return aliases.get(path, path)
    return path


def _install_spill_resolver() -> None:
    _backends.set_spill_path_resolver(_translate_spill_path)


# -- the server ------------------------------------------------------------------------


def parse_worker_address(spec) -> tuple[str, int]:
    """Parse a worker address: ``"host:port"`` or a ``(host, port)`` pair.

    Port 0 is accepted: as a listen address it asks the OS for a free
    port (the coordinator side rejects it, see
    :class:`~repro.mapreduce.cluster.DistributedBackend`).
    """
    if isinstance(spec, tuple) and len(spec) == 2:
        host, port = spec
    else:
        host, sep, port = str(spec).rpartition(":")
        if not sep or not host:
            raise InvalidParameterError(
                f"worker address must look like HOST:PORT; got {spec!r}"
            )
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"worker address must look like HOST:PORT; got {spec!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise InvalidParameterError(f"worker port must be in [0, 65535]; got {port}")
    return str(host), port


class WorkerServer:
    """A distributed-MapReduce worker: one TCP listener, one thread per connection.

    Parameters
    ----------
    host, port:
        Listen address. Port 0 (the default) binds a free port; the
        bound address is available as :attr:`address`.
    spill_dir:
        Directory for spill files received through PUT frames. ``None``
        (default) creates a worker-owned temporary directory that
        :meth:`shutdown` removes; a caller-provided directory is created
        if missing and left in place.
    fail_after_tasks, fail_mode:
        Deterministic failure injection for tests: after
        ``fail_after_tasks`` completed TASK frames the worker "dies" on
        the next one — ``fail_mode="close"`` drops the connection cold,
        ``fail_mode="truncate"`` first writes a partial result frame
        (header plus a few bytes) so the coordinator exercises its
        truncated-frame path. Once triggered the worker stays dead for
        every later task until :meth:`revive` is called.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        spill_dir: str | None = None,
        fail_after_tasks: int | None = None,
        fail_mode: str = "close",
    ) -> None:
        if fail_mode not in ("close", "truncate"):
            raise InvalidParameterError(
                f"fail_mode must be 'close' or 'truncate'; got {fail_mode!r}"
            )
        if fail_after_tasks is not None and fail_after_tasks < 0:
            raise InvalidParameterError("fail_after_tasks must be >= 0 or None")
        _install_spill_resolver()
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        bound = self._listener.getsockname()
        self.host, self.port = bound[0], bound[1]
        self.address = f"{self.host}:{self.port}"
        if spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-worker-")
            self._owns_spill_dir = True
        else:
            os.makedirs(spill_dir, exist_ok=True)
            self._spill_dir = os.fspath(spill_dir)
            self._owns_spill_dir = False
        self._fail_after = fail_after_tasks
        self._fail_mode = fail_mode
        self._failed = False
        self._tasks_completed = 0
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._connections: set[socket.socket] = set()
        self._handler_threads: list[threading.Thread] = []
        self._serve_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def spill_dir(self) -> str:
        """Directory holding the spill files this worker received."""
        return self._spill_dir

    @property
    def tasks_completed(self) -> int:
        """TASK frames answered with a RESULT so far (all connections)."""
        with self._lock:
            return self._tasks_completed

    def revive(self) -> None:
        """Clear a triggered failure injection so the worker serves again."""
        with self._lock:
            self._failed = False
            self._tasks_completed = 0

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`; blocks the calling thread."""
        while not self._shutdown.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                if self._shutdown.is_set():
                    conn.close()
                    break
                self._connections.add(conn)
                thread = threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                )
                # Prune finished handlers so a long-lived daemon serving
                # many jobs does not accumulate dead Thread objects.
                self._handler_threads = [
                    handler for handler in self._handler_threads if handler.is_alive()
                ]
                self._handler_threads.append(thread)
            thread.start()

    def serve_in_background(self) -> "WorkerServer":
        """Run :meth:`serve_forever` on a daemon thread; returns ``self``."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        self._serve_thread = thread
        return self

    def shutdown(self) -> None:
        """Stop accepting, drop live connections, join handlers, remove owned files."""
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._lock:
            connections = list(self._connections)
            threads = list(self._handler_threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for thread in threads:
            thread.join(timeout=5.0)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if self._owns_spill_dir:
            shutil.rmtree(self._spill_dir, ignore_errors=True)

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- failure injection -------------------------------------------------------------

    def _should_fail_now(self) -> bool:
        with self._lock:
            if self._failed:
                return True
            if (
                self._fail_after is not None
                and self._tasks_completed >= self._fail_after
            ):
                self._failed = True
                return True
        return False

    def _die_on(self, conn: socket.socket) -> None:
        if self._fail_mode == "truncate":
            # A result header announcing a payload that never arrives: the
            # coordinator must fail on the truncated frame, not hang.
            try:
                conn.sendall(_HEADER.pack(OP_RESULT, 1 << 20) + b"dead")
            except OSError:  # pragma: no cover - peer already gone
                pass
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - peer already gone
            pass

    # -- connection handling -----------------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        aliases: dict[str, str] = {}
        received: list[str] = []
        _CONNECTION_LOCAL.spill_aliases = aliases
        reducer = None
        try:
            while not self._shutdown.is_set():
                opcode, payload = recv_frame(conn)
                if opcode == OP_QUIT:
                    # Delete the received files *before* acknowledging, so a
                    # coordinator that saw the OK can rely on the cleanup.
                    self._cleanup_received(received, aliases)
                    send_frame(conn, OP_OK)
                    break
                if opcode == OP_HELLO:
                    info = {
                        "pid": os.getpid(),
                        "address": self.address,
                        "spill_dir": self._spill_dir,
                    }
                    send_frame(conn, OP_OK, pickle.dumps(info))
                elif opcode == OP_REDUCER:
                    # An unpicklable reducer (module only on the coordinator,
                    # version skew) is an application error, not a transport
                    # one: report it instead of dying, so the coordinator
                    # does not retry the identical payload elsewhere.
                    try:
                        reducer = pickle.loads(payload)
                    except Exception as exc:
                        send_frame(conn, OP_ERROR, pickle.dumps(self._summarize(exc)))
                    else:
                        send_frame(conn, OP_OK)
                elif opcode == OP_PUT:
                    try:
                        origin_path, data = pickle.loads(payload)
                        local_path = os.path.join(
                            self._spill_dir, f"recv-{uuid.uuid4().hex}.npy"
                        )
                        with open(local_path, "wb") as handle:
                            handle.write(data)
                    except Exception as exc:
                        send_frame(conn, OP_ERROR, pickle.dumps(self._summarize(exc)))
                    else:
                        aliases[os.fspath(origin_path)] = local_path
                        received.append(local_path)
                        send_frame(conn, OP_OK, pickle.dumps(local_path))
                elif opcode == OP_TASK:
                    if self._should_fail_now():
                        self._die_on(conn)
                        return
                    try:
                        if reducer is None:
                            raise RuntimeError(
                                "TASK received before any REDUCER on this connection"
                            )
                        key, value = pickle.loads(payload)
                        result = _timed_reduce(reducer, key, value)
                    except Exception as exc:
                        send_frame(conn, OP_ERROR, pickle.dumps(self._summarize(exc)))
                    else:
                        send_frame(conn, OP_RESULT, pickle.dumps(result))
                        with self._lock:
                            self._tasks_completed += 1
                else:
                    raise ProtocolError(f"unknown opcode {opcode!r}")
        except (ProtocolError, OSError, EOFError, pickle.UnpicklingError):
            pass  # the peer vanished or spoke garbage; drop the connection
        finally:
            _CONNECTION_LOCAL.spill_aliases = None
            self._cleanup_received(received, aliases)
            conn.close()
            with self._lock:
                self._connections.discard(conn)

    @staticmethod
    def _summarize(exc: BaseException) -> tuple[str, str, str]:
        """The ``(type, message, traceback)`` triple an ERROR frame carries."""
        return (type(exc).__name__, str(exc), traceback.format_exc())

    @staticmethod
    def _cleanup_received(received: list[str], aliases: dict[str, str]) -> None:
        """Delete spill files received on a connection. Idempotent."""
        while received:
            path = received.pop()
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        aliases.clear()


def serve(listen: str, *, spill_dir: str | None = None) -> int:
    """Run a worker daemon on ``listen`` (``HOST:PORT``) until interrupted.

    Handles SIGTERM like Ctrl-C: the daemon drops its connections and
    removes its owned spill directory before exiting, so supervisors
    that stop workers with a plain ``kill`` leave no orphans behind.
    """
    host, port = parse_worker_address(listen)
    server = WorkerServer(host, port, spill_dir=spill_dir)
    print(f"repro worker listening on {server.address}", flush=True)
    previous_handler = None
    try:
        import signal

        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: sys.exit(0)
        )
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.shutdown()
        if previous_handler is not None:
            import signal

            signal.signal(signal.SIGTERM, previous_handler)
    return 0


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon options shared by ``repro worker`` and ``python -m repro.mapreduce.worker``."""
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port; the bound "
             "address is printed on startup)",
    )
    parser.add_argument(
        "--spill-dir", default=None,
        help="directory for spill files received from coordinators "
             "(default: a worker-owned temporary directory)",
    )
    parser.epilog = (
        "The daemon's reducers use all of the host's cores for BLAS. With several "
        "daemons on one host, give each its share when starting it, e.g. with "
        "OPENBLAS_NUM_THREADS=N or taskset."
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.mapreduce.worker``."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Distributed MapReduce worker daemon (see repro.mapreduce.cluster)",
    )
    add_worker_arguments(parser)
    args = parser.parse_args(argv)
    return serve(args.listen, spill_dir=args.spill_dir)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
