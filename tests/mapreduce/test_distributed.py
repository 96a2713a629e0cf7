"""Unit and failure-injection tests for the distributed executor backend.

Covers the wire protocol (framing, truncation), the worker daemon
(in-process and as a real ``python -m repro.mapreduce.worker``
subprocess), backend resolution, the coordinator's retry-onto-survivors
logic for every failure mode the ISSUE names — worker death mid-job,
unreachable address at connect, truncated frame mid-result — and the
no-orphan guarantees: sockets closed and pushed spill files removed on
both success and error paths. The bit-identical equivalence matrix
lives in ``tests/properties/test_property_distributed_equivalence.py``.
"""

from __future__ import annotations

import os
import pickle
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.exceptions import (
    InvalidParameterError,
    WorkerTaskError,
    WorkerUnavailableError,
)
from repro.mapreduce import (
    DistributedBackend,
    LocalCluster,
    MapReduceRuntime,
    PartitionBuffer,
    WorkerServer,
    available_backends,
    parse_worker_address,
    resolve_backend,
)
from repro.mapreduce.worker import (
    OP_HELLO,
    OP_OK,
    ProtocolError,
    recv_frame,
    send_frame,
)


# Module-level so every payload is picklable for the wire.
def summing_reducer(key, values):
    return key, sum(values)


def failing_reducer(key, values):
    raise RuntimeError(f"deterministic failure for key {key}")


def shared_lookup_reducer(key, values, points=None):
    return key, float(points.array[np.asarray(values)].sum())


def _dead_address() -> str:
    """An address that refuses connections (a port that was bound, then freed)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


class TestParseWorkerAddress:
    def test_host_port_string(self):
        assert parse_worker_address("example.org:7071") == ("example.org", 7071)

    def test_tuple_passthrough(self):
        assert parse_worker_address(("10.0.0.1", "8000")) == ("10.0.0.1", 8000)

    @pytest.mark.parametrize("bad", ["localhost", ":7071", "host:", "host:abc", "host:65536"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_worker_address(bad)

    def test_port_zero_is_a_listen_address_only(self):
        # Port 0 asks the OS for a free port when listening; a coordinator
        # cannot connect to it.
        assert parse_worker_address("127.0.0.1:0") == ("127.0.0.1", 0)
        with pytest.raises(InvalidParameterError, match="not 0"):
            DistributedBackend(["host:0"])


class TestWireProtocol:
    def test_frame_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, OP_HELLO, b"payload")
            opcode, payload = recv_frame(right)
            assert opcode == OP_HELLO
            assert payload == b"payload"
        finally:
            left.close()
            right.close()

    def test_empty_payload_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, OP_OK)
            assert recv_frame(right) == (OP_OK, b"")
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises_protocol_error(self):
        left, right = socket.socketpair()
        try:
            # A header announcing 100 bytes, followed by 4 and EOF.
            import struct

            left.sendall(struct.pack("!cQ", OP_OK, 100) + b"dead")
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_protocol_error_is_a_connection_error(self):
        # The coordinator funnels transport failures through OSError.
        assert issubclass(ProtocolError, ConnectionError)


class TestWorkerServer:
    def test_hello_reports_metadata(self):
        with WorkerServer() as server:
            server.serve_in_background()
            with socket.create_connection((server.host, server.port)) as sock:
                send_frame(sock, OP_HELLO)
                opcode, payload = recv_frame(sock)
                assert opcode == OP_OK
                info = pickle.loads(payload)
                assert info["pid"] == os.getpid()
                assert info["address"] == server.address

    def test_shutdown_closes_listener(self):
        server = WorkerServer()
        server.serve_in_background()
        address = (server.host, server.port)
        server.shutdown()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)

    def test_shutdown_removes_owned_spill_dir(self):
        server = WorkerServer()
        spill_dir = server.spill_dir
        assert os.path.isdir(spill_dir)
        server.shutdown()
        assert not os.path.exists(spill_dir)

    def test_invalid_fail_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            WorkerServer(fail_mode="explode")


class TestWorkerDaemonSubprocess:
    def test_module_entry_point_serves_tasks(self, tmp_path):
        import repro

        # Put the *same* repro package on the daemon's path, wherever the
        # test is run from (src layout or installed).
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.mapreduce.worker",
             "--listen", "127.0.0.1:0", "--spill-dir", str(tmp_path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line
            address = line.strip().rsplit(" ", 1)[-1]
            backend = DistributedBackend([address])
            try:
                # The daemon process can only unpickle importable callables,
                # exactly like a remote host: use a library-level reducer.
                import operator

                results = backend.run_reducers(operator.add, [(1, 2), (10, 20)])
                assert [output for output, _ in results] == [3, 30]
            finally:
                backend.close()
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_unpicklable_reducer_surfaces_as_task_error_not_retry(self, tmp_path):
        # A reducer whose module exists only coordinator-side (here: this
        # test module, unimportable inside the bare daemon) must come back
        # as a deterministic WorkerTaskError — not be replayed onto every
        # worker until none survives.
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        daemons, addresses = [], []
        try:
            for _ in range(2):
                process = subprocess.Popen(
                    [sys.executable, "-m", "repro.mapreduce.worker",
                     "--listen", "127.0.0.1:0", "--spill-dir", str(tmp_path)],
                    stdout=subprocess.PIPE, text=True, env=env,
                )
                daemons.append(process)
                addresses.append(process.stdout.readline().strip().rsplit(" ", 1)[-1])
            with DistributedBackend(addresses) as backend:
                with pytest.raises(WorkerTaskError, match="unpickling the reducer"):
                    backend.run_reducers(summing_reducer, [(0, [1, 2])])
                assignments, _ = backend.take_round_accounting()
                assert all(len(attempts) == 1 for attempts in assignments.values())
        finally:
            for process in daemons:
                process.terminate()
            for process in daemons:
                process.wait(timeout=10)

    def test_sigterm_cleans_owned_spill_dir(self):
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.mapreduce.worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = process.stdout.readline()
            address = line.strip().rsplit(" ", 1)[-1]
            backend = DistributedBackend([address])
            try:
                send_frame_sock = socket.create_connection(
                    tuple([address.rsplit(":", 1)[0], int(address.rsplit(":", 1)[1])])
                )
                send_frame(send_frame_sock, OP_HELLO)
                opcode, payload = recv_frame(send_frame_sock)
                spill_dir = pickle.loads(payload)["spill_dir"]
                send_frame_sock.close()
            finally:
                backend.close()
            assert os.path.isdir(spill_dir)
        finally:
            process.terminate()
            exit_code = process.wait(timeout=10)
        # SIGTERM must run the shutdown path: owned spill dir removed,
        # clean exit status (not -SIGTERM).
        assert exit_code == 0
        deadline = time.monotonic() + 5.0
        while os.path.exists(spill_dir) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(spill_dir)


class TestResolveDistributed:
    def test_listed_in_available_backends(self):
        assert "distributed" in available_backends()

    def test_name_requires_workers(self):
        with pytest.raises(InvalidParameterError, match="worker addresses"):
            resolve_backend("distributed")

    def test_workers_imply_distributed(self):
        backend = resolve_backend(None, workers=["127.0.0.1:7071"])
        assert backend.name == "distributed"
        assert backend.worker_addresses == ("127.0.0.1:7071",)
        backend.close()

    def test_workers_rejected_for_other_backends(self):
        with pytest.raises(InvalidParameterError, match="workers="):
            resolve_backend("threads", workers=["127.0.0.1:7071"])

    def test_empty_worker_list_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            DistributedBackend([])


class TestRunReducers:
    def test_matches_serial_in_task_order(self):
        tasks = [(key, list(range(key, key + 5))) for key in (3, 1, 2)]
        with LocalCluster(2) as cluster:
            with cluster.backend() as backend:
                results = backend.run_reducers(summing_reducer, tasks)
        assert [output for output, _ in results] == [
            summing_reducer(key, values) for key, values in tasks
        ]
        assert all(elapsed >= 0.0 for _, elapsed in results)

    def test_rounds_record_no_blas_budget(self):
        # LocalCluster workers share the coordinator's process: never pinned.
        with LocalCluster(2) as cluster:
            with MapReduceRuntime(workers=cluster.addresses) as runtime:
                runtime.execute_round([(key, [key]) for key in range(4)], summing_reducer)
                assert runtime.stats.rounds[0].blas_threads is None

    def test_round_robin_placement_is_pure_function_of_index(self):
        tasks = [(key, [key]) for key in range(6)]
        with LocalCluster(3) as cluster:
            with cluster.backend() as backend:
                backend.run_reducers(summing_reducer, tasks)
                assignments, _ = backend.take_round_accounting()
        addresses = cluster.addresses
        for index in range(6):
            assert assignments[index] == [addresses[index % 3]]

    def test_memory_tier_handle_travels_by_value(self):
        points = np.arange(12, dtype=float).reshape(4, 3)
        buffer = PartitionBuffer(3, storage="memory")
        buffer.append(points)
        shared = buffer.finalize()
        with LocalCluster(2) as cluster:
            with MapReduceRuntime(workers=cluster.addresses) as runtime:
                from functools import partial

                outputs = runtime.execute_round(
                    [(0, [0, 3]), (1, [1]), (2, [2])],
                    partial(shared_lookup_reducer, points=shared),
                )
        totals = dict(outputs)
        assert totals[0] == float(points[[0, 3]].sum())

    def test_jobstats_records_assignments_and_bytes(self):
        with LocalCluster(2) as cluster:
            with MapReduceRuntime(workers=cluster.addresses) as runtime:
                runtime.execute_round(
                    [(key, list(range(key, 9, 3))) for key in range(3)], summing_reducer
                )
                stats = runtime.stats
        assert len(stats.worker_assignments) == 1
        assert sorted(stats.worker_assignments[0]) == [0, 1, 2]
        assert stats.bytes_shipped > 0

    def test_backend_reusable_after_close(self):
        with LocalCluster(1) as cluster:
            backend = cluster.backend()
            assert backend.run_reducers(summing_reducer, [(0, [1, 2])])[0][0] == (0, 3)
            backend.close()
            # Closed connections reconnect lazily.
            assert backend.run_reducers(summing_reducer, [(0, [4])])[0][0] == (0, 4)
            backend.close()


class TestFailureInjection:
    def test_worker_death_mid_job_retries_on_survivor(self):
        tasks = [(key, list(range(10))) for key in range(4)]
        with LocalCluster(2, fail_after_tasks={0: 1}) as cluster:
            with cluster.backend() as backend:
                results = backend.run_reducers(summing_reducer, tasks)
                assignments, _ = backend.take_round_accounting()
        assert [output for output, _ in results] == [(key, 45) for key in range(4)]
        retried = [key for key, attempts in assignments.items() if len(attempts) > 1]
        assert retried, "the killed worker's task must record a reassignment"
        survivor = cluster.addresses[1]
        for key in retried:
            assert assignments[key][-1] == survivor

    def test_truncated_frame_mid_result_retries_on_survivor(self):
        tasks = [(key, [key, key + 1]) for key in range(4)]
        with LocalCluster(2, fail_after_tasks={0: 1}, fail_mode="truncate") as cluster:
            with cluster.backend() as backend:
                results = backend.run_reducers(summing_reducer, tasks)
        assert results[0][0] == (0, 1)
        assert results[3][0] == (3, 7)

    def test_unreachable_address_at_connect_fails_over(self):
        with LocalCluster(1) as cluster:
            backend = DistributedBackend([_dead_address()] + cluster.addresses)
            with backend:
                results = backend.run_reducers(summing_reducer, [(0, [5, 5]), (1, [1])])
                assignments, _ = backend.take_round_accounting()
        assert results[0][0] == (0, 10)
        assert results[1][0] == (1, 1)
        # The group first placed on the dead worker records both attempts.
        assert any(len(attempts) == 2 for attempts in assignments.values())

    def test_all_workers_unreachable_raises(self):
        backend = DistributedBackend([_dead_address(), _dead_address()])
        with backend:
            with pytest.raises(WorkerUnavailableError, match="no surviving worker"):
                backend.run_reducers(summing_reducer, [(0, [1])])

    def test_mid_job_kill_via_cluster(self):
        # Kill the worker's sockets cold (listener and live connections)
        # between two rounds: the next round must fail over.
        with LocalCluster(2) as cluster:
            with cluster.backend() as backend:
                first = backend.run_reducers(summing_reducer, [(0, [1]), (1, [2])])
                assert first[0][0] == (0, 1)
                cluster.kill_worker(0)
                second = backend.run_reducers(summing_reducer, [(0, [3]), (1, [4])])
                assert second[0][0] == (0, 3)
                assert second[1][0] == (1, 4)

    def test_reducer_exception_is_not_retried(self):
        with LocalCluster(2) as cluster:
            with cluster.backend() as backend:
                with pytest.raises(WorkerTaskError, match="deterministic failure"):
                    backend.run_reducers(failing_reducer, [(0, [1]), (1, [2])])
                assignments, _ = backend.take_round_accounting()
                # One attempt only: application errors must not fail over.
                assert all(len(attempts) == 1 for attempts in assignments.values())
                # The backend (and its workers) stay usable afterwards.
                results = backend.run_reducers(summing_reducer, [(0, [7])])
                assert results[0][0] == (0, 7)

    def test_remote_traceback_travels_back(self):
        with LocalCluster(1) as cluster:
            with cluster.backend() as backend:
                with pytest.raises(WorkerTaskError, match="remote traceback"):
                    backend.run_reducers(failing_reducer, [(0, [1])])


class TestNoOrphans:
    @staticmethod
    def _fit_stream_disk(workers, points, storage="disk", **kwargs):
        from repro.core import MapReduceKCenter
        from repro.streaming import ArrayStream

        solver = MapReduceKCenter(
            4, ell=3, coreset_multiplier=2, random_state=3, workers=workers, **kwargs
        )
        return solver.fit_stream(ArrayStream(points), chunk_size=64, storage=storage)

    def test_shared_tier_files_pushed_like_disk_tier_files(self, medium_blobs):
        with LocalCluster(2) as cluster:
            disk = self._fit_stream_disk(cluster.addresses, medium_blobs)
            shared = self._fit_stream_disk(cluster.addresses, medium_blobs, storage="shared")
            for worker in cluster.workers:
                assert os.listdir(worker.spill_dir) == []
        assert shared.stats.storage_tier == "shared"
        assert shared.stats.spilled_bytes == 0
        # Same files, same pushes: the totals differ only by the lengths of
        # the directory paths the pickled handles carry.
        pushed = medium_blobs.nbytes + medium_blobs.shape[0] * np.dtype(np.intp).itemsize
        assert disk.stats.bytes_shipped > pushed
        assert abs(shared.stats.bytes_shipped - disk.stats.bytes_shipped) < 1024
        np.testing.assert_array_equal(shared.center_indices, disk.center_indices)
        assert shared.radius == disk.radius

    def test_success_path_leaves_no_spill_files_or_sockets(self, medium_blobs):
        with LocalCluster(2) as cluster:
            result = self._fit_stream_disk(cluster.addresses, medium_blobs)
            assert result.stats.spilled_bytes > 0
            assert result.stats.bytes_shipped > 0
            for worker in cluster.workers:
                assert os.listdir(worker.spill_dir) == []
        # Cluster closed: both worker spill dirs are gone entirely.
        for worker in cluster.workers:
            assert not os.path.exists(worker.spill_dir)

    def test_error_path_cleans_worker_copies(self, medium_blobs, tmp_path):
        with LocalCluster(2) as cluster:
            with MapReduceRuntime(
                workers=cluster.addresses, storage="disk", spill_dir=str(tmp_path)
            ) as runtime:
                from repro.mapreduce.partitioner import ChunkRouter

                router = ChunkRouter(3, "round_robin", n_total=len(medium_blobs))
                parts = runtime.shuffle_stream(
                    [medium_blobs[i : i + 100] for i in range(0, len(medium_blobs), 100)],
                    router,
                )
                with pytest.raises(WorkerTaskError):
                    runtime.execute_round(list(enumerate(parts)), failing_reducer)
            # Runtime closed: the coordinator's spill files are removed ...
            assert list(tmp_path.glob("*.npy")) == []
            # ... and so is every pushed copy on the workers.
            deadline = time.monotonic() + 5.0
            for worker in cluster.workers:
                while os.listdir(worker.spill_dir) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert os.listdir(worker.spill_dir) == []

    def test_spill_files_pushed_once_per_worker(self, medium_blobs):
        # Rounds 1 and 3 both reference the sealed partitions; the PUT
        # dedupe must ship each file a single time per worker.
        with LocalCluster(2) as cluster:
            result = self._fit_stream_disk(cluster.addresses, medium_blobs)
            spilled = result.stats.spilled_bytes
            shipped = result.stats.bytes_shipped
            # Every byte spilled is pushed at most once per round-1 worker
            # plus once per round-3 worker — bounded by 2x, not 2 rounds x
            # full re-pickles. (Loose sanity bound: < spilled * 4.)
            assert shipped < spilled * 4

    def test_backend_close_shuts_sockets(self):
        with LocalCluster(1) as cluster:
            backend = cluster.backend()
            backend.run_reducers(summing_reducer, [(0, [1])])
            links = backend._links
            assert links[0].sock is not None
            backend.close()
            assert all(link.sock is None for link in links)
