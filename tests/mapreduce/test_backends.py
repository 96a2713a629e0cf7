"""Cross-backend equivalence suite for the executor backends.

The contract under test: every backend (serial, threads, processes)
produces byte-identical round outputs, identical memory accounting, and —
through the MapReduce k-center drivers — identical centers and radii.
Only the recorded timings may differ. This is what lets the parallel
backends inherit the paper-faithfulness arguments of the serial
reference.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.exceptions import InvalidParameterError, MemoryBudgetExceededError
from repro.mapreduce import (
    MapReduceRuntime,
    PartitionBuffer,
    ProcessBackend,
    SerialBackend,
    SharedArray,
    ThreadBackend,
    available_backends,
    default_sizeof,
    resolve_backend,
)
from repro.mapreduce import backends
from repro.mapreduce.backends import blas_threads, usable_cores
from repro.metricspace.points import WeightedPoints

BACKENDS = ("serial", "threads", "processes")
#: Two workers on a pool backend; the serial backend takes no pool size above 1.
POOL_SIZE = {"serial": 1, "threads": 2, "processes": 2}


def residue_tasks(values, modulus=4):
    """One task per residue of ``values`` mod ``modulus``, keys in first-seen order."""
    groups = {}
    for value in values:
        groups.setdefault(value % modulus, []).append(value)
    return list(groups.items())


# Module-level so the rounds are picklable for the process backend.
def summing_reducer(key, values):
    return key, sum(values)


def shared_lookup_reducer(key, values, points=None):
    # Exercises SharedArray access from inside a reducer.
    return key, float(points.array[np.asarray(values)].sum())


def blas_threads_reducer(key, value):
    # Reports the BLAS thread count of the process the reducer runs in.
    return blas_threads()


def _fake_openblas(calls, count=8):
    """A stand-in for a loaded OpenBLAS running ``count`` threads; the setter records every pin."""
    return ((calls.append, lambda: count),)


class TestResolveBackend:
    def test_available_backends(self):
        assert available_backends() == ("distributed", "processes", "serial", "threads")

    def test_default_is_serial(self):
        assert resolve_backend(None).name == "serial"
        assert resolve_backend(None, max_workers=1).name == "serial"

    def test_default_with_workers_is_threads(self):
        backend = resolve_backend(None, max_workers=3)
        assert backend.name == "threads"
        assert backend.max_workers == 3

    def test_names_resolve(self):
        for name in BACKENDS:
            backend = resolve_backend(name, max_workers=POOL_SIZE[name])
            assert backend.name == name
            backend.close()

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_max_workers_with_instance_rejected(self):
        # The instance fixes its own pool size; a second one must not be ignored.
        backend = ThreadBackend(2)
        with pytest.raises(InvalidParameterError, match="max_workers="):
            resolve_backend(backend, max_workers=8)
        with pytest.raises(InvalidParameterError, match="max_workers="):
            MapReduceRuntime(backend=backend, max_workers=8)
        with pytest.raises(InvalidParameterError, match="max_workers="):
            MapReduceKCenter(2, backend=backend, max_workers=8).fit(np.zeros((8, 2)))

    def test_max_workers_with_distributed_rejected(self):
        # The address list sizes the cluster; a pool size must not be dropped silently.
        addresses = ["127.0.0.1:7071"]
        for max_workers in (1, 8):
            with pytest.raises(InvalidParameterError, match="max_workers="):
                resolve_backend("distributed", workers=addresses, max_workers=max_workers)
        with pytest.raises(InvalidParameterError, match="max_workers="):
            MapReduceRuntime(backend="distributed", workers=addresses, max_workers=8)
        with pytest.raises(InvalidParameterError, match="max_workers="):
            MapReduceKCenter(
                2, backend="distributed", workers=addresses, max_workers=8
            ).fit(np.zeros((8, 2)))

    def test_serial_pool_size_rejected(self):
        # The serial backend runs one reducer at a time; a pool of 8 must not be dropped.
        assert resolve_backend("serial", max_workers=1).name == "serial"
        with pytest.raises(InvalidParameterError, match="max_workers=8"):
            resolve_backend("serial", max_workers=8)
        with pytest.raises(InvalidParameterError, match="max_workers=8"):
            MapReduceRuntime(backend="serial", max_workers=8)
        with pytest.raises(InvalidParameterError, match="max_workers=8"):
            MapReduceKCenterOutliers(
                2, 1, backend="serial", max_workers=8
            ).fit(np.zeros((8, 2)))

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            resolve_backend("spark")

    def test_non_backend_object_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_backend(42)

    def test_invalid_workers_rejected(self):
        for name in ("threads", "processes", "serial"):
            with pytest.raises(InvalidParameterError):
                resolve_backend(name, max_workers=0)


class TestRoundEquivalence:
    @pytest.fixture()
    def tasks(self):
        return residue_tasks(range(40))

    def test_outputs_identical_across_backends(self, tasks):
        reference = None
        for name in BACKENDS:
            with MapReduceRuntime(backend=name, max_workers=POOL_SIZE[name]) as runtime:
                output = runtime.execute_round(tasks, summing_reducer)
            if reference is None:
                reference = output
            else:
                assert output == reference

    def test_stats_identical_modulo_timings(self, tasks):
        recorded = {}
        for name in BACKENDS:
            with MapReduceRuntime(backend=name, max_workers=POOL_SIZE[name]) as runtime:
                runtime.execute_round(tasks, summing_reducer)
                stats = runtime.stats.rounds[0]
                recorded[name] = (
                    stats.n_reducers,
                    dict(stats.reducer_input_sizes),
                    sorted(stats.reducer_times),
                )
        assert recorded["threads"] == recorded["serial"]
        assert recorded["processes"] == recorded["serial"]

    def test_memory_limit_enforced_on_every_backend(self, tasks):
        for name in BACKENDS:
            with MapReduceRuntime(backend=name, local_memory_limit=2) as runtime:
                with pytest.raises(MemoryBudgetExceededError):
                    runtime.execute_round(tasks, summing_reducer)

    def test_shared_array_reducer(self, tmp_path):
        from functools import partial

        data = np.arange(20.0).reshape(10, 2)
        tasks = residue_tasks(range(10))
        reference = None
        for name in BACKENDS:
            buffer = PartitionBuffer(2, storage="disk", spill_dir=str(tmp_path))
            buffer.append(data)
            shared = buffer.finalize()
            try:
                with MapReduceRuntime(backend=name, max_workers=POOL_SIZE[name]) as runtime:
                    reducer = partial(shared_lookup_reducer, points=shared)
                    output = runtime.execute_round(tasks, reducer)
            finally:
                shared.close()
            if reference is None:
                reference = output
            else:
                assert output == reference


class TestSharedArray:
    def test_plain_handle_is_zero_copy(self):
        data = np.arange(6.0).reshape(3, 2)
        shared = SharedArray(data)
        assert shared.array is data
        assert shared.shape == (3, 2)
        assert len(shared) == 3
        np.testing.assert_array_equal(shared[1], data[1])

    def test_plain_handle_refuses_pickling(self):
        import pickle

        with pytest.raises(TypeError, match="cannot be sent"):
            pickle.dumps(SharedArray(np.zeros(3)))

    def test_close_is_idempotent(self, tmp_path):
        buffer = PartitionBuffer(2, storage="disk", spill_dir=str(tmp_path))
        buffer.append(np.zeros((2, 2)))
        shared = buffer.finalize()
        shared.close()
        shared.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("storage", ("memory", "disk"))
    def test_array_protocol_honours_copy(self, storage, tmp_path):
        buffer = PartitionBuffer(2, storage=storage, spill_dir=str(tmp_path))
        buffer.append(np.arange(6.0).reshape(3, 2))
        shared = buffer.finalize()
        try:
            copied = np.array(shared, copy=True)
            assert not np.shares_memory(copied, shared.array)
            assert copied.flags.writeable
            np.testing.assert_array_equal(copied, shared.array)
            # No copy needed: a view of the backing array is fine.
            assert np.shares_memory(np.asarray(shared), shared.array)
            # A dtype change needs a copy, which copy=False must refuse.
            with pytest.raises(ValueError):
                np.asarray(shared, dtype=np.float32, copy=False)
            assert np.asarray(shared, dtype=np.float32).dtype == np.float32
        finally:
            shared.close()


class TestBackendLifecycle:
    def test_runtime_close_idempotent(self):
        runtime = MapReduceRuntime(backend="processes", max_workers=2)
        runtime.execute_round(residue_tasks([1, 2, 3]), summing_reducer)
        runtime.close()
        runtime.close()

    def test_thread_backend_pool_reuse(self):
        backend = ThreadBackend(max_workers=2)
        with MapReduceRuntime(backend=backend) as runtime:
            first = runtime.execute_round(residue_tasks(range(8)), summing_reducer)
            second = runtime.execute_round([(0, [s for _, s in first])], summing_reducer)
        assert second == [(0, sum(range(8)))]
        backend.close()

    def test_caller_owned_backend_survives_runtime_close(self):
        backend = ProcessBackend(max_workers=2)
        try:
            with MapReduceRuntime(backend=backend) as runtime:
                runtime.execute_round(residue_tasks([1, 2, 3]), summing_reducer)
            # The pool must still be usable after the runtime closed.
            assert backend._pool is not None
            with MapReduceRuntime(backend=backend) as runtime:
                output = runtime.execute_round(residue_tasks([4, 5, 6]), summing_reducer)
            assert dict(output) == {0: 4, 1: 5, 2: 6}
        finally:
            backend.close()
        assert backend._pool is None

    def test_runtime_releases_partitions_on_caller_owned_backend(self):
        import os

        from repro.mapreduce import ChunkRouter

        backend = ProcessBackend(max_workers=2)
        try:
            with MapReduceRuntime(backend=backend) as runtime:
                runtime.shuffle_stream([np.zeros((5, 2))], ChunkRouter(2, "round_robin"))
                assert runtime.stats.storage_tier == "shared"
                (shm_dir,) = set(runtime._own_dirs.values())
                assert os.listdir(shm_dir)
            # The runtime removed its partitions and their directory, but
            # left the caller's pool running.
            assert not os.path.exists(shm_dir)
            with MapReduceRuntime(backend=backend) as runtime:
                output = runtime.execute_round(residue_tasks([4, 5]), summing_reducer)
            assert dict(output) == {0: 4, 1: 5}
        finally:
            backend.close()


class TestUsableCores:
    def test_one_core_affinity_sizes_pools_and_budgets(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(backends, "_openblas", lambda: _fake_openblas([]))
        assert usable_cores() == 1
        for name in ("threads", "processes"):
            assert resolve_backend(name).max_workers == 1
        assert ProcessBackend().blas_threads == 1

    def test_budget_splits_the_cores_among_the_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(backends, "_openblas", lambda: _fake_openblas([]))
        assert ProcessBackend(1).blas_threads == 8
        assert ProcessBackend(2).blas_threads == 4
        assert ProcessBackend(3).blas_threads == 2
        assert ProcessBackend(16).blas_threads == 1

    def test_budget_never_exceeds_the_coordinators_count(self, monkeypatch):
        # A host that limited BLAS to one thread keeps that limit in the workers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(backends, "_openblas", lambda: _fake_openblas([], count=1))
        assert ProcessBackend(1).blas_threads == 1
        assert ProcessBackend(2).blas_threads == 1

    def test_no_known_setter_means_no_budget(self, monkeypatch):
        monkeypatch.setattr(backends, "_openblas", lambda: ())
        assert ProcessBackend(2).blas_threads is None
        backends.set_blas_threads(1)
        assert blas_threads() is None


class TestBlasBudget:
    """Process-pool workers run under a BLAS budget; nothing else is pinned."""

    @pytest.mark.skipif(blas_threads() is None, reason="no known OpenBLAS is loaded")
    def test_process_workers_run_under_the_budget(self):
        expected = min(blas_threads(), max(1, usable_cores() // 2))
        with MapReduceRuntime(backend="processes", max_workers=2) as runtime:
            wide = runtime.execute_round([(key, key) for key in range(8)], blas_threads_reducer)
            narrow = runtime.execute_round([(0, 0)], blas_threads_reducer)
            recorded = [stats.blas_threads for stats in runtime.stats.rounds]
        assert wide == [expected] * 8
        assert narrow == [expected]
        assert recorded == [expected, expected]

    def test_coordinator_count_unchanged(self, medium_blobs):
        before = blas_threads()
        for name in ("processes", "threads"):
            MapReduceKCenter(
                6, ell=4, coreset_multiplier=2, random_state=42, backend=name, max_workers=2
            ).fit(medium_blobs)
            assert blas_threads() == before

    def test_only_process_workers_pin(self, monkeypatch):
        # The setter records pins made in this process; a pool worker's pin
        # happens in the worker and leaves the list empty here.
        calls = []
        monkeypatch.setattr(backends, "_openblas", lambda: _fake_openblas(calls))
        for name in ("serial", "threads", "processes"):
            with MapReduceRuntime(backend=name, max_workers=POOL_SIZE[name]) as runtime:
                runtime.execute_round(residue_tasks(range(40)), summing_reducer)
                recorded = runtime.stats.rounds[0].blas_threads
            assert recorded == runtime.backend.blas_threads
            assert (recorded is None) == (name != "processes")
        assert calls == []


class TestSolverEquivalence:
    """MapReduce drivers must give identical solutions on every backend."""

    def test_mr_kcenter(self, medium_blobs):
        kwargs = dict(ell=4, coreset_multiplier=2, random_state=42)
        results = {
            name: MapReduceKCenter(
                6, backend=name, max_workers=POOL_SIZE[name], **kwargs
            ).fit(medium_blobs)
            for name in BACKENDS
        }
        reference = results["serial"]
        for result in results.values():
            assert result.radius == pytest.approx(reference.radius)
            np.testing.assert_array_equal(result.center_indices, reference.center_indices)
            assert result.coreset_size == reference.coreset_size
            assert result.stats.peak_local_memory == reference.stats.peak_local_memory
            assert result.stats.aggregate_memory == reference.stats.aggregate_memory

    def test_mr_outliers_deterministic(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        kwargs = dict(ell=4, coreset_multiplier=2, random_state=42)
        results = {
            name: MapReduceKCenterOutliers(
                5, z, backend=name, max_workers=POOL_SIZE[name], **kwargs
            ).fit(data)
            for name in BACKENDS
        }
        reference = results["serial"]
        for result in results.values():
            assert result.radius == pytest.approx(reference.radius)
            np.testing.assert_array_equal(result.center_indices, reference.center_indices)
            assert result.search_probes == reference.search_probes
            assert result.stats.peak_local_memory == reference.stats.peak_local_memory

    def test_mr_outliers_randomized(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        kwargs = dict(
            ell=4, coreset_multiplier=2, randomized=True,
            include_log_term=False, random_state=7,
        )
        results = {
            name: MapReduceKCenterOutliers(
                5, z, backend=name, max_workers=POOL_SIZE[name], **kwargs
            ).fit(data)
            for name in BACKENDS
        }
        reference = results["serial"]
        for result in results.values():
            assert result.radius == pytest.approx(reference.radius)
            assert result.coreset_size == reference.coreset_size

    def test_processes_with_memory_limit(self, medium_blobs):
        solver = MapReduceKCenter(
            6, ell=4, coreset_multiplier=2, random_state=42,
            backend="processes", max_workers=2, local_memory_limit=10,
        )
        with pytest.raises(MemoryBudgetExceededError):
            solver.fit(medium_blobs)


class TestDefaultSizeofEdgeCases:
    def test_zero_d_array(self):
        assert default_sizeof(np.array(3.5)) == 1

    def test_zero_row_array(self):
        assert default_sizeof(np.empty((0, 4))) == 0

    def test_generator_counts_as_one(self):
        # Generators have no len(); they must not be consumed by accounting.
        gen = (i for i in range(100))
        assert default_sizeof(gen) == 1
        assert next(gen) == 0  # untouched

    def test_weighted_points_payload(self):
        payload = WeightedPoints(
            points=np.zeros((7, 2)), weights=np.ones(7), origin_indices=np.arange(7)
        )
        assert default_sizeof(payload) == 7

    def test_string_counts_characters(self):
        assert default_sizeof("abcd") == 4
