"""Cross-backend equivalence suite for the executor backends.

The contract under test: every backend (serial, threads, processes)
produces byte-identical round outputs, identical memory accounting, and —
through the MapReduce k-center drivers — identical centers and radii.
Only the recorded timings may differ. This is what lets the parallel
backends inherit the paper-faithfulness arguments of the serial
reference.
"""

from __future__ import annotations

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
from repro.metricspace.points import WeightedPoints

BACKENDS = ("serial", "threads", "processes")


# Module-level so the rounds are picklable for the process backend.
def modulo_mapper(_key, values):
    for value in values:
        yield (value % 4, value)


def summing_reducer(key, values):
    yield (key, sum(values))


def regroup_mapper(_key, value):
    yield (0, value)


def shared_lookup_reducer(key, values, points=None):
    # Exercises SharedArray access from inside a reducer.
    yield (key, float(points.array[np.asarray(values)].sum()))


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
            backend = resolve_backend(name, max_workers=2)
            assert backend.name == name
            backend.close()

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

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
    def pairs(self):
        return [(None, list(range(40)))]

    def test_outputs_identical_across_backends(self, pairs):
        reference = None
        for name in BACKENDS:
            with MapReduceRuntime(backend=name, max_workers=2) as runtime:
                output = runtime.execute_round(pairs, modulo_mapper, summing_reducer)
            if reference is None:
                reference = output
            else:
                assert output == reference

    def test_stats_identical_modulo_timings(self, pairs):
        recorded = {}
        for name in BACKENDS:
            with MapReduceRuntime(backend=name, max_workers=2) as runtime:
                runtime.execute_round(pairs, modulo_mapper, summing_reducer)
                stats = runtime.stats.rounds[0]
                recorded[name] = (
                    stats.n_reducers,
                    dict(stats.reducer_input_sizes),
                    sorted(stats.reducer_times),
                )
        assert recorded["threads"] == recorded["serial"]
        assert recorded["processes"] == recorded["serial"]

    def test_memory_limit_enforced_on_every_backend(self, pairs):
        for name in BACKENDS:
            with MapReduceRuntime(backend=name, local_memory_limit=2) as runtime:
                with pytest.raises(MemoryBudgetExceededError):
                    runtime.execute_round(pairs, modulo_mapper, summing_reducer)

    def test_shared_array_reducer(self, tmp_path):
        from functools import partial

        data = np.arange(20.0).reshape(10, 2)
        pairs = [(None, list(range(10)))]
        reference = None
        for name in BACKENDS:
            buffer = PartitionBuffer(2, storage="disk", spill_dir=str(tmp_path))
            buffer.append(data)
            shared = buffer.finalize()
            try:
                with MapReduceRuntime(backend=name, max_workers=2) as runtime:
                    reducer = partial(shared_lookup_reducer, points=shared)
                    output = runtime.execute_round(pairs, modulo_mapper, reducer)
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
        runtime.execute_round([(None, [1, 2, 3])], modulo_mapper, summing_reducer)
        runtime.close()
        runtime.close()

    def test_thread_backend_pool_reuse(self):
        backend = ThreadBackend(max_workers=2)
        with MapReduceRuntime(backend=backend) as runtime:
            first = runtime.execute_round([(None, list(range(8)))], modulo_mapper, summing_reducer)
            second = runtime.execute_round(first, regroup_mapper, summing_reducer)
        assert second == [(0, sum(range(8)))]
        backend.close()

    def test_caller_owned_backend_survives_runtime_close(self):
        backend = ProcessBackend(max_workers=2)
        try:
            with MapReduceRuntime(backend=backend) as runtime:
                runtime.execute_round([(None, [1, 2, 3])], modulo_mapper, summing_reducer)
            # The pool must still be usable after the runtime closed.
            assert backend._pool is not None
            with MapReduceRuntime(backend=backend) as runtime:
                output = runtime.execute_round([(None, [4, 5, 6])], modulo_mapper, summing_reducer)
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
                shuffled = runtime.shuffle_stream(
                    [np.zeros((5, 2))], ChunkRouter(2, "round_robin")
                )
                assert shuffled.storage_tier == "shared"
                (shm_dir,) = set(runtime._own_dirs.values())
                assert os.listdir(shm_dir)
            # The runtime removed its partitions and their directory, but
            # left the caller's pool running.
            assert not os.path.exists(shm_dir)
            with MapReduceRuntime(backend=backend) as runtime:
                output = runtime.execute_round([(None, [4, 5])], modulo_mapper, summing_reducer)
            assert dict(output) == {0: 4, 1: 5}
        finally:
            backend.close()


class TestSolverEquivalence:
    """MapReduce drivers must give identical solutions on every backend."""

    def test_mr_kcenter(self, medium_blobs):
        kwargs = dict(ell=4, coreset_multiplier=2, random_state=42)
        results = {
            name: MapReduceKCenter(6, backend=name, max_workers=2, **kwargs).fit(medium_blobs)
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
            name: MapReduceKCenterOutliers(5, z, backend=name, max_workers=2, **kwargs).fit(data)
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
            name: MapReduceKCenterOutliers(5, z, backend=name, max_workers=2, **kwargs).fit(data)
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
