"""Unit tests for the out-of-core map/shuffle substrate.

Covers the growable :class:`~repro.mapreduce.backends.PartitionBuffer`
(on every storage tier), the
:meth:`~repro.mapreduce.runtime.MapReduceRuntime.shuffle_stream` entry
point on all three backends x all three tiers, the coordinator-side
memory accounting that the shuffle is designed to bound, and the
no-orphans guarantee on mid-stream failures (no stranded partition
files, under ``/dev/shm`` or in a spill directory).
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

import repro.mapreduce.backends as backends_module
import repro.mapreduce.runtime as runtime_module
from repro.exceptions import EmptyStreamError, InvalidParameterError
from repro.mapreduce import (
    ChunkRouter,
    MapReduceRuntime,
    PartitionBuffer,
)

BACKENDS = ("serial", "threads", "processes")
STORAGE_TIERS = ("memory", "shared", "disk")


@pytest.fixture
def runtime_dirs(monkeypatch):
    """Every directory a runtime creates for its partitions, in creation order.

    Recorded instead of diffing ``/dev/shm`` listings, so that tests running
    in parallel with other runtimes cannot see each other's directories.
    """
    created = []
    original = runtime_module.tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        created.append(original(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr(runtime_module.tempfile, "mkdtemp", recording_mkdtemp)
    return created


def _chunks(points, size):
    for start in range(0, points.shape[0], size):
        yield points[start : start + size]


def _reconstruct(parts, like):
    """Scatter every partition's rows back to their global stream indices."""
    reconstructed = np.empty_like(like)
    for part in parts:
        reconstructed[part.indices.array] = part.points.array
    return reconstructed


class TestPartitionBuffer:
    @pytest.mark.parametrize("storage", ["memory", "shared"])
    def test_append_and_finalize_roundtrip(self, storage, tmp_path):
        rows = np.arange(24.0).reshape(8, 3)
        buffer = PartitionBuffer(
            3, storage=storage, initial_capacity=2, spill_dir=str(tmp_path)
        )
        buffer.append(rows[:5])
        buffer.append(rows[5:])
        sealed = buffer.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, rows)
            assert not sealed.array.flags.writeable
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", ["memory", "shared"])
    def test_growth_preserves_prefix(self, storage, tmp_path):
        buffer = PartitionBuffer(
            2, storage=storage, initial_capacity=1, spill_dir=str(tmp_path)
        )
        expected = []
        for block in range(10):
            rows = np.full((3, 2), float(block))
            buffer.append(rows)
            expected.append(rows)
        sealed = buffer.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, np.vstack(expected))
        finally:
            sealed.close()

    def test_one_dimensional_rows(self):
        buffer = PartitionBuffer(None, dtype=np.intp, initial_capacity=4)
        buffer.append(np.arange(10))
        sealed = buffer.finalize()
        np.testing.assert_array_equal(sealed.array, np.arange(10))

    def test_append_after_finalize_rejected(self):
        buffer = PartitionBuffer(2)
        buffer.append(np.zeros((1, 2)))
        buffer.finalize()
        with pytest.raises(InvalidParameterError):
            buffer.append(np.zeros((1, 2)))

    def test_wrong_shape_rejected(self):
        buffer = PartitionBuffer(3)
        with pytest.raises(InvalidParameterError):
            buffer.append(np.zeros((2, 2)))

    def test_close_without_finalize_releases_file(self, tmp_path):
        buffer = PartitionBuffer(2, storage="shared", spill_dir=str(tmp_path))
        buffer.append(np.zeros((2, 2)))
        buffer.close()
        buffer.close()  # idempotent
        assert list(tmp_path.iterdir()) == []

    def test_file_tiers_require_a_directory(self):
        for storage in ("shared", "disk"):
            with pytest.raises(InvalidParameterError, match="spill_dir"):
                PartitionBuffer(2, storage=storage)


class TestShuffleStream:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partitions_reconstruct_input(self, backend, medium_blobs):
        with MapReduceRuntime(backend=backend, max_workers=2) as runtime:
            router = ChunkRouter(5, "round_robin")
            parts = runtime.shuffle_stream(_chunks(medium_blobs, 97), router)
            assert router.points_routed == sum(map(len, parts)) == medium_blobs.shape[0]
            assert {part.points.shape[1] for part in parts} == {medium_blobs.shape[1]}
            np.testing.assert_array_equal(_reconstruct(parts, medium_blobs), medium_blobs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_in_memory_split(self, backend, medium_blobs):
        from repro.mapreduce import split_contiguous

        parts = split_contiguous(medium_blobs.shape[0], 4)
        with MapReduceRuntime(backend=backend, max_workers=2) as runtime:
            router = ChunkRouter(4, "contiguous", n_total=medium_blobs.shape[0])
            shuffled = runtime.shuffle_stream(_chunks(medium_blobs, 128), router)
            for part, expected in zip(shuffled, parts):
                np.testing.assert_array_equal(part.indices.array, expected)
                np.testing.assert_array_equal(part.points.array, medium_blobs[expected])

    def test_oversized_native_batches_resplit(self, medium_blobs):
        # A source may deliver one giant native batch; max_chunk_rows must
        # keep the coordinator's in-flight working set bounded anyway.
        with MapReduceRuntime() as runtime:
            router = ChunkRouter(4, "round_robin")
            parts = runtime.shuffle_stream(iter([medium_blobs]), router, max_chunk_rows=64)
            assert sum(map(len, parts)) == medium_blobs.shape[0]
            assert runtime.stats.coordinator_peak_items == 64

    def test_fit_stream_bounds_native_batches(self, medium_blobs):
        from repro.core import MapReduceKCenter
        from repro.streaming import ArrayStream, GeneratorStream

        solver = MapReduceKCenter(5, ell=4, coreset_multiplier=2, random_state=0)
        # One giant native batch vs properly chunked delivery: identical
        # results, and the coordinator is charged chunk_size either way.
        chunked = solver.fit_stream(ArrayStream(medium_blobs), chunk_size=100)
        giant = solver.fit_stream(
            GeneratorStream(iter([medium_blobs]), length_hint=medium_blobs.shape[0]),
            chunk_size=100,
        )
        np.testing.assert_array_equal(giant.center_indices, chunked.center_indices)
        assert giant.radius == chunked.radius
        assert (
            giant.stats.coordinator_peak_items
            == chunked.stats.coordinator_peak_items
            < medium_blobs.shape[0]
        )

    def test_coordinator_charged_one_chunk(self, medium_blobs):
        with MapReduceRuntime() as runtime:
            router = ChunkRouter(4, "round_robin")
            runtime.shuffle_stream(_chunks(medium_blobs, 50), router)
            assert runtime.stats.coordinator_peak_items == 50
            # Far below the full materialisation the in-memory path pays.
            assert runtime.stats.coordinator_peak_items < medium_blobs.shape[0]

    def test_empty_stream_rejected(self):
        with MapReduceRuntime() as runtime:
            with pytest.raises(EmptyStreamError, match="no points"):
                runtime.shuffle_stream(iter(()), ChunkRouter(2, "round_robin"))

    def test_underdelivery_rejected(self):
        with MapReduceRuntime() as runtime:
            router = ChunkRouter(2, "contiguous", n_total=100)
            with pytest.raises(InvalidParameterError, match="declared"):
                runtime.shuffle_stream(_chunks(np.zeros((60, 2)), 30), router)

    def test_dimension_mismatch_rejected(self):
        def chunks():
            yield np.zeros((5, 3))
            yield np.zeros((5, 2))

        with MapReduceRuntime() as runtime:
            with pytest.raises(InvalidParameterError, match="dimension"):
                runtime.shuffle_stream(chunks(), ChunkRouter(2, "round_robin"))

    def test_close_releases_shared_partitions(self, medium_blobs, runtime_dirs):
        runtime = MapReduceRuntime(backend="processes", max_workers=2)
        router = ChunkRouter(3, "round_robin")
        parts = runtime.shuffle_stream(_chunks(medium_blobs, 100), router)
        assert runtime.stats.storage_tier == "shared"
        paths = [
            handle._spill_meta[0] for part in parts for handle in (part.points, part.indices)
        ]
        (shm_dir,) = runtime_dirs
        if os.path.isdir("/dev/shm"):
            assert os.path.dirname(shm_dir) == "/dev/shm"
        assert all(os.path.dirname(path) == shm_dir for path in paths)
        runtime.close()
        assert not any(os.path.exists(path) for path in paths)
        assert not os.path.exists(shm_dir)


class TestStorageTiers:
    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_partitions_reconstruct_input_on_every_tier(
        self, storage, medium_blobs, tmp_path
    ):
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            router = ChunkRouter(5, "round_robin")
            parts = runtime.shuffle_stream(_chunks(medium_blobs, 97), router)
            assert runtime.stats.storage_tier == storage
            np.testing.assert_array_equal(_reconstruct(parts, medium_blobs), medium_blobs)

    def test_disk_tier_spills_and_accounts_bytes(self, medium_blobs, tmp_path):
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            router = ChunkRouter(4, "round_robin")
            runtime.shuffle_stream(_chunks(medium_blobs, 128), router)
            expected = medium_blobs.nbytes + medium_blobs.shape[0] * np.dtype(np.intp).itemsize
            assert runtime.stats.storage_tier == "disk"
            assert runtime.stats.spilled_bytes == expected
            # One .npy spill file per partition per column family.
            assert len(list(tmp_path.glob("*.npy"))) == 2 * 4
        # Runtime close deletes the spill files (the caller's dir survives).
        assert list(tmp_path.glob("*.npy")) == []
        assert tmp_path.exists()

    @pytest.mark.parametrize("storage", ("memory", "shared"))
    def test_memory_tiers_record_zero_spill(self, medium_blobs, storage):
        with MapReduceRuntime(storage=storage) as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 128), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == storage
            assert runtime.stats.spilled_bytes == 0

    def test_shared_tier_falls_back_to_tempdir_without_dev_shm(
        self, medium_blobs, runtime_dirs, monkeypatch, tmp_path
    ):
        import tempfile

        monkeypatch.setattr(runtime_module, "_SHM_ROOT", str(tmp_path / "no-shm"))
        with MapReduceRuntime(storage="shared") as runtime:
            parts = runtime.shuffle_stream(
                _chunks(medium_blobs, 100), ChunkRouter(2, "round_robin")
            )
            assert runtime.stats.storage_tier == "shared"
            np.testing.assert_array_equal(_reconstruct(parts, medium_blobs), medium_blobs)
        (own_dir,) = runtime_dirs
        assert os.path.dirname(own_dir) == tempfile.gettempdir()
        assert not os.path.exists(own_dir)

    def test_disk_partitions_pickle_by_path(self, medium_blobs, tmp_path):
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            router = ChunkRouter(3, "round_robin")
            part = runtime.shuffle_stream(_chunks(medium_blobs, 100), router)[0].points
            payload = pickle.dumps(part)
            # The handle is a path, not the rows.
            assert len(payload) < part.array.nbytes
            attached = pickle.loads(payload)
            np.testing.assert_array_equal(attached.array, part.array)
            assert not attached.array.flags.writeable

    def test_auto_spills_above_memory_budget(self, medium_blobs, tmp_path):
        n = medium_blobs.shape[0]
        with MapReduceRuntime(
            spill_dir=str(tmp_path), memory_budget_bytes=medium_blobs.nbytes // 2
        ) as runtime:
            router = ChunkRouter(4, "contiguous", n_total=n)
            runtime.shuffle_stream(_chunks(medium_blobs, 100), router)
            assert runtime.stats.storage_tier == "disk"
            assert runtime.stats.spilled_bytes > 0

    def test_auto_without_budget_keeps_backend_pairing(self, medium_blobs):
        with MapReduceRuntime(backend="serial") as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == "memory"
        with MapReduceRuntime(backend="processes", max_workers=1) as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == "shared"

    def test_auto_spills_for_unsized_stream_under_budget(self, medium_blobs, tmp_path):
        # No length declared -> the footprint cannot be estimated -> spill.
        with MapReduceRuntime(
            spill_dir=str(tmp_path), memory_budget_bytes=10**9
        ) as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(4, "round_robin"))
            assert runtime.stats.storage_tier == "disk"

    def test_spill_dir_created_if_missing(self, medium_blobs, tmp_path):
        target = tmp_path / "nested" / "spills"
        with MapReduceRuntime(storage="disk", spill_dir=str(target)) as runtime:
            runtime.shuffle_stream(_chunks(medium_blobs, 100), ChunkRouter(3, "round_robin"))
            assert runtime.stats.storage_tier == "disk"
            assert len(list(target.glob("*.npy"))) == 2 * 3
        assert list(target.glob("*.npy")) == []

    def test_unknown_tier_rejected(self):
        with pytest.raises(InvalidParameterError, match="storage tier"):
            MapReduceRuntime(storage="tape")

    def test_unknown_tier_rejected_before_consuming_the_stream(self):
        # A typo'd tier must not cost a single-pass source its first chunk.
        from repro.core import MapReduceKCenter
        from repro.streaming import GeneratorStream

        chunks = iter([np.ones((4, 2))])
        solver = MapReduceKCenter(2, ell=2, partitioning="round_robin")
        with pytest.raises(InvalidParameterError, match="storage tier"):
            solver.fit_stream(GeneratorStream(chunks), storage="dsik")
        assert next(chunks).shape == (4, 2)


class TestShuffleEdgeCases:
    """Routing edge cases must behave identically on every storage tier."""

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_final_chunk_smaller_than_batch(self, storage, medium_blobs, tmp_path):
        # 600 points in chunks of 97: the last chunk has 18 rows.
        assert medium_blobs.shape[0] % 97 != 0
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            parts = runtime.shuffle_stream(
                _chunks(medium_blobs, 97),
                ChunkRouter(4, "contiguous", n_total=medium_blobs.shape[0]),
            )
            np.testing.assert_array_equal(
                np.concatenate([p.points.array for p in parts]), medium_blobs
            )

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_chunk_larger_than_initial_capacity_grows(
        self, storage, medium_blobs, tmp_path
    ):
        # An unsized stream sizes the buffers from its first chunk: a 4-row
        # first chunk forces every tier through its growth path on the next.
        def chunks():
            yield medium_blobs[:4]
            yield from _chunks(medium_blobs[4:], 500)

        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            parts = runtime.shuffle_stream(chunks(), ChunkRouter(2, "round_robin"))
            np.testing.assert_array_equal(_reconstruct(parts, medium_blobs), medium_blobs)

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_single_partition_ell_1(self, storage, medium_blobs, tmp_path):
        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            [part] = runtime.shuffle_stream(
                _chunks(medium_blobs, 128), ChunkRouter(1, "round_robin")
            )
            np.testing.assert_array_equal(part.points.array, medium_blobs)
            np.testing.assert_array_equal(
                part.indices.array, np.arange(medium_blobs.shape[0])
            )

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_dimension_mismatch_clear_error(self, storage, tmp_path):
        def chunks():
            yield np.zeros((5, 3))
            yield np.zeros((5, 2))

        with MapReduceRuntime(storage=storage, spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError, match="dimension 2, expected 3"):
                runtime.shuffle_stream(chunks(), ChunkRouter(2, "round_robin"))
        # The failure released every partial buffer: no spill files remain.
        assert list(tmp_path.glob("*.npy")) == []


class TestNoOrphansOnFailure:
    """Mid-stream failures must not strand segments or spill files."""

    @staticmethod
    def _failing_chunks(points, fail_after=2):
        def chunks():
            for index, start in enumerate(range(0, points.shape[0], 100)):
                if index == fail_after:
                    yield np.zeros((5, points.shape[1] + 1))  # dimension mismatch
                yield points[start : start + 100]

        return chunks()

    def test_shared_tier_failure_leaves_no_shm_orphans(self, medium_blobs, runtime_dirs):
        with MapReduceRuntime(storage="shared") as runtime:
            with pytest.raises(InvalidParameterError):
                runtime.shuffle_stream(
                    self._failing_chunks(medium_blobs), ChunkRouter(3, "round_robin")
                )
            # Released immediately on failure, before the runtime closes.
            (shm_dir,) = runtime_dirs
            assert os.listdir(shm_dir) == []
        assert not os.path.exists(shm_dir)

    def test_disk_tier_failure_leaves_no_spill_files(self, medium_blobs, tmp_path):
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError):
                runtime.shuffle_stream(
                    self._failing_chunks(medium_blobs), ChunkRouter(3, "round_robin")
                )
            # Released immediately on failure, before the runtime closes.
            assert list(tmp_path.glob("*.npy")) == []

    def test_overdelivery_failure_leaves_no_orphans(
        self, medium_blobs, tmp_path, runtime_dirs
    ):
        router = ChunkRouter(2, "contiguous", n_total=medium_blobs.shape[0] - 50)
        with MapReduceRuntime(storage="shared", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError, match="more than the declared"):
                runtime.shuffle_stream(_chunks(medium_blobs, 100), router)
        assert runtime_dirs and not any(os.path.exists(d) for d in runtime_dirs)
        assert list(tmp_path.iterdir()) == []

    def test_underdelivery_failure_leaves_no_spill_files(self, tmp_path):
        router = ChunkRouter(2, "contiguous", n_total=100)
        with MapReduceRuntime(storage="disk", spill_dir=str(tmp_path)) as runtime:
            with pytest.raises(InvalidParameterError, match="declared"):
                runtime.shuffle_stream(_chunks(np.zeros((60, 2)), 30), router)
            assert list(tmp_path.glob("*.npy")) == []

    def test_driver_fit_stream_failure_leaves_no_orphans(
        self, medium_blobs, tmp_path, runtime_dirs
    ):
        from repro.core import MapReduceKCenter
        from repro.streaming import GeneratorStream

        solver = MapReduceKCenter(
            4, ell=4, coreset_multiplier=2, partitioning="round_robin", random_state=0
        )
        for storage in ("shared", "disk"):
            with pytest.raises(InvalidParameterError):
                solver.fit_stream(
                    GeneratorStream(self._failing_chunks(medium_blobs)),
                    chunk_size=100,
                    storage=storage,
                    spill_dir=str(tmp_path),
                )
        assert runtime_dirs and not any(os.path.exists(d) for d in runtime_dirs)
        assert list(tmp_path.glob("*.npy")) == []

    @pytest.mark.parametrize("storage", ("shared", "disk"))
    @pytest.mark.parametrize("fail_at", (1, 5, 9))
    def test_failed_buffer_allocation_leaves_no_orphans(
        self, medium_blobs, tmp_path, runtime_dirs, monkeypatch, storage, fail_at
    ):
        # Regression: when the Nth partition store could not be created (for
        # example on EMFILE), the stores created before it kept their open
        # files and their partition files.
        from repro.core import MapReduceKCenter
        from repro.streaming import ArrayStream

        original = backends_module.DiskPartitionStore
        created = []

        def failing_store(*args, **kwargs):
            if len(created) == fail_at:
                raise OSError(24, "Too many open files")
            created.append(original(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(backends_module, "DiskPartitionStore", failing_store)
        solver = MapReduceKCenter(4, ell=5, coreset_multiplier=2, random_state=0)
        with pytest.raises(OSError, match="Too many open files"):
            solver.fit_stream(
                ArrayStream(medium_blobs), storage=storage, spill_dir=str(tmp_path)
            )
        assert len(created) == fail_at
        assert all(store._file is None for store in created)
        assert list(tmp_path.iterdir()) == []
        assert not any(os.path.exists(d) for d in runtime_dirs)
        if storage == "shared" and os.path.isdir("/dev/shm"):
            assert [os.path.dirname(d) for d in runtime_dirs] == ["/dev/shm"]


class TestEmptyStreams:
    def test_zero_length_hint_fit_stream_raises_empty(self):
        from repro.core import MapReduceKCenter
        from repro.streaming import GeneratorStream

        solver = MapReduceKCenter(3, ell=2, coreset_multiplier=2, random_state=0)
        with pytest.raises(EmptyStreamError):
            solver.fit_stream(GeneratorStream(iter(()), length_hint=0))

    def test_unsized_empty_stream_fit_stream_raises_empty(self):
        from repro.core import MapReduceKCenterOutliers
        from repro.streaming import GeneratorStream

        solver = MapReduceKCenterOutliers(
            3, 2, ell=2, coreset_multiplier=2, partitioning="round_robin",
            random_state=0,
        )
        with pytest.raises(EmptyStreamError):
            solver.fit_stream(GeneratorStream(iter(())))
