"""Unit tests for the partition storage tiers behind the out-of-core shuffle.

Covers the three tiers (in-process arrays, and ``.npy`` files for the
``"shared"`` and ``"disk"`` tiers), the tier-resolution logic of
:func:`~repro.mapreduce.backends.resolve_storage`, and the pickling
contracts of the sealed :class:`~repro.mapreduce.backends.SharedArray`
handles (by path / by value).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.mapreduce import (
    PartitionBuffer,
    ProcessBackend,
    SerialBackend,
    available_storage_tiers,
    resolve_storage,
)

STORAGE_TIERS = ("memory", "shared", "disk")
FILE_TIERS = ("shared", "disk")


def _buffer(storage, tmp_path, dimension=3, **kwargs):
    return PartitionBuffer(
        dimension,
        storage=storage,
        spill_dir=str(tmp_path) if storage in FILE_TIERS else None,
        **kwargs,
    )


class TestAllTiers:
    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_append_and_finalize_roundtrip(self, storage, tmp_path):
        rows = np.arange(24.0).reshape(8, 3)
        buffer = _buffer(storage, tmp_path, initial_capacity=2)
        assert buffer.storage_tier == storage
        buffer.append(rows[:5])
        buffer.append(rows[5:])
        assert buffer.n_rows == 8
        sealed = buffer.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, rows)
            assert not sealed.array.flags.writeable
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_many_small_appends(self, storage, tmp_path):
        buffer = _buffer(storage, tmp_path, dimension=2, initial_capacity=1)
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

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_one_dimensional_rows(self, storage, tmp_path):
        buffer = _buffer(storage, tmp_path, dimension=None, dtype=np.intp)
        buffer.append(np.arange(10))
        sealed = buffer.finalize()
        try:
            np.testing.assert_array_equal(sealed.array, np.arange(10))
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_empty_partition_finalizes_to_zero_rows(self, storage, tmp_path):
        buffer = _buffer(storage, tmp_path)
        sealed = buffer.finalize()
        try:
            assert sealed.shape == (0, 3)
            assert len(sealed) == 0
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_shape_validation_identical(self, storage, tmp_path):
        buffer = _buffer(storage, tmp_path)
        with pytest.raises(InvalidParameterError, match="shape"):
            buffer.append(np.zeros((2, 2)))
        with pytest.raises(InvalidParameterError, match="shape"):
            buffer.append(np.zeros(4))
        buffer.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_append_after_finalize_rejected(self, storage, tmp_path):
        buffer = _buffer(storage, tmp_path)
        buffer.append(np.zeros((1, 3)))
        sealed = buffer.finalize()
        try:
            with pytest.raises(InvalidParameterError, match="finalized"):
                buffer.append(np.zeros((1, 3)))
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_close_without_finalize_is_idempotent(self, storage, tmp_path):
        buffer = _buffer(storage, tmp_path)
        buffer.append(np.zeros((2, 3)))
        buffer.close()
        buffer.close()
        assert list(tmp_path.iterdir()) == []


class TestDiskTier:
    def test_spilled_bytes_counts_both_appends(self, tmp_path):
        buffer = _buffer("disk", tmp_path, dimension=4)
        buffer.append(np.zeros((10, 4)))
        buffer.append(np.zeros((6, 4)))
        assert buffer.spilled_bytes == 16 * 4 * 8

    def test_memory_tiers_report_zero_spill(self, tmp_path):
        for storage in ("memory", "shared"):
            buffer = _buffer(storage, tmp_path)
            buffer.append(np.zeros((4, 3)))
            assert buffer.spilled_bytes == 0
            buffer.close()

    def test_finalized_file_is_a_valid_npy(self, tmp_path):
        rows = np.arange(30.0).reshape(10, 3)
        buffer = _buffer("disk", tmp_path)
        buffer.append(rows)
        sealed = buffer.finalize()
        try:
            (path,) = tmp_path.glob("*.npy")
            np.testing.assert_array_equal(np.load(path), rows)
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", FILE_TIERS)
    def test_sealed_handle_pickles_by_path_not_by_value(self, storage, tmp_path):
        rows = np.arange(3000.0).reshape(1000, 3)
        buffer = _buffer(storage, tmp_path)
        buffer.append(rows)
        sealed = buffer.finalize()
        try:
            payload = pickle.dumps(sealed)
            assert len(payload) < rows.nbytes // 10
            attached = pickle.loads(payload)
            np.testing.assert_array_equal(attached.array, rows)
            # Re-pickling an attached handle keeps working (worker-to-worker).
            again = pickle.loads(pickle.dumps(attached))
            np.testing.assert_array_equal(again.array, rows)
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", FILE_TIERS)
    def test_owner_close_deletes_the_spill_file(self, storage, tmp_path):
        buffer = _buffer(storage, tmp_path)
        buffer.append(np.ones((5, 3)))
        sealed = buffer.finalize()
        assert len(list(tmp_path.glob("*.npy"))) == 1
        sealed.close()
        sealed.close()  # idempotent
        assert list(tmp_path.glob("*.npy")) == []

    def test_attached_handle_close_does_not_delete(self, tmp_path):
        buffer = _buffer("disk", tmp_path)
        buffer.append(np.ones((5, 3)))
        sealed = buffer.finalize()
        try:
            attached = pickle.loads(pickle.dumps(sealed))
            attached.close()
            assert len(list(tmp_path.glob("*.npy"))) == 1
        finally:
            sealed.close()

    @pytest.mark.parametrize("storage", FILE_TIERS)
    def test_requires_spill_dir(self, storage):
        with pytest.raises(InvalidParameterError, match="spill_dir"):
            PartitionBuffer(3, storage=storage)

    def test_dtype_preserved(self, tmp_path):
        buffer = _buffer("disk", tmp_path, dimension=None, dtype=np.intp)
        buffer.append(np.arange(7))
        sealed = buffer.finalize()
        try:
            assert sealed.dtype == np.dtype(np.intp)
            attached = pickle.loads(pickle.dumps(sealed))
            assert attached.dtype == np.dtype(np.intp)
        finally:
            sealed.close()


class TestMemoryTierPickling:
    def test_memory_tier_pickles_by_value(self):
        buffer = PartitionBuffer(2, storage="memory")
        rows = np.arange(8.0).reshape(4, 2)
        buffer.append(rows)
        sealed = buffer.finalize()
        copied = pickle.loads(pickle.dumps(sealed))
        np.testing.assert_array_equal(copied.array, rows)
        assert not copied.array.flags.writeable


class TestResolveStorage:
    def test_available_tiers(self):
        assert available_storage_tiers() == ("auto", "disk", "memory", "shared")

    def test_explicit_tiers_pass_through(self):
        for tier in STORAGE_TIERS:
            assert resolve_storage(tier) == tier

    def test_auto_follows_backend(self):
        serial, processes = SerialBackend(), ProcessBackend(max_workers=1)
        try:
            assert resolve_storage("auto", backend=serial) == "memory"
            assert resolve_storage(None, backend=serial) == "memory"
            assert resolve_storage("auto", backend=processes) == "shared"
        finally:
            processes.close()

    def test_auto_spills_above_budget(self):
        backend = SerialBackend()
        assert (
            resolve_storage(
                "auto", backend=backend, estimated_bytes=100, memory_budget_bytes=200
            )
            == "memory"
        )
        assert (
            resolve_storage(
                "auto", backend=backend, estimated_bytes=300, memory_budget_bytes=200
            )
            == "disk"
        )

    def test_auto_spills_when_size_unknown_under_budget(self):
        assert (
            resolve_storage(
                "auto", backend=SerialBackend(), estimated_bytes=None,
                memory_budget_bytes=200,
            )
            == "disk"
        )

    def test_unknown_tier_rejected(self):
        with pytest.raises(InvalidParameterError, match="storage tier"):
            resolve_storage("tape")
        with pytest.raises(InvalidParameterError, match="storage tier"):
            PartitionBuffer(2, storage="tape")
