"""Tests for repro.core.planner (resource planning from the paper's bounds)."""

from __future__ import annotations

import math

import pytest

from repro.core import plan_mapreduce, plan_streaming
from repro.datasets import points_on_manifold


class TestPlanMapReduce:
    def test_kcenter_variant_ell_scaling(self):
        plan = plan_mapreduce(1_000_000, 100, doubling_dimension=2)
        assert plan.variant == "kcenter"
        assert plan.ell == pytest.approx(math.sqrt(1_000_000 / 100), rel=0.2)
        assert plan.per_partition_points * plan.ell >= 1_000_000

    def test_outliers_variant(self):
        plan = plan_mapreduce(1_000_000, 20, z=200, doubling_dimension=2)
        assert plan.variant == "outliers"
        assert plan.coreset_size_practical <= plan.per_partition_points

    def test_randomized_variant_smaller_base_when_z_large(self):
        deterministic = plan_mapreduce(10_000_000, 20, z=100_000, doubling_dimension=1)
        randomized = plan_mapreduce(
            10_000_000, 20, z=100_000, randomized=True, doubling_dimension=1
        )
        assert randomized.variant == "outliers-randomized"
        assert randomized.coreset_size_practical < deterministic.coreset_size_practical

    def test_plan_bounds_coordinator(self):
        default = plan_mapreduce(1_000_000, 20, z=200, doubling_dimension=2)
        larger = plan_mapreduce(
            1_000_000, 20, z=200, doubling_dimension=2, chunk_size=8192
        )
        assert default.coordinator_memory == 4096 + default.union_coreset_size
        assert larger.coordinator_memory == 8192 + larger.union_coreset_size
        assert larger.coordinator_memory < 1_000_000
        # Reducer-side predictions do not depend on the chunking.
        assert larger.local_memory == default.local_memory

    def test_chunk_larger_than_input_caps_at_n(self):
        plan = plan_mapreduce(1000, 10, doubling_dimension=2, chunk_size=8192)
        assert plan.coordinator_memory == 1000 + plan.union_coreset_size

    def test_plan_rejects_bad_chunk_size(self):
        with pytest.raises(Exception):
            plan_mapreduce(1000, 10, chunk_size=0)

    def test_theoretical_size_grows_with_dimension(self):
        low = plan_mapreduce(100_000, 10, doubling_dimension=1)
        high = plan_mapreduce(100_000, 10, doubling_dimension=4)
        assert high.coreset_size_theoretical > low.coreset_size_theoretical

    def test_theoretical_size_grows_with_precision(self):
        loose = plan_mapreduce(100_000, 10, epsilon=1.0, doubling_dimension=2)
        tight = plan_mapreduce(100_000, 10, epsilon=0.25, doubling_dimension=2)
        assert tight.coreset_size_theoretical > loose.coreset_size_theoretical

    def test_local_memory_covers_both_rounds(self):
        plan = plan_mapreduce(100_000, 50, doubling_dimension=2)
        assert plan.local_memory >= plan.per_partition_points
        assert plan.local_memory >= plan.union_coreset_size

    def test_dimension_estimated_from_sample(self):
        sample = points_on_manifold(400, 2, 6, random_state=0)
        plan = plan_mapreduce(100_000, 10, sample=sample, random_state=0)
        assert plan.doubling_dimension >= 0.0

    def test_default_dimension_without_sample(self):
        plan = plan_mapreduce(1000, 5)
        assert plan.doubling_dimension == 2.0

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            plan_mapreduce(1000, 5, practical_multiplier=0.5)

    def test_backend_recorded_with_matching_workers(self):
        plan = plan_mapreduce(1_000_000, 100, doubling_dimension=2, backend="processes")
        assert plan.backend == "processes"
        assert 1 <= plan.suggested_workers <= plan.ell

    def test_serial_backend_plans_one_worker(self):
        plan = plan_mapreduce(1_000_000, 100, doubling_dimension=2, backend="serial")
        assert plan.backend == "serial"
        assert plan.suggested_workers == 1

    def test_default_backend_is_valid(self):
        from repro.mapreduce import available_backends

        plan = plan_mapreduce(1000, 5)
        assert plan.backend in available_backends()

    def test_unknown_backend_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            plan_mapreduce(1000, 5, backend="spark")

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            plan_mapreduce(1000, 5, doubling_dimension=-1)


class TestPlanStorageTier:
    def test_explicit_storage_passes_through(self):
        plan = plan_mapreduce(
            100_000, 10, doubling_dimension=2, storage="disk",
            point_dimension=3,
        )
        assert plan.storage == "disk"
        assert plan.predicted_spill_bytes == plan.partition_tier_bytes > 0

    def test_auto_selects_backend_natural_tier(self):
        shared = plan_mapreduce(
            100_000, 10, doubling_dimension=2, backend="processes"
        )
        assert shared.storage == "shared"
        memory = plan_mapreduce(
            100_000, 10, doubling_dimension=2, backend="serial"
        )
        assert memory.storage == "memory"

    def test_auto_spills_above_budget(self):
        n, d = 100_000, 3
        footprint = n * (d * 8 + 8)
        plan = plan_mapreduce(
            n, 10, doubling_dimension=2, point_dimension=d,
            memory_budget_bytes=footprint // 2,
        )
        assert plan.partition_tier_bytes == footprint
        assert plan.storage == "disk"
        assert plan.predicted_spill_bytes == footprint

    def test_auto_stays_in_memory_under_budget(self):
        n, d = 100_000, 3
        plan = plan_mapreduce(
            n, 10, doubling_dimension=2, backend="serial",
            point_dimension=d, memory_budget_bytes=10 * n * (d * 8 + 8),
        )
        assert plan.storage == "memory"
        assert plan.predicted_spill_bytes == 0

    def test_unknown_dimension_under_budget_spills_conservatively(self):
        plan = plan_mapreduce(
            100_000, 10, doubling_dimension=2,
            memory_budget_bytes=1_000_000,
        )
        assert plan.partition_tier_bytes == 0
        assert plan.storage == "disk"

    def test_partition_bytes_include_index_column(self):
        plan = plan_mapreduce(1000, 10, doubling_dimension=2, point_dimension=2)
        assert plan.partition_tier_bytes == 1000 * (2 * 8 + 8)

    def test_unknown_storage_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            plan_mapreduce(1000, 5, storage="tape")


class TestPlanDistributed:
    def test_workers_select_distributed_backend(self):
        plan = plan_mapreduce(100_000, 10, doubling_dimension=2, workers=4)
        assert plan.backend == "distributed"
        assert plan.suggested_workers == min(4, plan.ell)
        assert plan.partitions_per_worker == -(-plan.ell // plan.suggested_workers)

    def test_worker_addresses_counted(self):
        plan = plan_mapreduce(
            100_000, 10, doubling_dimension=2,
            workers=["h1:7071", "h2:7071", "h3:7071"],
        )
        assert plan.backend == "distributed"
        assert plan.suggested_workers == min(3, plan.ell)

    def test_distributed_auto_storage_is_memory_tier(self):
        # Distributed workers cannot attach the coordinator's /dev/shm:
        # the auto tier must be by-value memory, not shared.
        plan = plan_mapreduce(
            100_000, 10, doubling_dimension=2, workers=2,
            point_dimension=4,
        )
        assert plan.storage == "memory"

    def test_explicit_backend_kept_alongside_workers(self):
        plan = plan_mapreduce(
            100_000, 10, doubling_dimension=2, backend="distributed", workers=8
        )
        assert plan.backend == "distributed"

    def test_empty_worker_list_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            plan_mapreduce(1000, 5, workers=[])

    def test_distributed_backend_requires_workers(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="workers="):
            plan_mapreduce(1000, 5, backend="distributed")

    def test_non_positive_worker_count_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            plan_mapreduce(1000, 5, workers=0)


class TestPlanStreaming:
    def test_theorem3_formula(self):
        plan = plan_streaming(20, 200, epsilon=1.0, doubling_dimension=0)
        assert plan.coreset_size_theoretical == 220
        assert plan.coreset_size_practical == 8 * 220
        assert plan.working_memory == plan.coreset_size_practical + 1

    def test_dimension_blowup(self):
        plan = plan_streaming(20, 200, epsilon=1.0, doubling_dimension=1)
        assert plan.coreset_size_theoretical == 220 * 96

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            plan_streaming(5, 5, practical_multiplier=0.0)
