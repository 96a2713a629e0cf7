"""Tests for repro.mapreduce.runtime (the MapReduce engine's keyed rounds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, MemoryBudgetExceededError
from repro.mapreduce import MapReduceRuntime, default_sizeof


def summing_reducer(key, values):
    return key, sum(values)


class TestDefaultSizeof:
    def test_numpy_rows(self):
        assert default_sizeof(np.zeros((7, 3))) == 7

    def test_scalar_array(self):
        assert default_sizeof(np.float64(3.0)) == 1

    def test_sized_object(self):
        assert default_sizeof([1, 2, 3]) == 3

    def test_unsized_object(self):
        assert default_sizeof(42) == 1


class TestExecuteRound:
    def test_one_reducer_call_per_task(self):
        runtime = MapReduceRuntime()
        output = runtime.execute_round([("a", [1, 1]), ("b", [1, 1, 1])], summing_reducer)
        assert output == [("a", 2), ("b", 3)]

    def test_round_stats_recorded(self):
        runtime = MapReduceRuntime()
        runtime.execute_round([("a", [1, 1]), ("b", [1, 1])], summing_reducer)
        stats = runtime.stats
        assert stats.n_rounds == 1
        round_stats = stats.rounds[0]
        assert round_stats.n_reducers == 2
        assert round_stats.reducer_input_sizes == {"a": 2, "b": 2}
        assert sorted(round_stats.reducer_times) == ["a", "b"]
        assert round_stats.max_local_memory == 2
        assert round_stats.total_memory == 4

    def test_memory_limit_enforced(self):
        runtime = MapReduceRuntime(local_memory_limit=1)
        with pytest.raises(MemoryBudgetExceededError):
            runtime.execute_round([("a", [1, 1, 1])], summing_reducer)

    def test_invalid_memory_limit(self):
        with pytest.raises(InvalidParameterError):
            MapReduceRuntime(local_memory_limit=0)

    def test_outputs_follow_task_order(self):
        runtime = MapReduceRuntime()
        tasks = [(key, [key]) for key in (2, 0, 1)]
        assert runtime.execute_round(tasks, summing_reducer) == [(2, 2), (0, 0), (1, 1)]
        assert list(runtime.stats.rounds[0].reducer_input_sizes) == [2, 0, 1]

    def test_duplicate_keys_rejected(self):
        runtime = MapReduceRuntime()
        with pytest.raises(InvalidParameterError, match="duplicate task key"):
            runtime.execute_round([(0, [1]), (0, [2])], summing_reducer)

    def test_empty_input(self):
        runtime = MapReduceRuntime()
        output = runtime.execute_round([], summing_reducer)
        assert output == []
        assert runtime.stats.rounds[0].n_reducers == 0


class TestExecuteJob:
    def test_two_round_pipeline(self):
        runtime = MapReduceRuntime()
        first = runtime.execute_round(
            [(parity, list(range(parity, 10, 2))) for parity in (0, 1)], summing_reducer
        )
        output = runtime.execute_round([("total", [s for _, s in first])], summing_reducer)
        assert output == [("total", 45)]
        assert runtime.stats.n_rounds == 2

    def test_job_stats_aggregation(self):
        runtime = MapReduceRuntime()

        def passthrough(_key, value):
            return value

        value = np.zeros((10, 2))
        for _ in range(2):
            [value] = runtime.execute_round([(0, value)], passthrough)
        assert runtime.stats.peak_local_memory == 10
        assert runtime.stats.aggregate_memory == 10
        assert runtime.stats.parallel_time >= 0
        assert runtime.stats.sequential_time >= runtime.stats.parallel_time - 1e-9

    def test_backend_name_recorded(self):
        assert MapReduceRuntime().stats.backend == "serial"
        with MapReduceRuntime(max_workers=2) as runtime:
            assert runtime.stats.backend == "threads"
