"""Tests for repro.mapreduce.runtime (the simulated MapReduce engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, MemoryBudgetExceededError
from repro.mapreduce import MapReduceRuntime, default_sizeof


def word_count_mapper(_key, text):
    for word in text.split():
        yield (word, 1)


def word_count_reducer(word, counts):
    yield (word, sum(counts))


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
    def test_word_count(self):
        runtime = MapReduceRuntime()
        output = runtime.execute_round(
            [(None, "a b a"), (None, "b b c")], word_count_mapper, word_count_reducer
        )
        assert dict(output) == {"a": 2, "b": 3, "c": 1}

    def test_round_stats_recorded(self):
        runtime = MapReduceRuntime()
        runtime.execute_round([(None, "a b a b")], word_count_mapper, word_count_reducer)
        stats = runtime.stats
        assert stats.n_rounds == 1
        round_stats = stats.rounds[0]
        assert round_stats.n_reducers == 2
        assert round_stats.max_local_memory == 2
        assert round_stats.total_memory == 4

    def test_memory_limit_enforced(self):
        runtime = MapReduceRuntime(local_memory_limit=1)
        with pytest.raises(MemoryBudgetExceededError):
            runtime.execute_round([(None, "a a a")], word_count_mapper, word_count_reducer)

    def test_invalid_memory_limit(self):
        with pytest.raises(InvalidParameterError):
            MapReduceRuntime(local_memory_limit=0)

    def test_deterministic_group_order(self):
        runtime = MapReduceRuntime()

        def mapper(_key, value):
            yield (value % 3, value)

        def reducer(key, values):
            yield (key, list(values))

        output = runtime.execute_round([(None, v) for v in range(9)], mapper, reducer)
        as_dict = dict(output)
        assert as_dict[0] == [0, 3, 6]
        assert as_dict[1] == [1, 4, 7]

    def test_empty_input(self):
        runtime = MapReduceRuntime()
        output = runtime.execute_round([], word_count_mapper, word_count_reducer)
        assert output == []
        assert runtime.stats.rounds[0].n_reducers == 0


class TestExecuteJob:
    def test_two_round_pipeline(self):
        runtime = MapReduceRuntime()

        def round1_mapper(_key, value):
            yield (value % 2, value)

        def round1_reducer(key, values):
            yield (0, sum(values))

        def round2_mapper(key, value):
            yield (key, value)

        def round2_reducer(_key, values):
            yield ("total", sum(values))

        first = runtime.execute_round(
            [(None, v) for v in range(10)], round1_mapper, round1_reducer
        )
        output = runtime.execute_round(first, round2_mapper, round2_reducer)
        assert output == [("total", 45)]
        assert runtime.stats.n_rounds == 2

    def test_job_stats_aggregation(self):
        runtime = MapReduceRuntime()

        def identity_mapper(key, value):
            yield (0, value)

        def identity_reducer(key, values):
            for value in values:
                yield (key, value)

        pairs = [(None, np.zeros((10, 2)))]
        for _ in range(2):
            pairs = runtime.execute_round(pairs, identity_mapper, identity_reducer)
        assert runtime.stats.peak_local_memory == 10
        assert runtime.stats.aggregate_memory == 10
        assert runtime.stats.parallel_time >= 0
        assert runtime.stats.sequential_time >= runtime.stats.parallel_time - 1e-9

    def test_reset(self):
        runtime = MapReduceRuntime()
        runtime.execute_round([(None, "x")], word_count_mapper, word_count_reducer)
        runtime.reset()
        assert runtime.stats.n_rounds == 0
