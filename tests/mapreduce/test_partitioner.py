"""Tests for repro.mapreduce.partitioner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.mapreduce import (
    ChunkRouter,
    draw_partition_seeds,
    hashed_assignment,
    split_adversarial,
    split_contiguous,
    split_random,
    split_round_robin,
    validate_partition,
)


class TestSplitContiguous:
    def test_covers_all_indices(self):
        parts = split_contiguous(100, 7)
        validate_partition(parts, 100)

    def test_balanced_sizes(self):
        parts = split_contiguous(100, 8)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_points_raises(self):
        with pytest.raises(InvalidParameterError):
            split_contiguous(3, 5)

    def test_blocks_are_contiguous(self):
        parts = split_contiguous(10, 2)
        np.testing.assert_array_equal(parts[0], np.arange(5))
        np.testing.assert_array_equal(parts[1], np.arange(5, 10))


class TestSplitRoundRobin:
    def test_covers_all_indices(self):
        parts = split_round_robin(53, 6)
        validate_partition(parts, 53)

    def test_interleaving(self):
        parts = split_round_robin(9, 3)
        np.testing.assert_array_equal(parts[0], [0, 3, 6])
        np.testing.assert_array_equal(parts[2], [2, 5, 8])


class TestSplitRandom:
    def test_covers_all_indices(self):
        parts = split_random(200, 5, random_state=0)
        validate_partition(parts, 200)

    def test_roughly_balanced(self):
        parts = split_random(4000, 4, random_state=0)
        sizes = np.array([p.size for p in parts])
        assert sizes.min() > 800  # expected 1000 each; generous tolerance

    def test_reproducible(self):
        a = split_random(50, 3, random_state=7)
        b = split_random(50, 3, random_state=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestSplitAdversarial:
    def test_adversarial_indices_in_target_partition(self):
        adversarial = [3, 8, 15]
        parts = split_adversarial(30, 4, adversarial, target_partition=2)
        validate_partition(parts, 30)
        assert set(adversarial).issubset(set(parts[2].tolist()))

    def test_sizes_stay_balanced(self):
        parts = split_adversarial(100, 4, list(range(10)), target_partition=0)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 2

    def test_invalid_target_partition(self):
        with pytest.raises(InvalidParameterError):
            split_adversarial(10, 2, [0], target_partition=5)

    def test_out_of_range_indices(self):
        with pytest.raises(InvalidParameterError):
            split_adversarial(10, 2, [100])

    def test_with_shuffle(self):
        parts = split_adversarial(40, 4, [0, 1], random_state=3)
        validate_partition(parts, 40)


class TestHashedAssignment:
    def test_chunking_independent(self):
        seed = 987654321
        full = hashed_assignment(np.arange(500), 6, seed)
        chunked = np.concatenate(
            [hashed_assignment(np.arange(lo, hi), 6, seed)
             for lo, hi in ((0, 123), (123, 200), (200, 500))]
        )
        np.testing.assert_array_equal(full, chunked)

    def test_roughly_uniform(self):
        assignment = hashed_assignment(np.arange(60_000), 5, 42)
        counts = np.bincount(assignment, minlength=5)
        assert counts.min() > 10_000  # expected 12000 each

    def test_different_seeds_differ(self):
        a = hashed_assignment(np.arange(100), 4, 1)
        b = hashed_assignment(np.arange(100), 4, 2)
        assert not np.array_equal(a, b)


class TestDrawPartitionSeeds:
    def test_pinned_seed_stream(self):
        # Pins the exact variates so the two MapReduce drivers (which both
        # draw through this helper) can never drift apart again.
        seeds = draw_partition_seeds(np.random.default_rng(123), 5)
        assert seeds == (33158374, 1465339467, 1273345680, 115579757, 1952249162)

    def test_one_variate_per_partition(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        seeds = draw_partition_seeds(rng_a, 3)
        expected = tuple(int(rng_b.integers(2**31 - 1)) for _ in range(3))
        assert seeds == expected

    def test_invalid_count(self):
        with pytest.raises(InvalidParameterError):
            draw_partition_seeds(np.random.default_rng(0), 0)


class TestChunkRouter:
    @pytest.mark.parametrize("chunking", [(500,), (1, 499), (100, 250, 150), (7,) * 71 + (3,)])
    def test_matches_contiguous_split(self, chunking):
        parts = split_contiguous(500, 7)
        router = ChunkRouter(7, "contiguous", n_total=500)
        assignment = np.concatenate([router.route(m) for m in chunking])
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(part, np.flatnonzero(assignment == i))

    def test_matches_round_robin_split(self):
        parts = split_round_robin(101, 4)
        router = ChunkRouter(4, "round_robin")
        assignment = np.concatenate([router.route(m) for m in (32, 32, 32, 5)])
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(part, np.flatnonzero(assignment == i))

    def test_matches_random_split_from_same_rng(self):
        rng_a = np.random.default_rng(55)
        parts = split_random(300, 5, random_state=rng_a)
        rng_b = np.random.default_rng(55)
        router = ChunkRouter(5, "random", seed=int(rng_b.integers(2**63 - 1)))
        assignment = np.concatenate([router.route(m) for m in (64, 64, 64, 64, 44)])
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(part, np.flatnonzero(assignment == i))

    def test_contiguous_requires_length(self):
        with pytest.raises(InvalidParameterError, match="length"):
            ChunkRouter(4, "contiguous")

    def test_random_requires_seed(self):
        with pytest.raises(InvalidParameterError, match="seed"):
            ChunkRouter(4, "random")

    def test_adversarial_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChunkRouter(4, "adversarial")

    def test_adversarial_routes_by_assignment(self):
        parts = split_adversarial(30, 4, [3, 8, 15], random_state=1)
        assignment = np.empty(30, dtype=np.intp)
        for partition_id, indices in enumerate(parts):
            assignment[indices] = partition_id
        router = ChunkRouter(4, "adversarial", assignment=assignment)
        assert router.n_total == 30
        routed = np.concatenate([router.route(7) for _ in range(4)] + [router.route(2)])
        np.testing.assert_array_equal(routed, assignment)

    def test_adversarial_assignment_validated(self):
        with pytest.raises(InvalidParameterError, match="assignment ids"):
            ChunkRouter(2, "adversarial", assignment=[0, 2])
        with pytest.raises(InvalidParameterError, match="n_total"):
            ChunkRouter(2, "adversarial", n_total=5, assignment=[0, 1])

    def test_overdelivery_rejected(self):
        router = ChunkRouter(2, "contiguous", n_total=10)
        router.route(10)
        with pytest.raises(InvalidParameterError, match="more than"):
            router.route(1)


class TestValidatePartition:
    def test_rejects_missing_index(self):
        with pytest.raises(InvalidParameterError):
            validate_partition([np.array([0, 1]), np.array([3])], 4)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParameterError):
            validate_partition([np.array([0, 1]), np.array([1, 2])], 3)
