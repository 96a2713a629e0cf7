"""Unified empty-partition behavior of the two MapReduce drivers.

Decision under test: when the shuffle leaves a partition empty —
possible under random partitioning on tiny inputs, or in principle
under any custom split — both drivers *drop* the empty part (no round-1
reducer runs for it). Dropping only lowers the effective parallelism;
re-drawing would silently change the random partitioning the randomized
algorithm's analysis (Lemma 7) relies on, and raising would make small
seeded runs flaky.

Before this suite existed the two solvers demonstrably diverged:
``MapReduceKCenter`` forwarded empty partitions (crashing in
``build_coreset``) while ``MapReduceKCenterOutliers`` silently skipped
them. The empty part is injected at the shuffle's router, which both
drivers share.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.mapreduce.runtime as runtime_module
from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.exceptions import InvalidParameterError
from repro.mapreduce import ChunkRouter


class _RouterWithEmptyPart(ChunkRouter):
    """Routes like its base, but folds the last partition into the one before."""

    def route(self, chunk_length):
        return np.minimum(super().route(chunk_length), self.ell - 2)


@pytest.fixture
def empty_last_part(monkeypatch):
    monkeypatch.setattr(runtime_module, "ChunkRouter", _RouterWithEmptyPart)


class TestEmptyPartitionsDropped:
    def test_kcenter_drops_empty_partition(self, medium_blobs, empty_last_part):
        result = MapReduceKCenter(
            5, ell=4, coreset_multiplier=2, partitioning="random", random_state=0
        ).fit(medium_blobs)
        assert result.k == 5
        assert result.radius > 0
        # Only the three non-empty parts became reducers.
        assert result.ell == 3
        assert result.stats.rounds[0].n_reducers == 3

    def test_outliers_drops_empty_partition(self, blobs_with_outliers, empty_last_part):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        result = MapReduceKCenterOutliers(
            5, z, ell=4, coreset_multiplier=2, partitioning="random", random_state=0
        ).fit(data)
        assert result.k <= 5
        assert result.ell == 3
        assert result.stats.rounds[0].n_reducers == 3

    def test_both_solvers_report_same_reducer_count(self, blobs_with_outliers, empty_last_part):
        data = blobs_with_outliers.points
        kcenter = MapReduceKCenter(
            5, ell=6, coreset_multiplier=2, partitioning="random", random_state=1
        ).fit(data)
        outliers = MapReduceKCenterOutliers(
            5, blobs_with_outliers.n_outliers, ell=6, coreset_multiplier=2,
            partitioning="random", random_state=1,
        ).fit(data)
        assert kcenter.ell == outliers.ell == 5
        assert (
            kcenter.stats.rounds[0].n_reducers
            == outliers.stats.rounds[0].n_reducers
            == 5
        )


class TestEllLargerThanN:
    def test_kcenter_caps_ell_at_n(self):
        points = np.arange(6, dtype=float).reshape(-1, 1)
        result = MapReduceKCenter(2, ell=50, coreset_multiplier=1, random_state=0).fit(points)
        assert result.ell <= 6

    def test_outliers_caps_ell_at_n(self):
        points = np.arange(8, dtype=float).reshape(-1, 1)
        result = MapReduceKCenterOutliers(
            2, 1, ell=50, coreset_multiplier=1, random_state=0
        ).fit(points)
        assert result.ell <= 8

    def test_contiguous_split_still_rejects_ell_above_n(self):
        from repro.mapreduce import split_contiguous

        with pytest.raises(InvalidParameterError):
            split_contiguous(3, 5)
