"""Integration tests: realistic end-to-end pipelines and failure injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CoresetStreamOutliers,
    MapReduceKCenter,
    MapReduceKCenterOutliers,
    radius_with_outliers,
)
from repro.datasets import (
    clustered_with_noise,
    higgs_like,
    inflate,
    inject_outliers,
    wiki_like,
)
from repro.exceptions import InvalidParameterError
from repro.streaming import GeneratorStream, StreamingRunner
from repro.datasets import inflate_streaming


class TestRealisticPipelines:
    def test_higgs_like_mapreduce_pipeline(self):
        points = higgs_like(1500, random_state=0)
        result = MapReduceKCenter(20, ell=8, coreset_multiplier=4, random_state=0).fit(points)
        assert result.k == 20
        # The paper's two rounds plus the radius-assignment round.
        assert result.stats.n_rounds == 3
        # Local memory must be far below the input size (the whole point of MR).
        assert result.stats.peak_local_memory < points.shape[0] // 2

    def test_wiki_like_high_dimensional(self):
        points = wiki_like(600, random_state=0)
        result = MapReduceKCenter(10, ell=4, coreset_multiplier=2, random_state=0).fit(points)
        assert result.radius > 0

    def test_outlier_pipeline_with_inflation(self):
        base = clustered_with_noise(400, 5, 3, noise_fraction=0.0, random_state=0)
        inflated = inflate(base, 2.0, random_state=1)
        injected = inject_outliers(inflated, 30, random_state=2)
        result = MapReduceKCenterOutliers(
            5, 30, ell=8, coreset_multiplier=4, randomized=True,
            include_log_term=False, random_state=0,
        ).fit(injected.points)
        assert set(result.outlier_indices) == set(injected.outlier_indices)

    def test_streaming_pipeline_from_generator(self):
        base = clustered_with_noise(300, 4, 2, noise_fraction=0.0, random_state=3)
        injected = inject_outliers(base, 10, random_state=4)
        algorithm = CoresetStreamOutliers(4, 10, coreset_multiplier=4)
        stream = GeneratorStream(inflate_streaming(injected.points, 1.0, batch_size=64))
        report = StreamingRunner().run(algorithm, stream)
        radius = radius_with_outliers(injected.points, report.result.centers, 10)
        assert radius < radius_with_outliers(injected.points, report.result.centers, 0)


class TestFailureInjection:
    def test_duplicate_points_everywhere(self):
        points = np.tile(np.array([[1.0, 2.0]]), (100, 1))
        result = MapReduceKCenter(3, ell=4, coreset_multiplier=2, random_state=0).fit(points)
        assert result.radius == pytest.approx(0.0)

    def test_duplicates_with_outliers(self):
        points = np.vstack([np.tile(np.array([[0.0, 0.0]]), (50, 1)), [[100.0, 100.0]]])
        result = MapReduceKCenterOutliers(1, 1, ell=2, coreset_multiplier=2, random_state=0).fit(points)
        assert result.radius == pytest.approx(0.0)

    def test_k_equals_n(self):
        points = np.arange(8, dtype=float).reshape(-1, 1)
        result = MapReduceKCenter(8, ell=2, coreset_multiplier=1, random_state=0).fit(points)
        assert result.radius == pytest.approx(0.0)

    def test_single_partition_more_workers_than_points(self):
        points = np.arange(5, dtype=float).reshape(-1, 1)
        result = MapReduceKCenter(2, ell=100, coreset_multiplier=1, random_state=0).fit(points)
        assert result.ell <= 5

    def test_z_larger_than_noise(self):
        # Asking for more outliers than actually exist must still work: the
        # solver simply discards the z farthest (legitimate) points.
        points = clustered_with_noise(200, 3, 2, noise_fraction=0.0, random_state=5)
        result = MapReduceKCenterOutliers(3, 50, ell=4, coreset_multiplier=2, random_state=0).fit(points)
        assert result.radius <= result.radius_all_points

    def test_streaming_dimension_mismatch_rejected(self):
        algorithm = CoresetStreamOutliers(2, 1, coreset_multiplier=2)
        algorithm.process(np.array([1.0, 2.0]))
        with pytest.raises(InvalidParameterError):
            algorithm.process(np.array([1.0]))

    def test_adversarial_all_outliers_one_partition_small_coreset(self):
        # The stress case of Figure 4 at mu=1: still returns a valid solution
        # (possibly with a poor radius), never crashes.
        base = clustered_with_noise(300, 4, 2, noise_fraction=0.0, random_state=6)
        injected = inject_outliers(base, 20, random_state=7)
        result = MapReduceKCenterOutliers(
            4,
            20,
            ell=4,
            coreset_multiplier=1,
            partitioning="adversarial",
            adversarial_indices=injected.outlier_indices,
            random_state=0,
        ).fit(injected.points)
        assert result.k <= 4
        assert np.isfinite(result.radius)
