"""Tests for repro.core.stream_outliers (CORESETOUTLIERS and the 2-pass variant)."""

from __future__ import annotations

import pytest

from repro.core import CoresetStreamOutliers, TwoPassStreamOutliers, radius_with_outliers
from repro.exceptions import InvalidParameterError, StreamingProtocolError
from repro.streaming import ArrayStream, GeneratorStream, StreamingRunner


class TestCoresetStreamOutliers:
    def test_configuration_validation(self):
        with pytest.raises(InvalidParameterError):
            CoresetStreamOutliers(5, 10, coreset_size=10)  # below k + z
        with pytest.raises(InvalidParameterError):
            CoresetStreamOutliers(5, 10, coreset_multiplier=0.5)
        for eps_hat in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                CoresetStreamOutliers(5, 10, eps_hat=eps_hat)

    @pytest.mark.parametrize("multiplier", [float("nan"), float("inf")])
    def test_non_finite_coreset_multiplier_rejected(self, multiplier):
        with pytest.raises(InvalidParameterError, match="coreset_multiplier"):
            CoresetStreamOutliers(5, 10, coreset_multiplier=multiplier)

    def test_basic_run(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        algorithm = CoresetStreamOutliers(5, z, coreset_multiplier=4)
        report = StreamingRunner().run(algorithm, ArrayStream(data, shuffle=True, random_state=0))
        assert report.result.centers.shape[0] <= 5
        assert report.result.coreset_size <= algorithm.coreset_size
        assert report.peak_memory <= algorithm.coreset_size + 1

    def test_excludes_planted_outliers(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        algorithm = CoresetStreamOutliers(5, z, coreset_multiplier=8)
        report = StreamingRunner().run(algorithm, ArrayStream(data, shuffle=True, random_state=1))
        radius_excl = radius_with_outliers(data, report.result.centers, z)
        radius_all = radius_with_outliers(data, report.result.centers, 0)
        assert radius_excl < radius_all / 10.0

    def test_search_metadata_reported(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        algorithm = CoresetStreamOutliers(4, z, coreset_multiplier=2)
        report = StreamingRunner().run(algorithm, ArrayStream(data))
        assert report.result.search_probes >= 1
        assert report.result.estimated_radius >= 0

    def test_works_from_generator_stream(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        algorithm = CoresetStreamOutliers(4, z, coreset_multiplier=2)
        batches = (data[i : i + 32] for i in range(0, data.shape[0], 32))
        report = StreamingRunner().run(algorithm, GeneratorStream(batches))
        assert report.result.n_processed == data.shape[0]

    def test_zero_outliers(self, small_blobs):
        algorithm = CoresetStreamOutliers(4, 0, coreset_multiplier=4)
        report = StreamingRunner().run(algorithm, ArrayStream(small_blobs))
        assert report.result.centers.shape[0] <= 4


class TestTwoPassStreamOutliers:
    def test_needs_two_passes(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        algorithm = TwoPassStreamOutliers(4, blobs_with_outliers.n_outliers)
        assert algorithm.n_passes == 2
        with pytest.raises(StreamingProtocolError):
            StreamingRunner().run(algorithm, ArrayStream(data, max_passes=1))

    def test_basic_run(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        algorithm = TwoPassStreamOutliers(5, z, epsilon=1.0)
        report = StreamingRunner().run(algorithm, ArrayStream(data, shuffle=True, random_state=0))
        assert report.n_passes == 2
        radius_excl = radius_with_outliers(data, report.result.centers, z)
        radius_all = radius_with_outliers(data, report.result.centers, 0)
        assert radius_excl < radius_all / 10.0

    def test_max_coreset_size_cap(self, blobs_with_outliers):
        data = blobs_with_outliers.points
        z = blobs_with_outliers.n_outliers
        algorithm = TwoPassStreamOutliers(5, z, epsilon=1.0, max_coreset_size=50)
        report = StreamingRunner().run(algorithm, ArrayStream(data))
        assert report.result.coreset_size <= 50

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidParameterError):
            TwoPassStreamOutliers(3, 5, epsilon=2.0)
