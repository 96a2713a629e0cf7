"""Tests for repro.core.coreset (composable coreset construction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CoresetSpec, build_coreset, build_weighted_coreset, gmm_select
from repro.exceptions import InvalidParameterError


class TestCoresetSpec:
    def test_requires_exactly_one_rule(self):
        with pytest.raises(InvalidParameterError):
            CoresetSpec(base_size=5)
        with pytest.raises(InvalidParameterError):
            CoresetSpec(base_size=5, epsilon=0.5, size_multiplier=2.0)

    def test_from_epsilon(self):
        spec = CoresetSpec.from_epsilon(10, 0.5)
        assert spec.epsilon == 0.5
        assert spec.target_size() is None

    def test_from_multiplier_target_size(self):
        spec = CoresetSpec.from_multiplier(10, 4)
        assert spec.target_size() == 40

    @pytest.mark.parametrize("mu", [0.5, float("nan"), float("inf")])
    def test_multiplier_below_one_or_non_finite_rejected(self, mu):
        with pytest.raises(InvalidParameterError):
            CoresetSpec.from_multiplier(10, mu)

    def test_max_size_caps_target(self):
        spec = CoresetSpec.from_multiplier(10, 8, max_size=50)
        assert spec.target_size() == 50

    def test_max_size_below_base_rejected(self):
        with pytest.raises(InvalidParameterError):
            CoresetSpec.from_multiplier(10, 2, max_size=5)


class TestBuildCoresetSizeRule:
    def test_exact_size(self, small_blobs):
        spec = CoresetSpec.from_multiplier(5, 4)
        result = build_coreset(small_blobs, spec)
        assert result.size == 20

    def test_size_capped_at_partition(self):
        points = np.arange(10, dtype=float).reshape(-1, 1)
        spec = CoresetSpec.from_multiplier(4, 8)
        result = build_coreset(points, spec)
        assert result.size == 10

    def test_weights_sum_to_partition_size(self, small_blobs):
        spec = CoresetSpec.from_multiplier(5, 2)
        result = build_coreset(small_blobs, spec, weighted=True)
        assert result.coreset.total_weight == pytest.approx(small_blobs.shape[0])

    def test_unweighted_has_unit_weights(self, small_blobs):
        spec = CoresetSpec.from_multiplier(5, 2)
        result = build_coreset(small_blobs, spec, weighted=False)
        np.testing.assert_allclose(result.coreset.weights, 1.0)

    def test_proxy_distance_bounded_by_coreset_radius(self, small_blobs):
        spec = CoresetSpec.from_multiplier(5, 4)
        result = build_coreset(small_blobs, spec)
        # Every point's proxy is its closest coreset point, so the max proxy
        # distance equals the GMM radius of the traversal.
        coreset_points = small_blobs[result.center_indices]
        distances = np.linalg.norm(
            small_blobs[:, None, :] - coreset_points[None, :, :], axis=2
        ).min(axis=1)
        assert result.max_proxy_distance == pytest.approx(distances.max())

    def test_origin_offset(self, small_blobs):
        spec = CoresetSpec.from_multiplier(3, 2)
        result = build_coreset(small_blobs, spec, origin_offset=1000)
        assert result.coreset.origin_indices.min() >= 1000

    def test_larger_multiplier_smaller_proxy_distance(self, medium_blobs):
        small = build_coreset(medium_blobs, CoresetSpec.from_multiplier(5, 1))
        large = build_coreset(medium_blobs, CoresetSpec.from_multiplier(5, 8))
        assert large.max_proxy_distance <= small.max_proxy_distance + 1e-9


class TestBuildCoresetEpsilonRule:
    def test_stopping_condition_met(self, small_blobs):
        k, epsilon = 5, 0.5
        spec = CoresetSpec.from_epsilon(k, epsilon)
        result = build_coreset(small_blobs, spec)
        assert result.max_proxy_distance <= (epsilon / 2.0) * result.gmm_radius_at_base + 1e-9
        assert result.size >= k

    def test_lemma2_proxy_bound(self, small_blobs):
        # Lemma 2: d(s, p(s)) <= eps * r*_k(S); we use the GMM radius as an
        # upper bound proxy for 2 r*_k, so the proxy distance must be at most
        # eps/2 * r_{T^k} <= eps * r*_k.
        k, epsilon = 4, 0.5
        spec = CoresetSpec.from_epsilon(k, epsilon)
        result = build_coreset(small_blobs, spec)
        gmm_radius_k = gmm_select(small_blobs, k).radius
        assert result.max_proxy_distance <= epsilon * gmm_radius_k + 1e-9

    def test_max_size_respected(self, small_blobs):
        spec = CoresetSpec.from_epsilon(5, 0.01, max_size=15)
        result = build_coreset(small_blobs, spec)
        assert result.size <= 15


class TestBuildWeightedCoreset:
    def test_shorthand_returns_weighted_points(self, small_blobs):
        spec = CoresetSpec.from_multiplier(5, 2)
        coreset = build_weighted_coreset(small_blobs, spec)
        assert coreset.total_weight == pytest.approx(small_blobs.shape[0])
        assert len(coreset) == 10
