"""Bit-identical equivalence of the distributed backend with the serial reference.

The distributed counterpart of ``test_property_mr_equivalence``: for
fixed seeds, a 2-worker loopback :class:`~repro.mapreduce.LocalCluster`
must produce **bit-identical** centers, center indices, radii and
outlier sets to the paper's 2-round algorithm run directly on the point
matrix (``_reference.py``) across

* both MapReduce drivers (k-center and k-center-with-outliers),
* both drive paths (``fit`` and ``fit_stream``),
* every partition-storage tier (by-value memory-tier rows, and the
  ``"shared"`` and ``"disk"`` files, which are pushed as raw bytes),
* every partitioning and several chunk sizes,

and a worker killed mid-job must not change the solution — only add a
reassignment to :attr:`~repro.mapreduce.runtime.JobStats.worker_assignments`.
This is the acceptance contract of the distributed backend:
all randomness is drawn in the coordinator before dispatch, so remote
execution may only move computation, never change it.
"""

from __future__ import annotations

import numpy as np
import pytest
from _reference import reference_kcenter, reference_outliers

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.mapreduce import LocalCluster
from repro.streaming import ArrayStream

STORAGE_TIERS = ("memory", "shared", "disk")
CHUNK_SIZES = (64, 251, 4096)


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets import higgs_like, inject_outliers

    points = higgs_like(1200, random_state=17)
    return inject_outliers(points, 40, random_state=18)


@pytest.fixture(scope="module")
def kcenter_reference(dataset):
    return reference_kcenter(
        dataset.points, 6, ell=4, coreset_multiplier=3, partitioning="random", random_state=5
    )


@pytest.fixture(scope="module")
def outliers_reference(dataset):
    return reference_outliers(
        dataset.points, 5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
        random_state=5,
    )


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(2) as loopback:
        yield loopback


def _kcenter(workers=None, **kwargs):
    kwargs.setdefault("partitioning", "random")
    kwargs.setdefault("random_state", 5)
    return MapReduceKCenter(6, ell=4, coreset_multiplier=3, workers=workers, **kwargs)


def _outliers(workers=None, **kwargs):
    return MapReduceKCenterOutliers(
        5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
        random_state=5, workers=workers, **kwargs,
    )


def _assert_kcenter_equal(result, reference):
    np.testing.assert_array_equal(result.center_indices, reference.center_indices)
    np.testing.assert_array_equal(result.centers, reference.centers)
    assert result.radius == reference.radius
    assert result.coreset_size == reference.coreset_size
    assert result.ell == reference.ell


def _assert_outliers_equal(result, reference):
    np.testing.assert_array_equal(result.center_indices, reference.center_indices)
    np.testing.assert_array_equal(result.centers, reference.centers)
    assert result.radius == reference.radius
    assert result.radius_all_points == reference.radius_all_points
    assert result.estimated_radius == reference.estimated_radius
    np.testing.assert_array_equal(result.outlier_indices, reference.outlier_indices)
    assert result.coreset_size == reference.coreset_size
    assert result.ell == reference.ell


class TestKCenterEquivalence:
    def test_fit_matches_reference(self, dataset, cluster, kcenter_reference):
        distributed = _kcenter(cluster.addresses).fit(dataset.points)
        _assert_kcenter_equal(distributed, kcenter_reference)

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_fit_stream_matches_reference(
        self, dataset, cluster, kcenter_reference, storage, chunk_size
    ):
        distributed = _kcenter(cluster.addresses).fit_stream(
            ArrayStream(dataset.points), chunk_size=chunk_size, storage=storage
        )
        assert distributed.stats.storage_tier == storage
        _assert_kcenter_equal(distributed, kcenter_reference)

    @pytest.mark.parametrize("partitioning", ("contiguous", "round_robin", "random"))
    def test_partitionings_match_across_paths(self, dataset, cluster, partitioning):
        points = dataset.points
        reference = reference_kcenter(
            points, 6, ell=4, coreset_multiplier=3, partitioning=partitioning,
            random_state=9,
        )
        d_fit = _kcenter(
            cluster.addresses, partitioning=partitioning, random_state=9
        ).fit(points)
        d_stream = _kcenter(
            cluster.addresses, partitioning=partitioning, random_state=9
        ).fit_stream(ArrayStream(points), chunk_size=200)
        _assert_kcenter_equal(d_fit, reference)
        _assert_kcenter_equal(d_stream, reference)


class TestOutliersEquivalence:
    def test_fit_matches_reference(self, dataset, cluster, outliers_reference):
        distributed = _outliers(cluster.addresses).fit(dataset.points)
        _assert_outliers_equal(distributed, outliers_reference)

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_fit_stream_matches_reference(self, dataset, cluster, outliers_reference, storage):
        distributed = _outliers(cluster.addresses).fit_stream(
            ArrayStream(dataset.points), chunk_size=251, storage=storage
        )
        assert distributed.stats.storage_tier == storage
        _assert_outliers_equal(distributed, outliers_reference)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_randomized_variant_matches(self, dataset, cluster, chunk_size):
        points = dataset.points
        reference = reference_outliers(
            points, 5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
            randomized=True, random_state=5,
        )
        distributed = _outliers(cluster.addresses, randomized=True).fit_stream(
            ArrayStream(points), chunk_size=chunk_size
        )
        _assert_outliers_equal(distributed, reference)

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_adversarial_partitioning_matches(self, dataset, cluster, storage):
        points = dataset.points
        reference = reference_outliers(
            points, 5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
            partitioning="adversarial", adversarial_indices=dataset.outlier_indices,
            random_state=5,
        )
        distributed = _outliers(
            cluster.addresses, partitioning="adversarial",
            adversarial_indices=dataset.outlier_indices,
        ).fit_stream(ArrayStream(points), chunk_size=251, storage=storage)
        _assert_outliers_equal(distributed, reference)

    def test_recovers_planted_outliers(self, dataset, cluster):
        distributed = _outliers(cluster.addresses, randomized=True).fit_stream(
            ArrayStream(dataset.points), chunk_size=128, storage="disk"
        )
        assert set(distributed.outlier_indices) == set(dataset.outlier_indices)


class TestWorkerKillEquivalence:
    """A mid-job worker death must not change the solution."""

    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_kcenter_survives_worker_death(self, dataset, kcenter_reference, storage):
        with LocalCluster(2, fail_after_tasks={0: 1}) as flaky:
            distributed = _kcenter(flaky.addresses).fit_stream(
                ArrayStream(dataset.points), chunk_size=251, storage=storage
            )
        _assert_kcenter_equal(distributed, kcenter_reference)
        retried = [
            key
            for round_assignments in distributed.stats.worker_assignments
            for key, attempts in round_assignments.items()
            if len(attempts) > 1
        ]
        assert retried, "JobStats must record the reassignment"

    def test_outliers_survive_truncated_result(self, dataset, outliers_reference):
        with LocalCluster(2, fail_after_tasks={0: 1}, fail_mode="truncate") as flaky:
            distributed = _outliers(flaky.addresses).fit_stream(
                ArrayStream(dataset.points), chunk_size=251, storage="disk"
            )
        _assert_outliers_equal(distributed, outliers_reference)

    def test_in_memory_fit_survives_worker_death(self, dataset, outliers_reference):
        with LocalCluster(2, fail_after_tasks={1: 1}) as flaky:
            distributed = _outliers(flaky.addresses).fit(dataset.points)
        _assert_outliers_equal(distributed, outliers_reference)


class TestAccounting:
    def test_reducer_side_accounting_matches_serial(self, dataset, cluster):
        points = dataset.points
        reference = _kcenter().fit_stream(ArrayStream(points), chunk_size=251)
        distributed = _kcenter(cluster.addresses).fit_stream(
            ArrayStream(points), chunk_size=251
        )
        # The paper's M_L is computed in the coordinator before dispatch
        # and must not depend on where the reducers ran.
        assert (
            distributed.stats.peak_local_memory == reference.stats.peak_local_memory
        )
        assert distributed.stats.bytes_shipped > 0
        assert reference.stats.bytes_shipped == 0
        assert len(distributed.stats.worker_assignments) == len(
            distributed.stats.rounds
        )
