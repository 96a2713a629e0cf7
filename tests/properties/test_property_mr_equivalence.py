"""Cross-path equivalence of the MapReduce drivers.

The MapReduce counterpart of ``test_property_batch_equivalence``: for
fixed seeds, the solvers must produce **bit-identical** centers, center
indices, radii and outlier sets to the paper's 2-round algorithm run
directly on the point matrix (``_reference.py``) across

* every executor backend (serial / threads / processes),
* every partition-storage tier (in-process memory / files under
  ``/dev/shm`` / disk spill files), and
* every drive path — ``fit`` and ``fit_stream`` at several chunk
  sizes, fed from both an :class:`~repro.streaming.stream.ArrayStream`
  and a single-pass :class:`~repro.streaming.stream.GeneratorStream`.

This is what lets the shuffle (and the pooled backends, and the
spill-to-disk tier) inherit the paper-faithfulness arguments of the
reference, and it doubles as the acceptance check that the
coordinator's working set is bounded by O(chunk + coreset) instead of
O(n) — including when the partitions spill past the in-memory budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from _reference import reference_kcenter, reference_outliers

from repro.core import MapReduceKCenter, MapReduceKCenterOutliers
from repro.exceptions import InvalidParameterError
from repro.streaming import ArrayStream, GeneratorStream

BACKENDS = ("serial", "threads", "processes")


def _pool_size(backend):
    """Two workers on a pool backend; the serial backend takes no pool size above 1."""
    return 1 if backend == "serial" else 2
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


def _kcenter(backend):
    return MapReduceKCenter(
        6, ell=4, coreset_multiplier=3, partitioning="random",
        random_state=5, backend=backend, max_workers=_pool_size(backend),
    )


def _outliers(backend, **kwargs):
    return MapReduceKCenterOutliers(
        5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
        random_state=5, backend=backend, max_workers=_pool_size(backend), **kwargs,
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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_matches_reference(self, dataset, kcenter_reference, backend):
        _assert_kcenter_equal(_kcenter(backend).fit(dataset.points), kcenter_reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_fit_stream_matches_reference(
        self, dataset, kcenter_reference, backend, chunk_size
    ):
        streamed = _kcenter(backend).fit_stream(
            ArrayStream(dataset.points), chunk_size=chunk_size
        )
        _assert_kcenter_equal(streamed, kcenter_reference)

    @pytest.mark.parametrize("partitioning", ("contiguous", "round_robin", "random"))
    def test_partitionings_match_across_paths(self, dataset, partitioning):
        points = dataset.points
        reference = reference_kcenter(
            points, 6, ell=4, coreset_multiplier=3, partitioning=partitioning,
            random_state=9,
        )
        solver = MapReduceKCenter(
            6, ell=4, coreset_multiplier=3, partitioning=partitioning, random_state=9
        )
        _assert_kcenter_equal(solver.fit(points), reference)
        _assert_kcenter_equal(
            solver.fit_stream(ArrayStream(points), chunk_size=200), reference
        )

    def test_generator_stream_matches_array_stream(self, dataset):
        points = dataset.points

        def chunks():
            for start in range(0, points.shape[0], 300):
                yield points[start : start + 300]

        # Unknown-length single-pass source; round_robin needs no length.
        solver = MapReduceKCenter(
            6, ell=4, coreset_multiplier=3, partitioning="round_robin", random_state=5
        )
        reference = reference_kcenter(
            points, 6, ell=4, coreset_multiplier=3, partitioning="round_robin",
            random_state=5,
        )
        from_array = solver.fit_stream(ArrayStream(points), chunk_size=300)
        from_generator = solver.fit_stream(GeneratorStream(chunks()), chunk_size=300)
        _assert_kcenter_equal(from_array, reference)
        _assert_kcenter_equal(from_generator, reference)


class TestOutliersEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_matches_reference(self, dataset, outliers_reference, backend):
        _assert_outliers_equal(_outliers(backend).fit(dataset.points), outliers_reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_stream_matches_reference(self, dataset, outliers_reference, backend):
        streamed = _outliers(backend).fit_stream(
            ArrayStream(dataset.points), chunk_size=251
        )
        _assert_outliers_equal(streamed, outliers_reference)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_randomized_variant_matches(self, dataset, chunk_size):
        points = dataset.points
        reference = reference_outliers(
            points, 5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
            randomized=True, random_state=5,
        )
        _assert_outliers_equal(_outliers(None, randomized=True).fit(points), reference)
        streamed = _outliers(None, randomized=True).fit_stream(
            ArrayStream(points), chunk_size=chunk_size
        )
        _assert_outliers_equal(streamed, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_adversarial_partitioning_matches(self, dataset, backend, chunk_size):
        # The one split that is not a pure function of the index: computed
        # up front by split_adversarial, then routed chunk by chunk.
        points = dataset.points
        reference = reference_outliers(
            points, 5, 40, ell=4, coreset_multiplier=3, include_log_term=False,
            partitioning="adversarial", adversarial_indices=dataset.outlier_indices,
            random_state=5,
        )
        solver = _outliers(
            backend, partitioning="adversarial", adversarial_indices=dataset.outlier_indices
        )
        _assert_outliers_equal(solver.fit(points), reference)
        streamed = solver.fit_stream(ArrayStream(points), chunk_size=chunk_size)
        _assert_outliers_equal(streamed, reference)

    def test_adversarial_partitioning_rejects_unsized_streams(self, dataset):
        points = dataset.points
        solver = _outliers(
            "serial", partitioning="adversarial", adversarial_indices=dataset.outlier_indices
        )
        with pytest.raises(InvalidParameterError, match="length"):
            solver.fit_stream(GeneratorStream(iter([points])), chunk_size=251)

    def test_recovers_planted_outliers_out_of_core(self, dataset):
        streamed = _outliers("processes", randomized=True).fit_stream(
            ArrayStream(dataset.points), chunk_size=128
        )
        assert set(streamed.outlier_indices) == set(dataset.outlier_indices)


class TestCoordinatorMemoryBound:
    def test_streamed_coordinator_peak_is_chunk_plus_coreset(self, dataset):
        points = dataset.points
        n = points.shape[0]
        chunk_size = 128
        fitted = _outliers("serial").fit(points)
        streamed = _outliers("serial").fit_stream(
            ArrayStream(points), chunk_size=chunk_size
        )
        # fit is charged its default 4096-point chunk, which holds all n
        # points of this input, or the coreset union if that is larger.
        assert fitted.stats.coordinator_peak_items == max(min(4096, n), fitted.coreset_size)
        # Small chunks: one chunk or the coreset union, whichever is
        # larger — measurably below the full input.
        bound = max(chunk_size, streamed.coreset_size)
        assert streamed.stats.coordinator_peak_items <= bound
        assert streamed.stats.coordinator_peak_items < n
        # Reducer-side accounting (the paper's M_L) does not depend on chunking.
        assert (
            streamed.stats.rounds[0].max_local_memory
            == fitted.stats.rounds[0].max_local_memory
        )

    def test_peak_working_memory_reported_on_results(self, dataset):
        points = dataset.points
        fitted = _kcenter("serial").fit(points)
        streamed = _kcenter("serial").fit_stream(ArrayStream(points), chunk_size=100)
        assert fitted.peak_working_memory_size == fitted.stats.peak_working_memory_size
        assert fitted.peak_working_memory_size == points.shape[0]
        assert streamed.peak_working_memory_size < fitted.peak_working_memory_size


class TestStorageTierEquivalence:
    """All three partition-storage tiers must be bit-identical to the reference."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("storage", STORAGE_TIERS)
    def test_kcenter_every_tier_on_every_backend(
        self, dataset, kcenter_reference, backend, storage
    ):
        streamed = _kcenter(backend).fit_stream(
            ArrayStream(dataset.points), chunk_size=251, storage=storage
        )
        assert streamed.stats.storage_tier == storage
        _assert_kcenter_equal(streamed, kcenter_reference)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_kcenter_disk_tier_across_chunk_sizes(self, dataset, kcenter_reference, chunk_size):
        streamed = _kcenter("serial").fit_stream(
            ArrayStream(dataset.points), chunk_size=chunk_size, storage="disk"
        )
        _assert_kcenter_equal(streamed, kcenter_reference)
        assert streamed.stats.spilled_bytes > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("storage", ("shared", "disk"))
    def test_outliers_file_tiers_on_every_backend(
        self, dataset, outliers_reference, backend, storage
    ):
        streamed = _outliers(backend).fit_stream(
            ArrayStream(dataset.points), chunk_size=251, storage=storage
        )
        assert streamed.stats.storage_tier == storage
        _assert_outliers_equal(streamed, outliers_reference)
        # Only the disk tier counts its bytes as spilled.
        assert (streamed.stats.spilled_bytes > 0) == (storage == "disk")

    @pytest.mark.parametrize("partitioning", ("contiguous", "round_robin", "random"))
    def test_disk_tier_across_partitionings(self, dataset, partitioning):
        points = dataset.points
        reference = reference_kcenter(
            points, 6, ell=4, coreset_multiplier=3, partitioning=partitioning,
            random_state=9,
        )
        solver = MapReduceKCenter(
            6, ell=4, coreset_multiplier=3, partitioning=partitioning, random_state=9
        )
        streamed = solver.fit_stream(
            ArrayStream(points), chunk_size=200, storage="disk"
        )
        _assert_kcenter_equal(streamed, reference)


class TestAutoSpillAcceptance:
    """The acceptance contract of the disk tier.

    A dataset whose partition footprint exceeds the configured in-memory
    budget must complete under ``storage="auto"`` by spilling
    (``spilled_bytes > 0``), bit-identically, while the coordinator stays
    at O(chunk + union coreset).
    """

    def test_dataset_above_budget_completes_by_spilling(self, dataset, outliers_reference):
        points = dataset.points
        chunk_size = 128
        # Budget far below the ~(n, d) float64 partition footprint.
        budget = points.nbytes // 8
        streamed = _outliers("serial").fit_stream(
            ArrayStream(points),
            chunk_size=chunk_size,
            storage="auto",
            memory_budget_bytes=budget,
        )
        assert streamed.stats.storage_tier == "disk"
        assert streamed.stats.spilled_bytes > budget
        _assert_outliers_equal(streamed, outliers_reference)
        # The coordinator never held more than one chunk plus the union.
        assert streamed.stats.coordinator_peak_items <= max(
            chunk_size, streamed.coreset_size
        )
        assert streamed.stats.coordinator_peak_items < points.shape[0]

    def test_generous_budget_stays_in_memory(self, dataset):
        points = dataset.points
        streamed = _kcenter("serial").fit_stream(
            ArrayStream(points),
            chunk_size=251,
            storage="auto",
            memory_budget_bytes=10 * points.nbytes,
        )
        assert streamed.stats.storage_tier == "memory"
        assert streamed.stats.spilled_bytes == 0
