"""The benchmark's four workloads: seeded inputs, one job call, output checks.

Every workload draws its inputs, and every solver's ``random_state``, from
the ``--seed`` alone, so the program receives only generated inputs. The
sizes were chosen so that each workload's time sits in a different layer:

* ``mr-outliers``: round 2 (radius search over a 3,840-point coreset
  union); set-up is dominated by ``inject_outliers``' enclosing ball.
  The input is 10k points: the round-2 cost does not depend on ``n``,
  while the set-up cost grows linearly with it.
* ``mr-kcenter-procs``: the shuffle into shared memory and round-1 GMM
  coresets on a 2-process pool.
* ``stream-kcenter``: the batched CORESETSTREAM sweep (``Metric.nearest``),
  over a mixture of 300 tight, well-separated Gaussian components. The
  sweep's cost is proportional to the centers the coreset holds. On the
  HIGGS stand-in that count depends on where the first ``tau + 1`` points
  put ``phi`` on its doubling ladder, and the work per point varied 2x
  between seeds (157 to 319 centers on average). With 300 components and
  ``tau = 400`` the coreset settles at one center per component on every
  seed.
* ``mr-kcenter-cluster``: the disk tier and TCP shipping to a 2-worker
  loopback cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import CoresetStreamKCenter, MapReduceKCenter, MapReduceKCenterOutliers
from repro.datasets import GaussianMixtureSpec, gaussian_mixture, inject_outliers, power_like
from repro.mapreduce.cluster import LocalCluster
from repro.mapreduce.runtime import JobStats
from repro.streaming import ArrayStream, StreamingRunner

#: Relative tolerance between a reported radius and the brute-force one:
#: the program's kernel expands |a|^2 + |b|^2 - 2a.b, the oracle subtracts.
RADIUS_RTOL = 1e-7
#: Float64 elements per oracle block (about 32 MiB of temporaries).
ORACLE_BLOCK_ELEMENTS = 1 << 22


class CheckFailed(Exception):
    """A job returned a wrong or malformed answer."""


def brute_force_distances(points: np.ndarray, centers: np.ndarray):
    """Exact nearest-center distances by explicit differences, in row blocks.

    Independent of ``repro.metricspace``. Returns the distance of every row
    to its nearest center, and the distance of every center to its nearest
    row (0 exactly when the center is an input row).
    """
    n, k = points.shape[0], centers.shape[0]
    to_center = np.empty(n)
    to_row = np.full(k, np.inf)
    block = max(1, ORACLE_BLOCK_ELEMENTS // (k * points.shape[1]))
    for start in range(0, n, block):
        diff = points[start:start + block, None, :] - centers[None, :, :]
        squared = np.einsum("ijk,ijk->ij", diff, diff)
        to_center[start:start + block] = squared.min(axis=1)
        np.minimum(to_row, squared.min(axis=0), out=to_row)
    return np.sqrt(to_center), np.sqrt(to_row)


def _check_radius(reported: float, expected: float) -> None:
    if not math.isclose(reported, expected, rel_tol=RADIUS_RTOL):
        raise CheckFailed(f"reported radius {reported!r} != brute force {expected!r}")


def _check_center_indices(points: np.ndarray, centers: np.ndarray, indices: np.ndarray, k: int):
    if not 1 <= indices.shape[0] <= k:
        raise CheckFailed(f"{indices.shape[0]} centers returned for k={k}")
    if indices.min() < 0 or indices.max() >= points.shape[0]:
        raise CheckFailed("center index out of range")
    if np.unique(indices).shape[0] != indices.shape[0]:
        raise CheckFailed("duplicate center indices")
    if not np.array_equal(points[indices], centers):
        raise CheckFailed("center coordinates do not match their indices")


@dataclass
class Fixture:
    """One set-up: the generated inputs and, where used, the running cluster."""

    points: np.ndarray
    cluster: LocalCluster | None = None

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None


@dataclass
class Outcome:
    """What the benchmark reads from a job's result."""

    radius: float
    working_points: int
    identity: bytes  # equal across repeats of one invocation
    stats: JobStats  # empty for the streaming job


class Workload:
    """One workload: its set-up, its job, and the checks on the job's output."""

    name = ""
    workers = 1  # degree of parallelism of the job's backend
    forked_reducers = False  # whether reducers run in forked pool workers

    def __init__(self, seed: int) -> None:
        self.data_seed, self.plant_seed, self.solver_seed = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(3)
        )

    def setup(self, timings: dict[str, list[float]]) -> Fixture:
        raise NotImplementedError

    def run(self, fixture: Fixture, serial: bool = False):
        raise NotImplementedError

    def outcome(self, fixture: Fixture, result) -> Outcome:
        """Cheap structural checks plus the figures the benchmark reports."""
        raise NotImplementedError

    def oracle(self, fixture: Fixture, result) -> float:
        """Brute-force check of one result; returns the true radius."""
        raise NotImplementedError


def _timed(timings: dict[str, list[float]], name: str, function, *args, **kwargs):
    start = perf_counter()
    value = function(*args, **kwargs)
    timings.setdefault(name, []).append(perf_counter() - start)
    return value


class MROutliers(Workload):
    name = "mr-outliers"
    n_points, k, z = 10_000, 20, 100

    def setup(self, timings):
        points = _timed(timings, "datasets.generate_s", power_like,
                        self.n_points, random_state=self.data_seed)
        planted = _timed(timings, "datasets.inject_outliers_s", inject_outliers,
                         points, self.z, random_state=self.plant_seed)
        return Fixture(planted.points)

    def run(self, fixture, serial=False):
        return MapReduceKCenterOutliers(
            k=self.k, z=self.z, ell=8, coreset_multiplier=4, randomized=False,
            random_state=self.solver_seed, backend="serial",
        ).fit(fixture.points)

    def outcome(self, fixture, result):
        _check_center_indices(fixture.points, result.centers, result.center_indices, self.k)
        outliers = result.outlier_indices
        if outliers.shape[0] != self.z or np.unique(outliers).shape[0] != self.z:
            raise CheckFailed(f"{outliers.shape[0]} distinct outliers returned for z={self.z}")
        if outliers.min() < 0 or outliers.max() >= fixture.points.shape[0]:
            raise CheckFailed("outlier index out of range")
        identity = result.center_indices.tobytes() + outliers.tobytes()
        return Outcome(result.radius, result.peak_working_memory_size, identity, result.stats)

    def oracle(self, fixture, result):
        distances, _ = brute_force_distances(fixture.points, result.centers)
        expected = float(np.sort(distances)[-(self.z + 1)])
        _check_radius(result.radius, expected)
        _check_radius(result.radius_all_points, float(distances.max()))
        if distances[result.outlier_indices].min() < expected * (1 - RADIUS_RTOL):
            raise CheckFailed("a reported outlier is not among the z farthest points")
        return expected


class MRKCenterProcs(Workload):
    name = "mr-kcenter-procs"
    n_points, k = 1_000_000, 20
    workers = 2
    forked_reducers = True
    storage = "auto"

    def setup(self, timings):
        return Fixture(_timed(timings, "datasets.generate_s", power_like,
                              self.n_points, random_state=self.data_seed))

    def _backend(self, fixture, serial):
        if serial:
            return {"backend": "serial"}
        return {"backend": "processes", "max_workers": self.workers}

    def run(self, fixture, serial=False):
        solver = MapReduceKCenter(k=self.k, ell=8, coreset_multiplier=4,
                                  random_state=self.solver_seed,
                                  **self._backend(fixture, serial))
        return solver.fit_stream(ArrayStream(fixture.points), chunk_size=8192,
                                 storage=self.storage)

    def outcome(self, fixture, result):
        _check_center_indices(fixture.points, result.centers, result.center_indices, self.k)
        return Outcome(result.radius, result.peak_working_memory_size,
                       result.center_indices.tobytes(), result.stats)

    def oracle(self, fixture, result):
        distances, _ = brute_force_distances(fixture.points, result.centers)
        expected = float(distances.max())
        _check_radius(result.radius, expected)
        return expected


class MRKCenterCluster(MRKCenterProcs):
    name = "mr-kcenter-cluster"
    forked_reducers = False
    storage = "disk"

    def setup(self, timings):
        fixture = super().setup(timings)
        fixture.cluster = _timed(timings, "cluster.start_s", LocalCluster, self.workers)
        return fixture

    def _backend(self, fixture, serial):
        if serial:
            return super()._backend(fixture, serial)
        return {"workers": fixture.cluster.addresses}


class StreamKCenter(Workload):
    name = "stream-kcenter"
    n_points, k = 2_000_000, 50
    mixture = GaussianMixtureSpec(n_clusters=300, dimension=7, cluster_std=0.5, box_size=100.0)

    def setup(self, timings):
        return Fixture(_timed(timings, "datasets.generate_s", gaussian_mixture,
                              self.n_points, self.mixture, random_state=self.data_seed))

    def run(self, fixture, serial=False):
        return StreamingRunner(batch_size=1024).run(
            CoresetStreamKCenter(k=self.k, coreset_multiplier=8,
                                 random_state=self.solver_seed),
            ArrayStream(fixture.points),
        )

    def outcome(self, fixture, report):
        centers = report.result.centers
        if not 1 <= centers.shape[0] <= self.k or centers.shape[1] != fixture.points.shape[1]:
            raise CheckFailed(f"centers of shape {centers.shape} for k={self.k}")
        if report.n_points != fixture.points.shape[0]:
            raise CheckFailed(f"{report.n_points} points streamed of {fixture.points.shape[0]}")
        # The solution carries no radius; the oracle's is filled in later.
        return Outcome(math.nan, report.peak_memory, centers.tobytes(), JobStats())

    def oracle(self, fixture, report):
        distances, to_row = brute_force_distances(fixture.points, report.result.centers)
        if to_row.max() != 0.0:
            raise CheckFailed("a center is not a point of the stream")
        return float(distances.max())


WORKLOADS = {w.name: w for w in (MROutliers, MRKCenterProcs, StreamKCenter, MRKCenterCluster)}
