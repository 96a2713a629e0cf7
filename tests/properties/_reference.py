"""The paper's 2-round MapReduce algorithms, run directly on a point matrix.

The reference the equivalence suites hold every drive path to. It does
what Section 3 describes with no runtime, shuffle or backend in between:

* round 1 splits ``range(n)`` with the ``split_*`` functions and builds
  one coreset per non-empty partition with :func:`build_coreset`, seeded
  by :func:`draw_partition_seeds`;
* round 2 solves on the union of the coresets: GMM for k-center, the
  radius search over OUTLIERSCLUSTER for k-center with outliers;
* the radius comes from :func:`assign_to_centers` over the whole matrix.

The random draws are taken in the order the drivers take them, so a
driver that routes, stores or schedules differently must still match
this reference bit for bit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from repro._validation import check_random_state
from repro.core.assignment import assign_to_centers
from repro.core.coreset import CoresetSpec, build_coreset
from repro.core.gmm import gmm_select
from repro.core.outliers_cluster import OutliersClusterSolver
from repro.core.radius_search import search_radius
from repro.mapreduce.partitioner import (
    draw_partition_seeds,
    split_adversarial,
    split_contiguous,
    split_random,
    split_round_robin,
)
from repro.metricspace.distance import get_metric
from repro.metricspace.points import WeightedPoints


def _split(n, ell, partitioning, rng, adversarial_indices=None):
    if partitioning == "random":
        return split_random(n, ell, random_state=rng)
    if partitioning == "adversarial":
        return split_adversarial(n, ell, adversarial_indices, random_state=rng)
    if partitioning == "round_robin":
        return split_round_robin(n, ell)
    return split_contiguous(n, ell)


def reference_kcenter(
    points, k, *, ell, coreset_multiplier, partitioning="contiguous",
    random_state=None, metric="euclidean",
):
    """MapReduce k-center (Theorem 1) with the ``mu * k`` coreset rule."""
    metric = get_metric(metric)
    rng = check_random_state(random_state)
    n = points.shape[0]
    parts = _split(n, min(ell, n), partitioning, rng)
    seeds = draw_partition_seeds(rng, len(parts))
    final_seed = int(rng.integers(2**31 - 1))
    spec = CoresetSpec.from_multiplier(k, coreset_multiplier)

    union = np.concatenate([
        part[build_coreset(points[part], spec, metric, weighted=False,
                           first_center=None, random_state=seeds[i]).center_indices]
        for i, part in enumerate(parts) if part.size
    ])
    solution = gmm_select(points[union], k, metric, first_center=None, random_state=final_seed)
    center_indices = union[solution.centers]
    centers = points[center_indices]
    return SimpleNamespace(
        centers=centers,
        center_indices=center_indices,
        radius=assign_to_centers(points, centers, metric).radius,
        coreset_size=int(union.shape[0]),
        ell=sum(1 for part in parts if part.size),
    )


def reference_outliers(
    points, k, z, *, ell, coreset_multiplier, randomized=False, include_log_term=True,
    partitioning="contiguous", adversarial_indices=None, eps_hat=1.0 / 6.0,
    random_state=None, metric="euclidean",
):
    """MapReduce k-center with ``z`` outliers (Theorem 2 / Corollary 3), ``mu`` rule."""
    metric = get_metric(metric)
    rng = check_random_state(random_state)
    n = points.shape[0]
    ell = min(ell, n)
    if randomized:
        log_term = math.log2(max(n, 2)) if include_log_term else 0.0
        base = k + max(1, int(math.ceil(6.0 * (z / ell + log_term))))
        partitioning = "random"
    else:
        base = k + z
    spec = CoresetSpec.from_multiplier(base, coreset_multiplier)
    parts = _split(n, ell, partitioning, rng, adversarial_indices)
    seeds = draw_partition_seeds(rng, len(parts))

    coresets = []
    for i, part in enumerate(parts):
        if not part.size:
            continue
        result = build_coreset(points[part], spec, metric, weighted=True, origin_offset=0,
                               first_center=None, random_state=seeds[i])
        coresets.append(WeightedPoints(points=result.coreset.points,
                                       weights=result.coreset.weights,
                                       origin_indices=part[result.center_indices]))
    union = WeightedPoints.concatenate(coresets)
    search = search_radius(OutliersClusterSolver(union, k, eps_hat=eps_hat, metric=metric), z)
    positions = search.solution.center_indices
    centers = union.points[positions]
    clustering = assign_to_centers(points, centers, metric)
    return SimpleNamespace(
        centers=centers,
        center_indices=union.origin_indices[positions],
        radius=clustering.radius_excluding(z),
        radius_all_points=clustering.radius,
        outlier_indices=clustering.outlier_indices(z),
        estimated_radius=search.radius,
        coreset_size=len(union),
        ell=len(coresets),
    )
