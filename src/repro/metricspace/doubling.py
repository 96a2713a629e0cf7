"""Doubling-dimension estimation.

The paper's space bounds are parameterised by the doubling dimension ``D``
of the input: the smallest ``D`` such that every ball of radius ``r`` can
be covered by at most ``2^D`` balls of radius ``r/2``. The MapReduce
algorithms never need ``D`` explicitly, but the 1-pass Streaming algorithm
does (through the coreset-size knob ``tau = (k+z) * (16/eps)^D``), and the
experiments benefit from knowing roughly how "clusterable" a dataset is.

Computing the exact doubling dimension is infeasible, so we provide two
practical estimators:

* :func:`doubling_dimension_estimate` — a sampling estimator that picks
  random balls and greedily covers them with half-radius balls; the
  estimate is ``log2`` of the largest cover size observed.
* :func:`correlation_dimension_estimate` — the classical correlation
  (fractal) dimension from the pair-count growth rate, a cheap proxy that
  tracks intrinsic dimensionality well on the synthetic datasets used in
  the benchmarks.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_points, check_positive_int, check_random_state
from .distance import Metric, get_metric, strict_upper_triangle

__all__ = [
    "doubling_dimension_estimate",
    "correlation_dimension_estimate",
    "greedy_cover_size",
]


def greedy_cover_size(
    points: np.ndarray,
    radius: float,
    metric: str | Metric = "euclidean",
) -> int:
    """Greedy number of balls of ``radius`` needed to cover ``points``.

    This is the standard farthest-point greedy cover: repeatedly pick an
    uncovered point as a new ball center until everything is covered. The
    result is within a factor of the optimal cover size and is monotone in
    the radius, which is all the estimators need.
    """
    pts = check_points(points)
    metric = get_metric(metric)
    n = pts.shape[0]
    uncovered = np.ones(n, dtype=bool)
    count = 0
    while uncovered.any():
        center_index = int(np.flatnonzero(uncovered)[0])
        distances = metric.point_to_points(pts[center_index], pts)
        uncovered &= distances > radius
        count += 1
    return count


def doubling_dimension_estimate(
    points,
    *,
    n_balls: int = 16,
    sample_size: int = 512,
    metric: str | Metric = "euclidean",
    random_state=None,
) -> float:
    """Estimate the doubling dimension by sampling balls and covering them.

    For ``n_balls`` random centers, the procedure takes the ball containing
    the sampled points within the median distance of the center, computes a
    greedy cover of that ball with balls of half the radius, and reports
    ``log2`` of the largest cover size seen. The result is a lower-bound
    flavoured estimate of ``D`` adequate for choosing streaming coreset
    sizes; it is *not* a certified bound.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)``.
    n_balls:
        Number of sampled balls.
    sample_size:
        Points are subsampled to this size to keep the estimate cheap.
    metric, random_state:
        Metric and seed.
    """
    pts = check_points(points)
    n_balls = check_positive_int(n_balls, name="n_balls")
    sample_size = check_positive_int(sample_size, name="sample_size")
    rng = check_random_state(random_state)
    metric = get_metric(metric)

    if pts.shape[0] > sample_size:
        pts = pts[rng.choice(pts.shape[0], size=sample_size, replace=False)]

    worst = 1
    n = pts.shape[0]
    for _ in range(n_balls):
        center = pts[int(rng.integers(n))]
        distances = metric.point_to_points(center, pts)
        radius = float(np.median(distances))
        if radius <= 0.0:
            continue
        inside = pts[distances <= radius]
        if inside.shape[0] < 2:
            continue
        cover = greedy_cover_size(inside, radius / 2.0, metric=metric)
        worst = max(worst, cover)
    return float(np.log2(worst)) if worst > 1 else 0.0


def correlation_dimension_estimate(
    points,
    *,
    sample_size: int = 1024,
    metric: str | Metric = "euclidean",
    random_state=None,
) -> float:
    """Correlation (fractal) dimension estimated from pair-count growth.

    Counts the fraction ``C(r)`` of point pairs within distance ``r`` for a
    geometric grid of radii and fits the slope of ``log C(r)`` against
    ``log r``. For datasets sampled from a ``D``-dimensional manifold the
    slope approaches ``D``.
    """
    pts = check_points(points)
    rng = check_random_state(random_state)
    metric = get_metric(metric)
    if pts.shape[0] > sample_size:
        pts = pts[rng.choice(pts.shape[0], size=sample_size, replace=False)]

    distances = metric.pairwise(pts)
    upper = strict_upper_triangle(distances)
    upper = upper[upper > 0]
    if upper.size == 0:
        return 0.0

    lo, hi = np.quantile(upper, [0.05, 0.75])
    if lo <= 0 or hi <= lo:
        return 0.0
    radii = np.geomspace(lo, hi, num=12)
    counts = np.array([(upper <= r).mean() for r in radii])
    mask = counts > 0
    if mask.sum() < 2:
        return 0.0
    slope, _ = np.polyfit(np.log(radii[mask]), np.log(counts[mask]), deg=1)
    return float(max(slope, 0.0))
