"""Radius search for the outlier formulation's second phase.

The second round of the MapReduce algorithm (and the post-pass phase of
the Streaming algorithm) must find the smallest radius ``r`` such that
OUTLIERSCLUSTER leaves uncovered weight at most ``z``. The paper performs
a binary search over the ``O(|T|^2)`` pairwise distances of the coreset
combined with a geometric search of step ``(1 + delta)`` with
``delta = eps_hat / (3 + 4*eps_hat)``, so the returned estimate
``r_tilde_min`` is within a multiplicative ``(1 + delta)`` of the true
minimum feasible radius.

:func:`search_radius` reproduces that procedure on top of an
:class:`~repro.core.outliers_cluster.OutliersClusterSolver`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_eps_hat, check_non_negative_int
from ..exceptions import InvalidParameterError, RadiusSearchError
from .outliers_cluster import OutliersClusterResult, OutliersClusterSolver

__all__ = ["RadiusSearchResult", "search_radius", "delta_for"]


def delta_for(eps_hat: float) -> float:
    """The geometric-search step ``delta = eps_hat / (3 + 4*eps_hat)``.

    With ``eps_hat = 0`` (the unweighted Charikar et al. setting) the step
    degenerates to 0; callers then skip the geometric refinement and the
    binary search alone decides.
    """
    eps_hat = check_eps_hat(eps_hat)
    if eps_hat == 0:
        return 0.0
    return eps_hat / (3.0 + 4.0 * eps_hat)


@dataclass(frozen=True)
class RadiusSearchResult:
    """Outcome of the radius search.

    Attributes
    ----------
    radius:
        The estimated minimum feasible radius ``r_tilde_min``.
    solution:
        The OUTLIERSCLUSTER output at that radius (its centers are the
        algorithm's final answer).
    probes:
        Number of OUTLIERSCLUSTER executions performed by the search; the
        paper bounds this by ``O(log |T|)`` plus the geometric refinement.
    """

    radius: float
    solution: OutliersClusterResult
    probes: int


def search_radius(
    solver: OutliersClusterSolver,
    z: int,
    *,
    delta: float | None = None,
    max_geometric_steps: int = 64,
) -> RadiusSearchResult:
    """Find (approximately) the smallest radius with uncovered weight <= ``z``.

    Parameters
    ----------
    solver:
        A prepared :class:`OutliersClusterSolver` over the coreset.
    z:
        Outlier budget: the search accepts a radius when the weight left
        uncovered by OUTLIERSCLUSTER is at most ``z``.
    delta:
        Geometric refinement step; defaults to
        ``delta_for(solver.eps_hat)``.
    max_geometric_steps:
        Safety cap on the number of downward geometric refinement probes.

    Returns
    -------
    RadiusSearchResult

    Raises
    ------
    RadiusSearchError
        If either geometric loop exhausts ``max_geometric_steps`` without
        establishing its invariant — the upward doubling fallback without
        finding any feasible radius, or the downward refinement without
        bracketing ``r_min`` (possible when ``delta`` is tiny relative to
        the gap between the smallest feasible candidate and the largest
        infeasible one, e.g. on near-degenerate coresets). The failure is
        loud because returning the last probe would silently void the
        ``(1 + delta)`` tolerance the paper's analysis relies on.

    Notes
    -----
    The candidate set is the sorted list of pairwise coreset distances.
    The largest candidate is always feasible (a single ball of that radius
    centered anywhere covers everything), so the binary search is well
    defined; radius 0 is also probed to handle degenerate coresets where
    every point coincides.
    """
    z = check_non_negative_int(z, name="z")
    if delta is None:
        delta = delta_for(solver.eps_hat)
    if delta < 0:
        raise InvalidParameterError("delta must be non-negative")

    probes = 0

    def feasible(radius: float) -> OutliersClusterResult | None:
        nonlocal probes
        probes += 1
        result = solver.run(radius)
        return result if result.uncovered_weight <= z else None

    candidates = solver.candidate_radii()
    # Degenerate coreset: all points coincide, any radius (even 0) works.
    zero_result = feasible(0.0)
    if zero_result is not None:
        return RadiusSearchResult(radius=0.0, solution=zero_result, probes=probes)
    if candidates.size == 0:
        # A single distinct point that is still infeasible can only happen
        # when z is smaller than the weight k centers cannot absorb, which
        # is impossible for k >= 1; guard nonetheless.
        result = solver.run(0.0)
        return RadiusSearchResult(radius=0.0, solution=result, probes=probes)

    # Binary search over the sorted pairwise distances for the smallest
    # feasible candidate.
    lo, hi = 0, candidates.size - 1
    best_radius = float(candidates[hi])
    best_result = feasible(best_radius)
    if best_result is None:
        # The largest pairwise distance always covers the whole coreset with
        # one ball; being infeasible means z < 0 weight left, impossible, but
        # fall back to doubling to stay robust to pathological metrics.
        radius = best_radius
        for _ in range(max_geometric_steps):
            radius *= 2.0
            best_result = feasible(radius)
            if best_result is not None:
                best_radius = radius
                break
        if best_result is None:
            raise RadiusSearchError(
                f"no feasible radius found after doubling {max_geometric_steps} "
                f"times from the largest pairwise distance {candidates[hi]!r}; "
                "check that k >= 1 and the coreset is well formed"
            )
    infeasible_floor = 0.0
    while lo <= hi:
        mid = (lo + hi) // 2
        radius = float(candidates[mid])
        result = feasible(radius)
        if result is not None:
            best_radius = radius
            best_result = result
            hi = mid - 1
        else:
            infeasible_floor = max(infeasible_floor, radius)
            lo = mid + 1

    # Geometric refinement: walk down from the best feasible radius in
    # (1 + delta) steps while it stays feasible, never crossing the largest
    # known-infeasible radius. This yields the paper's (1 + delta)
    # multiplicative tolerance on r_min.
    if delta > 0:
        radius = best_radius
        converged = False
        for _ in range(max_geometric_steps):
            candidate = radius / (1.0 + delta)
            if candidate <= infeasible_floor or candidate <= 0:
                converged = True
                break
            result = feasible(candidate)
            if result is None:
                converged = True
                break
            best_radius = candidate
            best_result = result
            radius = candidate
        if not converged:
            # The loop may have established the invariant on its very last
            # shrink: if the *next* candidate would have crossed the floor,
            # best_radius is already within (1 + delta) of r_min.
            next_candidate = radius / (1.0 + delta)
            converged = next_candidate <= infeasible_floor or next_candidate <= 0
        if not converged:
            # The walk kept finding feasible radii after max_geometric_steps
            # shrinks — a tiny delta, or a coreset whose candidate distances
            # leave a huge feasible gap above the infeasible floor. Returning
            # best_radius here would silently drop the (1 + delta) guarantee
            # on r_min, so fail loudly instead.
            raise RadiusSearchError(
                f"geometric refinement did not converge within "
                f"{max_geometric_steps} steps (delta={delta!r}, reached "
                f"radius {best_radius!r}, infeasible floor {infeasible_floor!r}); "
                "increase max_geometric_steps or use a larger delta/eps_hat"
            )

    return RadiusSearchResult(radius=best_radius, solution=best_result, probes=probes)
