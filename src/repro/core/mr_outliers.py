"""2-round MapReduce algorithms for k-center with z outliers (Section 3.2).

Two variants are provided through a single driver class:

* the **deterministic** algorithm (Theorem 2): arbitrary equal-size
  partitioning, per-partition weighted coresets of base size ``k + z``,
  final solution via OUTLIERSCLUSTER + radius search on the union —
  a ``(3 + eps)``-approximation with local memory
  ``O(sqrt(|S| (k+z)) (24/eps)^D)``;
* the **randomized** algorithm (Section 3.2.1, Corollary 3): uniformly
  random partitioning and per-partition base size ``k + z'`` with
  ``z' = 6 (z/ell + log2 |S|)`` — with high probability the same
  approximation using much smaller coresets when ``z`` is large.

Both variants accept the paper's experimental knob ``coreset_multiplier``
(``mu``) instead of the theoretical ``epsilon`` stopping rule: the
deterministic variant then uses coresets of size ``mu * (k + z)`` and the
randomized one ``mu * (k + 6 z / ell)``, exactly the configurations of
Figure 4.

The driver runs on the 3-round skeleton of :mod:`repro.core.mr_kcenter`
(a chunked shuffle into per-partition storage, the two rounds above, and
an assignment round that computes the radii and the outlier set). It
supplies only the hooks: random routing for the randomized variant, the
coreset size ``k + z`` or ``k + z'``, weighted round-1 coresets, the
radius search over OUTLIERSCLUSTER as the round-2 reducer (its
:class:`~repro.core.radius_search.RadiusSearchResult` yields
``estimated_radius`` and ``search_probes``), and ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .._validation import check_eps_hat, check_non_negative_int
from ..exceptions import InvalidParameterError
from ..mapreduce.backends import ExecutorBackend
from ..mapreduce.runtime import JobStats
from ..metricspace.distance import Metric
from ..metricspace.points import WeightedPoints
# Round 1 calls build_coreset through repro.core.mr_kcenter; the name stays
# bound here because perfbench/tracing.py wraps it in this module by name.
from .coreset import CoresetSpec, build_coreset  # noqa: F401
from .mr_kcenter import _CoresetMapReduce, _MapReduceResult
from .outliers_cluster import OutliersClusterSolver
from .radius_search import search_radius

__all__ = ["MROutliersResult", "MapReduceKCenterOutliers"]


def _search_reducer(
    _key,
    values,
    *,
    k: int,
    z: int,
    eps_hat: float,
    metric: Metric,
):
    """Radius search + OUTLIERSCLUSTER on the coreset union (round-2 reducer; picklable)."""
    union: WeightedPoints = values[0]
    solver = OutliersClusterSolver(union, k, eps_hat=eps_hat, metric=metric)
    search = search_radius(solver, z)
    return [(0, (search.solution.center_indices, search))]


@dataclass(frozen=True)
class MROutliersResult(_MapReduceResult):
    """Result of a 2-round MapReduce k-center-with-outliers run.

    Attributes
    ----------
    centers:
        ``(<=k, d)`` coordinates of the returned centers.
    center_indices:
        Indices of the centers in the original dataset.
    radius:
        Radius of the dataset w.r.t. the centers **after discarding the
        z farthest points** (the problem's objective).
    radius_all_points:
        Plain radius including the outliers, for reference.
    outlier_indices:
        Indices of the ``z`` points the solution leaves farthest away.
    estimated_radius:
        The ``r_tilde_min`` found by the radius search on the coreset.
    coreset_size:
        Size of the union of the weighted coresets.
    ell:
        Number of partitions used.
    randomized:
        Whether the randomized variant was used.
    stats:
        MapReduce accounting.
    coreset_time, solve_time:
        Wall-clock seconds the reducers of the two phases spent, read
        from ``stats.rounds[0].sequential_time`` (coreset construction
        summed over partitions) and ``stats.rounds[1].sequential_time``
        (radius search + OUTLIERSCLUSTER). Both include the reducers'
        partition slicing and output packaging.
    search_probes:
        Number of OUTLIERSCLUSTER executions performed by the radius search.
    peak_working_memory_size:
        The paper's space metric (stored points): the largest working
        set any single participant held — reducers *and* the
        coordinator: ``O(n/ell + chunk + union coreset)``.
    """

    centers: np.ndarray
    center_indices: np.ndarray
    radius: float
    radius_all_points: float
    outlier_indices: np.ndarray
    estimated_radius: float
    coreset_size: int
    ell: int
    randomized: bool
    stats: JobStats
    search_probes: int


class MapReduceKCenterOutliers(_CoresetMapReduce):
    """Coreset-based 2-round MapReduce solver for k-center with z outliers.

    Parameters
    ----------
    k:
        Number of centers.
    z:
        Number of outliers the objective may discard.
    ell:
        Number of partitions (degree of parallelism).
    epsilon:
        Precision parameter; drives both the theoretical coreset stopping
        rule and ``eps_hat = epsilon / 6`` used by OUTLIERSCLUSTER.
        Mutually exclusive with ``coreset_multiplier``.
    coreset_multiplier:
        The experimental knob ``mu``: per-partition coresets of size
        ``mu * (k + z)`` (deterministic) or ``mu * (k + 6 z / ell)``
        (randomized). ``mu = 1`` with the deterministic variant is the
        baseline of [26].
    randomized:
        Use the randomized partitioning / reduced coreset variant of
        Section 3.2.1.
    eps_hat:
        Explicit override of the OUTLIERSCLUSTER precision parameter.
        Defaults to ``epsilon / 6`` when ``epsilon`` is given, else to
        ``1/6`` (i.e. the value corresponding to ``epsilon = 1``).
    partitioning:
        ``"contiguous"``, ``"round_robin"``, ``"random"`` or
        ``"adversarial"``. The adversarial option requires
        ``adversarial_indices`` (typically the planted outliers) and
        reproduces the stress setup of Figure 4. The randomized variant
        always uses random partitioning regardless of this setting.
    adversarial_indices:
        Indices forced into a single partition under adversarial
        partitioning.
    include_log_term:
        Whether ``z'`` includes the ``log2 |S|`` term of Lemma 7 (the
        paper's experiments drop it; theory keeps it). Only relevant for
        the randomized variant.
    metric, random_state, local_memory_limit, max_workers, backend, workers:
        As in :class:`~repro.core.mr_kcenter.MapReduceKCenter`
        (``workers`` are the distributed backend's daemon addresses).
    """

    _weighted = True
    _partitionings = ("contiguous", "round_robin", "random", "adversarial")

    def __init__(
        self,
        k: int,
        z: int,
        *,
        ell: int = 4,
        epsilon: float | None = None,
        coreset_multiplier: float | None = None,
        randomized: bool = False,
        eps_hat: float | None = None,
        partitioning: str = "contiguous",
        adversarial_indices=None,
        include_log_term: bool = True,
        metric: str | Metric = "euclidean",
        random_state=None,
        local_memory_limit: int | None = None,
        max_workers: int | None = None,
        backend: str | ExecutorBackend | None = None,
        workers=None,
    ) -> None:
        self.z = check_non_negative_int(z, name="z")
        super().__init__(
            k,
            ell=ell,
            epsilon=epsilon,
            coreset_multiplier=coreset_multiplier,
            partitioning=partitioning,
            metric=metric,
            random_state=random_state,
            local_memory_limit=local_memory_limit,
            max_workers=max_workers,
            backend=backend,
            workers=workers,
        )
        self.randomized = bool(randomized)
        if eps_hat is None:
            eps_hat = (self.epsilon / 6.0) if self.epsilon is not None else 1.0 / 6.0
        self.eps_hat = check_eps_hat(eps_hat)
        if partitioning == "adversarial" and adversarial_indices is None:
            raise InvalidParameterError(
                "adversarial partitioning requires adversarial_indices"
            )
        self.adversarial_indices = (
            None
            if adversarial_indices is None
            else np.asarray(adversarial_indices, dtype=np.intp)
        )
        self.include_log_term = bool(include_log_term)

    # -- hooks -------------------------------------------------------------------------

    def _z_prime(self, n: int, ell: int) -> int:
        """The randomized variant's per-partition outlier bound ``z'`` (Lemma 7)."""
        log_term = math.log2(max(n, 2)) if self.include_log_term else 0.0
        return max(1, int(math.ceil(6.0 * (self.z / ell + log_term))))

    def _routing(self) -> str:
        return "random" if self.randomized else self.partitioning

    def _coreset_spec(self, n: int, ell: int) -> CoresetSpec:
        base = self.k + (self._z_prime(n, ell) if self.randomized else self.z)
        if self.coreset_multiplier is not None:
            return CoresetSpec.from_multiplier(base, self.coreset_multiplier)
        return CoresetSpec.from_epsilon(base, self.epsilon)

    def _solve_reducer(self, rng: np.random.Generator):
        return partial(
            _search_reducer, k=self.k, z=self.z, eps_hat=self.eps_hat, metric=self.metric
        )

    def _result(self, *, solved, **fields) -> MROutliersResult:
        return MROutliersResult(
            **fields,
            estimated_radius=solved.radius,
            randomized=self.randomized,
            search_probes=solved.probes,
        )
