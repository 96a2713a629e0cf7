"""Resource planning from the paper's theoretical bounds.

The paper's theorems tie the knobs of the algorithms (parallelism ``ell``,
coreset precision ``eps``, streaming coreset size ``tau``) to the memory
they need, as a function of the dataset size ``n``, the number of centers
``k``, the outlier budget ``z`` and the doubling dimension ``D``:

* Corollary 1:  MapReduce k-center, ``M_L = O(sqrt(n k) (4/eps)^D)`` at
  ``ell = Theta(sqrt(n / k))``;
* Corollary 2:  deterministic MapReduce with outliers,
  ``M_L = O(sqrt(n (k+z)) (24/eps)^D)`` at ``ell = Theta(sqrt(n/(k+z)))``;
* Corollary 3:  randomized MapReduce with outliers,
  ``M_L = O((sqrt(n (k + log n)) + z)(24/eps)^D)`` at
  ``ell = Theta(sqrt(n / (k + log n)))``;
* Theorem 3:    1-pass streaming with outliers, working memory
  ``(k + z)(96/eps)^D``.

:func:`plan_mapreduce` and :func:`plan_streaming` evaluate those formulas
(optionally estimating ``D`` from a sample) so a user can pick ``ell``
and coreset sizes before launching a large job, and can sanity-check that
a configuration fits the memory of their workers. The constants in the
bounds are worst-case; the planner reports them as-is and also the
constant-free "practical" sizes used by the paper's experiments
(``mu * k`` and ``mu * (k + z)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import (
    check_epsilon,
    check_non_negative_int,
    check_points,
    check_positive_int,
)
from ..exceptions import InvalidParameterError
from ..mapreduce.backends import available_backends, check_storage_tier, usable_cores
from ..metricspace.doubling import doubling_dimension_estimate

__all__ = ["MapReducePlan", "StreamingPlan", "plan_mapreduce", "plan_streaming"]


@dataclass(frozen=True)
class MapReducePlan:
    """Suggested MapReduce configuration and its predicted memory footprint.

    Attributes
    ----------
    ell:
        Suggested number of partitions.
    per_partition_points:
        Points each round-1 reducer will hold (``ceil(n / ell)``).
    coreset_size_theoretical:
        Worst-case per-partition coreset size from the doubling-dimension
        bound (``base * (c/eps)^D``).
    coreset_size_practical:
        The experiment-style per-partition coreset size ``mu * base`` for
        the suggested ``mu`` (the planner picks the smallest ``mu`` whose
        quality matched the paper's experiments, i.e. 4).
    union_coreset_size:
        Size of the second-round reducer input under the practical sizing.
    local_memory:
        Predicted peak local memory ``M_L`` (points) under the practical
        sizing: the max of the two rounds.
    doubling_dimension:
        The ``D`` used in the theoretical bound.
    variant:
        ``"kcenter"``, ``"outliers"`` or ``"outliers-randomized"``.
    backend:
        Executor backend the plan targets (``"serial"``, ``"threads"``,
        ``"processes"`` or ``"distributed"``).
    suggested_workers:
        Worker count to pass to the runtime for that backend: 1 for the
        serial reference, the cluster size for the distributed backend,
        otherwise ``min(ell, usable_cores())`` — more workers than round-1
        reducers can never help.
    partitions_per_worker:
        Round-1 reduce tasks each worker executes under the suggested
        sizing (``ceil(ell / suggested_workers)``); the round's parallel
        time scales with this factor, so a distributed plan shows
        directly what another worker daemon would buy.
    chunk_size:
        Suggested shuffle chunk size.
    coordinator_memory:
        Predicted coordinator working set (points): ``chunk_size +
        union`` — the quantity that decides whether a dataset fits the
        machine driving the job.
    storage:
        Partition-storage tier the plan selects for the shuffle
        (``"memory"``, ``"shared"`` or ``"disk"``): an explicit request
        is passed through; ``"auto"`` keeps the backend's natural tier
        unless the predicted partition footprint exceeds
        ``memory_budget_bytes``, in which case the plan spills to disk.
    partition_tier_bytes:
        Predicted bytes held by the partition tier: the ``(n, d)``
        float64 rows plus the ``intp`` global-index column. ``0`` when
        ``point_dimension`` is not given.
    predicted_spill_bytes:
        Bytes expected to land in spill files (``partition_tier_bytes``
        when the selected tier is ``"disk"``, else 0).
    """

    ell: int
    per_partition_points: int
    coreset_size_theoretical: int
    coreset_size_practical: int
    union_coreset_size: int
    local_memory: int
    doubling_dimension: float
    variant: str
    backend: str = "serial"
    suggested_workers: int = 1
    partitions_per_worker: int = 1
    chunk_size: int = 4096
    coordinator_memory: int = 0
    storage: str = "memory"
    partition_tier_bytes: int = 0
    predicted_spill_bytes: int = 0


@dataclass(frozen=True)
class StreamingPlan:
    """Suggested streaming coreset size and predicted working memory.

    Attributes
    ----------
    coreset_size_theoretical:
        ``(k + z) * (96 / eps)^D`` (Theorem 3).
    coreset_size_practical:
        The experiment-style ``mu * (k + z)`` size (``mu = 8`` by default
        in the paper's plots).
    working_memory:
        Predicted peak working memory in points under the practical
        sizing (coreset plus one buffered point).
    doubling_dimension:
        The ``D`` used in the theoretical bound.
    """

    coreset_size_theoretical: int
    coreset_size_practical: int
    working_memory: int
    doubling_dimension: float


def _resolve_dimension(
    doubling_dimension: float | None, sample, random_state
) -> float:
    if doubling_dimension is not None:
        if doubling_dimension < 0:
            raise ValueError("doubling_dimension must be non-negative")
        return float(doubling_dimension)
    if sample is None:
        # A conservative default for low-dimensional numeric data.
        return 2.0
    points = check_points(sample, name="sample")
    return doubling_dimension_estimate(points, random_state=random_state)


def plan_mapreduce(
    n: int,
    k: int,
    *,
    z: int = 0,
    epsilon: float = 1.0,
    randomized: bool = False,
    practical_multiplier: float = 4.0,
    doubling_dimension: float | None = None,
    sample=None,
    random_state=None,
    backend: str | None = None,
    workers=None,
    chunk_size: int = 4096,
    storage: str | None = None,
    memory_budget_bytes: int | None = None,
    point_dimension: int | None = None,
) -> MapReducePlan:
    """Suggest ``ell`` and coreset sizes for the MapReduce algorithms.

    Parameters
    ----------
    n, k, z:
        Dataset size, number of centers, outlier budget (``z = 0`` plans
        the plain k-center algorithm).
    epsilon:
        Target precision parameter.
    randomized:
        Plan the randomized variant of the outlier algorithm
        (Corollary 3) instead of the deterministic one (Corollary 2).
    practical_multiplier:
        The ``mu`` used for the experiment-style sizing.
    doubling_dimension:
        Known doubling dimension ``D``; when ``None`` it is estimated from
        ``sample`` (or defaults to 2 when no sample is given).
    sample:
        Optional point sample used to estimate ``D``.
    random_state:
        Seed for the estimation.
    backend:
        Executor backend to plan for (one of
        :func:`repro.mapreduce.available_backends`). ``None`` picks
        ``"distributed"`` when ``workers`` is given, ``"processes"`` on
        multi-core machines and ``"serial"`` otherwise; the plan's
        ``suggested_workers`` is sized accordingly.
    workers:
        Distributed cluster size: an integer worker-daemon count or the
        list of their addresses. Selects ``backend="distributed"`` when
        no backend is named, sizes ``suggested_workers`` to the cluster,
        and makes ``partitions_per_worker`` the per-daemon round-1 load.
        Required when ``backend="distributed"`` is named explicitly —
        the local CPU count says nothing about a remote cluster.
    chunk_size:
        Shuffle chunk size assumed for the plan; the predicted
        ``coordinator_memory`` is ``chunk_size + union coreset``
        whatever ``n`` is, which is what makes datasets larger than the
        coordinator's RAM plannable at all.
    storage:
        Partition-storage tier to plan for (one of
        :func:`repro.mapreduce.available_storage_tiers`). ``None`` or
        ``"auto"`` asks the planner to *select* one: the backend's
        natural tier (``"shared"`` for ``"processes"``, in-process
        arrays otherwise) unless the partition footprint is predicted
        to exceed ``memory_budget_bytes``, which selects ``"disk"``.
    memory_budget_bytes:
        Budget (bytes) for the in-memory partition tiers; only
        consulted when the tier is auto-selected.
    point_dimension:
        Dimensionality ``d`` of the points, needed to predict the
        partition tier's byte footprint; when ``None`` the byte
        predictions are reported as 0 and an auto-selected tier under a
        budget conservatively spills (the runtime does the same for
        unsized streams).
    """
    n = check_positive_int(n, name="n")
    k = check_positive_int(k, name="k")
    z = check_non_negative_int(z, name="z")
    epsilon = check_epsilon(epsilon)
    if practical_multiplier < 1:
        raise ValueError("practical_multiplier must be >= 1")
    cpus = usable_cores()
    n_workers: int | None = None
    if workers is not None:
        if isinstance(workers, int):
            n_workers = check_positive_int(workers, name="workers")
        else:
            n_workers = len(list(workers))
            if n_workers < 1:
                raise InvalidParameterError("workers must name at least one daemon")
        if backend is None:
            backend = "distributed"
    if backend is None:
        backend = "processes" if cpus > 1 else "serial"
    elif backend not in available_backends():
        raise InvalidParameterError(
            f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
        )
    if backend == "distributed" and n_workers is None:
        # The local core count says nothing about a remote cluster's size;
        # refusing beats fabricating a worker count the plan cannot run with.
        raise InvalidParameterError(
            "a distributed plan needs workers= (a daemon count or address list)"
        )
    dimension = _resolve_dimension(doubling_dimension, sample, random_state)

    if z == 0:
        variant = "kcenter"
        base = k
        constant = 4.0
        ell = max(1, int(round(math.sqrt(n / k))))
    elif not randomized:
        variant = "outliers"
        base = k + z
        constant = 24.0
        ell = max(1, int(round(math.sqrt(n / (k + z)))))
    else:
        variant = "outliers-randomized"
        log_term = math.log2(max(n, 2))
        ell = max(1, int(round(math.sqrt(n / (k + log_term)))))
        z_prime = int(math.ceil(6.0 * (z / ell + log_term)))
        base = k + z_prime
        constant = 24.0

    ell = min(ell, n)
    per_partition = int(math.ceil(n / ell))
    blowup = (constant / epsilon) ** dimension
    theoretical = int(math.ceil(base * blowup))
    practical = min(int(round(practical_multiplier * base)), per_partition)
    union = practical * ell
    local_memory = max(per_partition, union)
    chunk_size = check_positive_int(chunk_size, name="chunk_size")
    coordinator_memory = min(chunk_size, n) + union

    # Per-tier footprint of the sealed partitions: float64 rows, plus the
    # intp global-index column that rides along with them.
    if point_dimension is not None:
        point_dimension = check_positive_int(point_dimension, name="point_dimension")
        row_bytes = point_dimension * 8 + 8
        partition_tier_bytes = n * row_bytes
    else:
        partition_tier_bytes = 0
    if storage in (None, "auto"):
        over_budget = memory_budget_bytes is not None and (
            partition_tier_bytes == 0 or partition_tier_bytes > memory_budget_bytes
        )
        if over_budget:
            storage = "disk"
        else:
            storage = "shared" if backend == "processes" else "memory"
    else:
        check_storage_tier(storage)
    predicted_spill = partition_tier_bytes if storage == "disk" else 0

    if backend == "serial":
        suggested_workers = 1
    elif backend == "distributed":
        suggested_workers = max(1, min(ell, n_workers))
    else:
        suggested_workers = max(1, min(ell, cpus))

    return MapReducePlan(
        ell=ell,
        per_partition_points=per_partition,
        coreset_size_theoretical=theoretical,
        coreset_size_practical=practical,
        union_coreset_size=union,
        local_memory=local_memory,
        doubling_dimension=dimension,
        variant=variant,
        backend=backend,
        suggested_workers=suggested_workers,
        partitions_per_worker=-(-ell // suggested_workers),
        chunk_size=chunk_size,
        coordinator_memory=coordinator_memory,
        storage=storage,
        partition_tier_bytes=partition_tier_bytes,
        predicted_spill_bytes=predicted_spill,
    )


def plan_streaming(
    k: int,
    z: int,
    *,
    epsilon: float = 1.0,
    practical_multiplier: float = 8.0,
    doubling_dimension: float | None = None,
    sample=None,
    random_state=None,
) -> StreamingPlan:
    """Suggest the streaming coreset size ``tau`` for k-center with outliers.

    Parameters mirror :func:`plan_mapreduce`; the theoretical size is the
    Theorem 3 bound ``(k + z)(96/eps)^D`` and the practical size is the
    paper's experimental knob ``mu (k + z)``.
    """
    k = check_positive_int(k, name="k")
    z = check_non_negative_int(z, name="z")
    epsilon = check_epsilon(epsilon)
    if practical_multiplier < 1:
        raise ValueError("practical_multiplier must be >= 1")
    dimension = _resolve_dimension(doubling_dimension, sample, random_state)

    theoretical = int(math.ceil((k + z) * (96.0 / epsilon) ** dimension))
    practical = int(round(practical_multiplier * (k + z)))
    return StreamingPlan(
        coreset_size_theoretical=theoretical,
        coreset_size_practical=practical,
        working_memory=practical + 1,
        doubling_dimension=dimension,
    )
