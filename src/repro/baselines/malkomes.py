"""MALKOMESETAL: the MapReduce baselines of Malkomes et al. [26].

Malkomes et al.'s 2-round MapReduce algorithms are exactly the paper's
algorithms with the minimum coreset size: each partition contributes
``k`` centers (4-approximation, no outliers) or ``k + z`` weighted
centers (13-approximation, with outliers). The paper's Figures 2, 4 and 8
treat the ``mu = 1`` configuration as this baseline, so the classes below
are thin wrappers over :class:`~repro.core.mr_kcenter.MapReduceKCenter`
and :class:`~repro.core.mr_outliers.MapReduceKCenterOutliers` with the
multiplier pinned to 1 — keeping the comparison honest (identical code
paths, only the coreset size differs).
"""

from __future__ import annotations

from ..core.mr_kcenter import MapReduceKCenter
from ..core.mr_outliers import MapReduceKCenterOutliers
from ..metricspace.distance import Metric

__all__ = ["MalkomesKCenter", "MalkomesKCenterOutliers"]


class MalkomesKCenter(MapReduceKCenter):
    """2-round MapReduce k-center of [26]: coresets of exactly ``k`` points each.

    Parameters are those of :class:`~repro.core.mr_kcenter.MapReduceKCenter`
    minus the coreset-size knobs, which are fixed to ``mu = 1``.
    """

    def __init__(
        self,
        k: int,
        *,
        ell: int = 4,
        partitioning: str = "contiguous",
        metric: str | Metric = "euclidean",
        random_state=None,
        local_memory_limit: int | None = None,
    ) -> None:
        super().__init__(
            k,
            ell=ell,
            coreset_multiplier=1.0,
            partitioning=partitioning,
            metric=metric,
            random_state=random_state,
            local_memory_limit=local_memory_limit,
        )


class MalkomesKCenterOutliers(MapReduceKCenterOutliers):
    """2-round MapReduce k-center with outliers of [26]: coresets of ``k + z`` points.

    Parameters are those of
    :class:`~repro.core.mr_outliers.MapReduceKCenterOutliers` minus the
    coreset-size knobs (fixed to ``mu = 1``) and the randomization flag
    (the original algorithm is deterministic).
    """

    def __init__(
        self,
        k: int,
        z: int,
        *,
        ell: int = 4,
        partitioning: str = "contiguous",
        adversarial_indices=None,
        eps_hat: float | None = None,
        metric: str | Metric = "euclidean",
        random_state=None,
        local_memory_limit: int | None = None,
    ) -> None:
        super().__init__(
            k,
            z,
            ell=ell,
            coreset_multiplier=1.0,
            randomized=False,
            eps_hat=eps_hat,
            partitioning=partitioning,
            adversarial_indices=adversarial_indices,
            metric=metric,
            random_state=random_state,
            local_memory_limit=local_memory_limit,
        )
