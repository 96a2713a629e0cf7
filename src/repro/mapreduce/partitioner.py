"""Partitioning strategies for the first MapReduce round.

The first round splits the input ``S`` into ``ell`` subsets ``S_i``.
The paper uses three flavours:

* **contiguous equal-size** splits (the deterministic algorithms only need
  the subsets to have equal size);
* **uniformly random** assignment of each point to a subset — the
  randomized outlier algorithm of Section 3.2.1 relies on this to spread
  the outliers evenly (Lemma 7);
* an **adversarial** split used in the experiments of Section 5.2, where
  all planted outliers are forced into the same partition to stress the
  deterministic algorithm.

Every function returns a list of ``ell`` index arrays (some possibly
empty for degenerate inputs) that together partition ``range(n)``.

The first three strategies assign point ``i`` to a partition as a pure
function of ``(i, n, ell)`` — the random strategy through a seeded
counter-based hash (:func:`hashed_assignment`) rather than a sequential
RNG draw. That makes every assignment *chunking-independent*: the
streamed shuffle (:class:`ChunkRouter`) can recompute it for any chunk
``[offset, offset + m)`` of the input without materialising the whole
index range, and lands every point in exactly the partition the
``split_*`` functions would have chosen. The adversarial split is not
such a function; the shuffle computes it once up front and routes by
the resulting per-index assignment array.

:func:`draw_partition_seeds` is the one shared way the MapReduce drivers
draw their per-partition coreset seeds, so the deterministic-for-any-
backend guarantee cannot drift between solvers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import (
    check_non_negative_int,
    check_positive_int,
    check_random_state,
)
from ..exceptions import InvalidParameterError

__all__ = [
    "split_contiguous",
    "split_round_robin",
    "split_random",
    "split_adversarial",
    "validate_partition",
    "hashed_assignment",
    "draw_partition_seeds",
    "ChunkRouter",
]


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (a high-quality 64-bit mixer)."""
    with np.errstate(over="ignore"):
        x = (values + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        return x ^ (x >> np.uint64(31))


def hashed_assignment(indices: np.ndarray, ell: int, seed: int) -> np.ndarray:
    """Partition id for each global point index under the seeded random split.

    A counter-based construction: the partition of point ``i`` is
    ``splitmix64(splitmix64(seed) ^ i) mod ell``, a pure function of
    ``(i, seed, ell)``. Unlike drawing ``n`` sequential variates, the
    assignment of any index range can be recomputed independently —
    the property the out-of-core shuffle needs to route chunks without
    ever holding the full assignment vector.
    """
    ell = check_positive_int(ell, name="ell")
    indices = np.asarray(indices, dtype=np.uint64)
    mixed_seed = _splitmix64(np.uint64(seed) & _MASK64)
    hashed = _splitmix64(indices ^ mixed_seed)
    return (hashed % np.uint64(ell)).astype(np.intp)


def draw_partition_seeds(rng: np.random.Generator, n_partitions: int) -> tuple[int, ...]:
    """Draw one coreset seed per partition, in partition order.

    Both MapReduce drivers draw their round-1 seeds through this helper
    (one ``integers(2**31 - 1)`` variate per partition, partition 0
    first), which is what makes the documented guarantee — "the result
    is deterministic for any ``max_workers``/backend because
    per-partition seeds are drawn up front" — a single point of truth
    instead of two copies that can drift.
    """
    n_partitions = check_positive_int(n_partitions, name="n_partitions")
    return tuple(int(rng.integers(2**31 - 1)) for _ in range(n_partitions))


def split_contiguous(n: int, ell: int) -> list[np.ndarray]:
    """Split ``range(n)`` into ``ell`` contiguous, (near-)equal-size blocks."""
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    if ell > n:
        raise InvalidParameterError(f"cannot split {n} points into {ell} non-empty parts")
    return [np.array(part, dtype=np.intp) for part in np.array_split(np.arange(n), ell)]


def split_round_robin(n: int, ell: int) -> list[np.ndarray]:
    """Assign point ``i`` to partition ``i mod ell`` (deterministic interleaving)."""
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    if ell > n:
        raise InvalidParameterError(f"cannot split {n} points into {ell} non-empty parts")
    indices = np.arange(n)
    return [indices[indices % ell == i] for i in range(ell)]


def split_random(n: int, ell: int, *, random_state=None) -> list[np.ndarray]:
    """Assign each point to a uniformly random partition, independently.

    This is the partitioning of the randomized outlier algorithm
    (Section 3.2.1); unlike :func:`split_contiguous` the parts are only
    equal in expectation, and parts can occasionally be empty for tiny
    inputs — the MapReduce drivers simply skip empty parts (dropping a
    partition only lowers the effective parallelism, never correctness).

    The per-point draw is the counter-based :func:`hashed_assignment`
    keyed by a single variate from ``random_state``, so the streamed
    shuffle reproduces this split exactly, chunk by chunk, from the same
    ``random_state``.
    """
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    rng = check_random_state(random_state)
    seed = int(rng.integers(2**63 - 1))
    assignment = hashed_assignment(np.arange(n), ell, seed)
    return [np.flatnonzero(assignment == i).astype(np.intp) for i in range(ell)]


def split_adversarial(
    n: int,
    ell: int,
    adversarial_indices: Sequence[int],
    *,
    target_partition: int = 0,
    random_state=None,
) -> list[np.ndarray]:
    """Force the given indices into one partition, spreading the rest evenly.

    Reproduces the adversarial placement of Section 5.2: all planted
    outliers land in ``target_partition`` and the remaining points are
    dealt round-robin (or shuffled round-robin when a ``random_state`` is
    given) across all ``ell`` partitions, keeping sizes balanced.
    """
    n = check_positive_int(n, name="n")
    ell = check_positive_int(ell, name="ell")
    target_partition = check_non_negative_int(target_partition, name="target_partition")
    if target_partition >= ell:
        raise InvalidParameterError("target_partition must be smaller than ell")
    adversarial = np.unique(np.asarray(adversarial_indices, dtype=np.intp))
    if adversarial.size and (adversarial.min() < 0 or adversarial.max() >= n):
        raise InvalidParameterError("adversarial_indices must be valid point indices")

    remaining = np.setdiff1d(np.arange(n), adversarial, assume_unique=False)
    if random_state is not None:
        rng = check_random_state(random_state)
        remaining = rng.permutation(remaining)

    # Target sizes of a balanced partition of n points into ell parts.
    base, extra = divmod(n, ell)
    targets = [base + (1 if i < extra else 0) for i in range(ell)]

    parts: list[list[int]] = [[] for _ in range(ell)]
    parts[target_partition].extend(adversarial.tolist())
    cursor = 0
    for partition_id in range(ell):
        missing = max(0, targets[partition_id] - len(parts[partition_id]))
        take = remaining[cursor : cursor + missing]
        parts[partition_id].extend(int(i) for i in take)
        cursor += missing
    # Leftovers (only possible when the adversarial block overflows its
    # partition's target size) are dealt to the smallest partitions.
    for index in remaining[cursor:]:
        smallest = min(range(ell), key=lambda i: len(parts[i]))
        parts[smallest].append(int(index))
    return [np.array(sorted(part), dtype=np.intp) for part in parts]


class ChunkRouter:
    """Route consecutive stream chunks into ``ell`` partitions.

    The router computes, for each incoming chunk of ``m`` points, the
    partition id of every row — matching bit for bit the partition that
    the corresponding ``split_*`` function assigns to the same global
    index. For the pure-function strategies it never materialises more
    than one chunk's worth of assignment metadata, which is what keeps
    the coordinator's working set at ``O(chunk)`` during the out-of-core
    shuffle.

    Parameters
    ----------
    ell:
        Number of partitions.
    partitioning:
        ``"contiguous"``, ``"round_robin"``, ``"random"`` or
        ``"adversarial"``. ``"contiguous"`` additionally needs
        ``n_total`` (the equal-size block boundaries depend on the
        stream length); ``"adversarial"`` needs ``assignment``.
    n_total:
        Stream length, when known (e.g. from ``len(stream)``).
    seed:
        Hash seed for the ``"random"`` strategy; drawn by the caller from
        the run's RNG exactly like :func:`split_random` draws it, so both
        consume the generator identically.
    assignment:
        Partition id of every global index, for ``"adversarial"``
        (computed from :func:`split_adversarial`); its length is the
        stream length.
    """

    def __init__(
        self,
        ell: int,
        partitioning: str = "contiguous",
        *,
        n_total: int | None = None,
        seed: int | None = None,
        assignment: np.ndarray | None = None,
    ) -> None:
        self.ell = check_positive_int(ell, name="ell")
        if partitioning not in ("contiguous", "round_robin", "random", "adversarial"):
            raise InvalidParameterError(
                "partitioning must be 'contiguous', 'round_robin', 'random' or "
                f"'adversarial'; got {partitioning!r}"
            )
        if partitioning == "adversarial":
            if assignment is None:
                raise InvalidParameterError(
                    "adversarial partitioning needs the per-index assignment array"
                )
            assignment = np.asarray(assignment, dtype=np.intp)
            if assignment.size and (assignment.min() < 0 or assignment.max() >= self.ell):
                raise InvalidParameterError(f"assignment ids must lie in [0, {self.ell})")
            if n_total is not None and n_total != assignment.shape[0]:
                raise InvalidParameterError(
                    f"assignment covers {assignment.shape[0]} points; n_total is {n_total}"
                )
            n_total = int(assignment.shape[0])
        self._assignment = assignment
        if partitioning == "contiguous":
            if n_total is None:
                raise InvalidParameterError(
                    "contiguous partitioning needs the stream length up front; "
                    "use 'round_robin' or 'random' for unknown-length streams"
                )
            n_total = check_positive_int(n_total, name="n_total")
            if self.ell > n_total:
                raise InvalidParameterError(
                    f"cannot split {n_total} points into {self.ell} non-empty parts"
                )
            # np.array_split boundaries: the first n % ell blocks get one
            # extra point, exactly like split_contiguous.
            base, extra = divmod(n_total, self.ell)
            sizes = np.full(self.ell, base, dtype=np.intp)
            sizes[:extra] += 1
            self._boundaries = np.cumsum(sizes)
        else:
            self._boundaries = None
        if partitioning == "random" and seed is None:
            raise InvalidParameterError("random partitioning needs a hash seed")
        self.partitioning = partitioning
        self.n_total = n_total
        self._seed = seed
        self._offset = 0

    @property
    def points_routed(self) -> int:
        """Number of stream points routed so far."""
        return self._offset

    def route(self, chunk_length: int) -> np.ndarray:
        """Partition id of each row of the next ``chunk_length``-row chunk.

        Chunks must be routed in stream order; the router advances its
        global offset by ``chunk_length``.
        """
        if chunk_length < 1:
            raise InvalidParameterError("chunk_length must be >= 1")
        indices = self._offset + np.arange(chunk_length, dtype=np.intp)
        self._offset += chunk_length
        if self.n_total is not None and self._offset > self.n_total:
            raise InvalidParameterError(
                f"stream delivered more than the declared {self.n_total} points"
            )
        if self.partitioning == "round_robin":
            return indices % self.ell
        if self.partitioning == "random":
            return hashed_assignment(indices, self.ell, self._seed)
        if self.partitioning == "adversarial":
            return self._assignment[indices]
        return np.searchsorted(self._boundaries, indices, side="right").astype(np.intp)


def validate_partition(parts: Sequence[np.ndarray], n: int) -> None:
    """Check that ``parts`` is a partition of ``range(n)``; raise otherwise."""
    n = check_positive_int(n, name="n")
    combined = np.concatenate([np.asarray(p, dtype=np.intp) for p in parts]) if parts else np.empty(0, dtype=np.intp)
    if combined.size != n or np.unique(combined).size != n:
        raise InvalidParameterError("parts do not form a partition of range(n)")
    if combined.size and (combined.min() < 0 or combined.max() >= n):
        raise InvalidParameterError("partition contains out-of-range indices")
