"""MapReduce substrate: accounting runtime, executor backends, and partitioners."""

from .backends import (
    DiskPartitionStore,
    ExecutorBackend,
    MemoryPartitionStore,
    PartitionBuffer,
    ProcessBackend,
    SerialBackend,
    SharedArray,
    ThreadBackend,
    available_backends,
    available_storage_tiers,
    resolve_backend,
    resolve_storage,
)
from .cluster import DistributedBackend, LocalCluster
from .worker import WorkerServer, parse_worker_address
from .partitioner import (
    ChunkRouter,
    draw_partition_seeds,
    hashed_assignment,
    split_adversarial,
    split_contiguous,
    split_random,
    split_round_robin,
    validate_partition,
)
from .runtime import (
    JobStats,
    MapReduceRuntime,
    RoundStats,
    StreamedPartition,
    default_sizeof,
)

__all__ = [
    "ChunkRouter",
    "DiskPartitionStore",
    "DistributedBackend",
    "ExecutorBackend",
    "JobStats",
    "LocalCluster",
    "MapReduceRuntime",
    "MemoryPartitionStore",
    "PartitionBuffer",
    "ProcessBackend",
    "RoundStats",
    "SerialBackend",
    "SharedArray",
    "StreamedPartition",
    "ThreadBackend",
    "WorkerServer",
    "available_backends",
    "available_storage_tiers",
    "default_sizeof",
    "draw_partition_seeds",
    "hashed_assignment",
    "parse_worker_address",
    "resolve_backend",
    "resolve_storage",
    "split_adversarial",
    "split_contiguous",
    "split_random",
    "split_round_robin",
    "validate_partition",
]
