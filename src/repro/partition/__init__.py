"""Partitioned region-solving: region shards and their merge.

Public surface of the partitioned ``Bounded-UFP`` solver; the purely
topological pieces (partitions and partitioners) live in
:mod:`repro.graphs.partition`.
"""

from repro.partition.shards import RegionShard, build_shards
from repro.partition.solver import partitioned_bounded_ufp, resolve_partition

__all__ = [
    "RegionShard",
    "build_shards",
    "partitioned_bounded_ufp",
    "resolve_partition",
]
