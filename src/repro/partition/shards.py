"""Region shards: compact per-region subproblems of a partitioned instance.

A shard is one region of a :class:`~repro.graphs.partition.GraphPartition`
re-expressed as a standalone substrate: the region's vertices relabeled to
``0 .. n_r - 1`` and its intra-region edges to ``0 .. m_r - 1``, both in
*ascending global-id order*.  Order preservation is the load-bearing choice:

* Dijkstra breaks distance ties by vertex id and CSR arc order, so a
  relabeling that preserves relative order makes shard shortest-path trees
  agree with the global graph's trees wherever the shortest paths stay
  inside the region;
* sorted local edge-id arrays enumerate the same capacities in the same
  order as sorted global ids, so the shard's incremental dual-budget dot
  products round exactly like the global solver's.

Together these give the partitioned solver its bit-identity contract (see
:mod:`repro.partition.solver`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flows.instance import UFPInstance
from repro.flows.request import Request
from repro.graphs.graph import CapacitatedGraph
from repro.graphs.partition import GraphPartition

__all__ = ["RegionShard", "build_shards"]


@dataclass
class RegionShard:
    """One region's subproblem, relabeled to compact local ids.

    Attributes
    ----------
    region:
        The region index in the owning partition.
    graph:
        The region substrate over local ids, or ``None`` when the region
        has no internal edges (its requests are all unroutable in-shard).
    vertices:
        Global vertex ids, ascending; local vertex ``i`` is
        ``vertices[i]``.
    local_vertex:
        Inverse map ``global vertex id -> local vertex id``.
    edge_ids:
        Global edge ids of the region's internal edges, ascending; local
        edge ``j`` is ``edge_ids[j]``.
    requests:
        The region's intra-region requests with terminals relabeled to
        local ids, in ascending global declaration order (so shard-local
        request indices order exactly like the global indices they map to).
    request_indices:
        Global request indices aligned with :attr:`requests`.
    """

    region: int
    graph: CapacitatedGraph | None
    vertices: np.ndarray
    local_vertex: dict[int, int]
    edge_ids: np.ndarray
    requests: list[Request] = field(default_factory=list)
    request_indices: list[int] = field(default_factory=list)

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def to_global_vertices(self, local_path: tuple[int, ...]) -> tuple[int, ...]:
        vertices = self.vertices
        return tuple(int(vertices[v]) for v in local_path)

    def to_global_edges(self, local_edges: tuple[int, ...]) -> tuple[int, ...]:
        edge_ids = self.edge_ids
        return tuple(int(edge_ids[e]) for e in local_edges)


def _region_shard(
    instance: UFPInstance, partition: GraphPartition, region: int
) -> RegionShard:
    graph = instance.graph
    verts = partition.region_vertices(region)
    eids = partition.region_edge_ids(region)
    local_vertex = {int(g): i for i, g in enumerate(verts.tolist())}
    if eids.size == 0:
        subgraph = None
    else:
        disabled = graph.disabled_edges
        edges = []
        disabled_local = []
        for local_id, eid in enumerate(eids.tolist()):
            u, v = graph.edge_endpoints(eid)
            edges.append((local_vertex[u], local_vertex[v], graph.edge_capacity(eid)))
            if eid in disabled:
                disabled_local.append(local_id)
        subgraph = CapacitatedGraph(
            len(verts),
            edges,
            directed=graph.directed,
            disabled_edges=disabled_local,
        )
    return RegionShard(
        region=region,
        graph=subgraph,
        vertices=verts,
        local_vertex=local_vertex,
        edge_ids=eids,
    )


def build_shards(
    instance: UFPInstance, partition: GraphPartition, intra: list[list[int]]
) -> list[RegionShard]:
    """Cut ``instance`` along ``partition`` into region shards.

    ``intra[r]`` lists the global indices of region ``r``'s requests, as
    returned by :meth:`GraphPartition.split_requests`; each shard gets its
    region's requests installed.
    """
    shards = [
        _region_shard(instance, partition, region)
        for region in range(partition.num_regions)
    ]
    for region, indices in enumerate(intra):
        shard = shards[region]
        local_vertex = shard.local_vertex
        for idx in indices:
            request = instance.requests[idx]
            shard.requests.append(
                Request(
                    source=local_vertex[request.source],
                    target=local_vertex[request.target],
                    demand=request.demand,
                    value=request.value,
                    name=request.name,
                )
            )
            shard.request_indices.append(idx)
    return shards
