"""Region partitions of a capacitated graph.

The partitioned solver (:mod:`repro.partition`) cuts the substrate into
vertex regions and runs one pricing-engine shard per region, so this module
owns everything that is purely *topological* about that cut:

* :class:`GraphPartition` — a validated assignment of every vertex to one
  of ``k`` regions, with derived views (per-region vertex/edge sets, the
  cut-edge set) computed lazily and cached.
* Partitioners — :func:`single_region_partition` (the trivial cut used by
  the differential harness), :func:`multi_region_partition` (the natural
  contiguous clusters of :func:`~repro.graphs.generators.multi_region_topology`),
  and :func:`bfs_partition`, a deterministic seeded multi-source BFS
  grower with an optional local min-cut refinement sweep for arbitrary
  graphs.

Everything in this module is deterministic: the same graph, labels and
seed always produce the same partition, which the bit-identity contract of
the partitioned solver relies on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError
from repro.graphs.graph import CapacitatedGraph
from repro.utils.prng import ensure_rng

__all__ = [
    "GraphPartition",
    "single_region_partition",
    "multi_region_partition",
    "bfs_partition",
]


class GraphPartition:
    """An assignment of every vertex of ``graph`` to one of ``k`` regions.

    Parameters
    ----------
    graph:
        The substrate being cut.
    labels:
        Length-``n`` integer array; ``labels[v]`` is the region of vertex
        ``v``.  Regions must be exactly ``0 .. k-1`` with every region
        non-empty.

    Notes
    -----
    An edge is *intra-region* when both endpoints share a region and a
    *cut edge* otherwise.
    Disabled edges still belong to their (cut or intra) set — edge-id
    alignment across substrate mutations matters more than excluding them
    here, and routing never sees them anyway.
    """

    __slots__ = (
        "_graph",
        "_labels",
        "_k",
        "_tails",
        "_heads",
        "_cut_edge_ids",
        "_region_vertices",
        "_region_edge_ids",
    )

    def __init__(
        self, graph: CapacitatedGraph, labels: Sequence[int] | np.ndarray
    ) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (graph.num_vertices,):
            raise InvalidInstanceError(
                f"labels must have shape ({graph.num_vertices},), got {labels.shape}"
            )
        if labels.size == 0:
            raise InvalidInstanceError("cannot partition an empty graph")
        k = int(labels.max()) + 1
        if labels.min() < 0:
            raise InvalidInstanceError("region labels must be non-negative")
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            raise InvalidInstanceError(
                f"region {empty} is empty; labels must cover 0..k-1 contiguously"
            )
        self._graph = graph
        self._labels = labels
        self._k = k
        self._tails = graph.tails
        self._heads = graph.heads
        self._cut_edge_ids: np.ndarray | None = None
        self._region_vertices: tuple[np.ndarray, ...] | None = None
        self._region_edge_ids: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------ #
    # Basic views
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CapacitatedGraph:
        return self._graph

    @property
    def labels(self) -> np.ndarray:
        """Read-only region label per vertex."""
        view = self._labels.view()
        view.flags.writeable = False
        return view

    @property
    def num_regions(self) -> int:
        return self._k

    # ------------------------------------------------------------------ #
    # Derived sets (lazy, cached)
    # ------------------------------------------------------------------ #
    @property
    def cut_edge_ids(self) -> np.ndarray:
        """Edge ids whose endpoints lie in different regions (ascending)."""
        if self._cut_edge_ids is None:
            self._cut_edge_ids = np.flatnonzero(
                self._labels[self._tails] != self._labels[self._heads]
            ).astype(np.int64)
        return self._cut_edge_ids

    @property
    def num_cut_edges(self) -> int:
        return int(self.cut_edge_ids.size)

    def region_vertices(self, region: int) -> np.ndarray:
        """Global vertex ids of a region, ascending (the shard's local
        vertex ``i`` is ``region_vertices(r)[i]`` — order-preserving
        relabeling keeps Dijkstra tie-breaking consistent with the global
        graph)."""
        if self._region_vertices is None:
            self._region_vertices = tuple(
                np.flatnonzero(self._labels == r).astype(np.int64)
                for r in range(self._k)
            )
        return self._region_vertices[region]

    def region_edge_ids(self, region: int) -> np.ndarray:
        """Global edge ids internal to a region, ascending (the shard's
        local edge ``j`` is ``region_edge_ids(r)[j]``)."""
        if self._region_edge_ids is None:
            tl = self._labels[self._tails]
            hl = self._labels[self._heads]
            intra = tl == hl
            self._region_edge_ids = tuple(
                np.flatnonzero(intra & (tl == r)).astype(np.int64)
                for r in range(self._k)
            )
        return self._region_edge_ids[region]

    def split_requests(self, requests: Sequence) -> tuple[list[list[int]], list[int]]:
        """Split request indices into per-region intra lists and a cross list.

        Returns ``(intra, cross)`` where ``intra[r]`` holds the indices of
        requests whose source and target both lie in region ``r`` (ascending,
        so shard-local request order matches global declaration order) and
        ``cross`` the indices whose terminals straddle regions.
        """
        intra: list[list[int]] = [[] for _ in range(self._k)]
        cross: list[int] = []
        labels = self._labels
        for idx, request in enumerate(requests):
            rs = int(labels[request.source])
            rt = int(labels[request.target])
            if rs == rt:
                intra[rs].append(idx)
            else:
                cross.append(idx)
        return intra, cross

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphPartition(n={self._graph.num_vertices}, k={self._k}, "
            f"cut={self.num_cut_edges})"
        )


# ---------------------------------------------------------------------- #
# Partitioners
# ---------------------------------------------------------------------- #
def single_region_partition(graph: CapacitatedGraph) -> GraphPartition:
    """The trivial 1-region partition (no cut edges, one shard == the
    global graph); the differential harness pins the partitioned solver to
    the global one through it."""
    return GraphPartition(graph, np.zeros(graph.num_vertices, dtype=np.int64))


def multi_region_partition(
    graph: CapacitatedGraph,
    num_regions: int,
    cores_per_region: int,
    leaves_per_core: int,
) -> GraphPartition:
    """The natural clusters of a matching
    :func:`~repro.graphs.generators.multi_region_topology` call.

    Region ``r`` occupies the contiguous block of
    ``cores_per_region * (1 + leaves_per_core)`` vertices starting at
    ``r * block`` (cores first) — exactly the generator's layout, so the
    cut-edge set is precisely the backbone links.
    """
    block = int(cores_per_region) * (1 + int(leaves_per_core))
    expected = int(num_regions) * block
    if graph.num_vertices != expected:
        raise InvalidInstanceError(
            f"graph has {graph.num_vertices} vertices but a "
            f"{num_regions}x({cores_per_region} cores, {leaves_per_core} "
            f"leaves/core) layout needs {expected}"
        )
    labels = np.arange(graph.num_vertices, dtype=np.int64) // block
    return GraphPartition(graph, labels)


def _undirected_neighbors(graph: CapacitatedGraph) -> list[list[int]]:
    """Per-vertex neighbor lists over live edges, ignoring orientation
    (region growing treats the substrate as a connectivity structure)."""
    neighbors: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    disabled = graph.disabled_edges
    for eid, (u, v, _cap) in enumerate(graph.edge_list()):
        if eid in disabled:
            continue
        neighbors[u].append(v)
        neighbors[v].append(u)
    return neighbors


def bfs_partition(
    graph: CapacitatedGraph,
    num_regions: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> GraphPartition:
    """A deterministic seeded multi-source BFS partition for arbitrary graphs.

    ``num_regions`` seed vertices are drawn without replacement from
    ``seed`` and sorted (region ``i`` grows from the ``i``-th smallest seed
    vertex, so region numbering is independent of draw order); regions then
    expand one BFS layer per round in round-robin region order, claiming
    unassigned vertices in adjacency order.  Vertices unreachable from
    every seed are assigned round-robin by vertex id.  One local sweep then
    moves border vertices to the neighboring region that most reduces the
    cut size (a deterministic one-vertex min-cut refinement — ties keep the
    current region, moves never empty a region), which tightens seeded cuts
    on graphs without natural blocks.
    """
    n = graph.num_vertices
    k = int(num_regions)
    if not 1 <= k <= n:
        raise InvalidInstanceError(f"num_regions must lie in [1, {n}], got {k}")
    rng = ensure_rng(seed)
    seeds = np.sort(rng.choice(n, size=k, replace=False))
    labels = np.full(n, -1, dtype=np.int64)
    neighbors = _undirected_neighbors(graph)
    frontiers: list[list[int]] = []
    for region, vertex in enumerate(seeds):
        labels[vertex] = region
        frontiers.append([int(vertex)])
    while any(frontiers):
        for region in range(k):
            grown: list[int] = []
            for u in frontiers[region]:
                for v in neighbors[u]:
                    if labels[v] < 0:
                        labels[v] = region
                        grown.append(v)
            frontiers[region] = grown
    unreached = np.flatnonzero(labels < 0)
    for position, vertex in enumerate(unreached):
        labels[vertex] = position % k
    if k > 1:
        _refine_once(labels, neighbors, k)
    return GraphPartition(graph, labels)


def _refine_once(labels: np.ndarray, neighbors: list[list[int]], k: int) -> None:
    """One deterministic refinement sweep, in place."""
    sizes = np.bincount(labels, minlength=k)
    for v in range(labels.size):
        current = int(labels[v])
        if sizes[current] <= 1 or not neighbors[v]:
            continue
        tally: dict[int, int] = {}
        for u in neighbors[v]:
            lab = int(labels[u])
            tally[lab] = tally.get(lab, 0) + 1
        here = tally.get(current, 0)
        # Strictly-better target, lowest region id on ties among targets.
        best_region, best_count = current, here
        for lab in sorted(tally):
            if tally[lab] > best_count:
                best_region, best_count = lab, tally[lab]
        if best_region != current:
            labels[v] = best_region
            sizes[current] -= 1
            sizes[best_region] += 1
