"""Shortest path computations under mutable per-edge weights.

The primal-dual algorithms of the paper (``Bounded-UFP`` and
``Bounded-UFP-Repeat``) repeatedly ask for the shortest ``s_r -> t_r`` path
under the *current* dual weights ``y_e >= 0``.  Weights are always
non-negative, so Dijkstra with a binary heap is correct; Bellman-Ford is
provided as an independent oracle for differential testing.

One compute path
----------------
Every shortest-path tree of the program — the pricing engine's, the
partition shards' and :func:`single_source_dijkstra`'s — comes from
:func:`shortest_path_tree`, which picks its implementation by graph size:

* on graphs with at least :data:`C_TREE_MIN_VERTICES` vertices it runs
  ``scipy.sparse.csgraph.dijkstra`` for the one source and rebuilds the
  parents with numpy (see below);
* on smaller graphs, where one scipy call costs more than the whole Python
  loop, it runs :func:`dijkstra_lists`, an array-heap Dijkstra over flat
  Python lists (the CSR adjacency pre-extracted once per graph via
  :meth:`~repro.graphs.graph.CapacitatedGraph.csr_lists`).

Both return the same :class:`CompactTree`, bit for bit.  The loop breaks
ties like :func:`reference_dijkstra`, the differential-testing oracle: heap
entries are ``(dist, vertex)`` tuples (so equal distances settle in vertex
order), and a relaxation only overwrites a parent on a strict improvement
(so the first arc, in CSR order from the earliest-settled tail, that
attains the final distance is the parent).

Why the C tree has the loop's bits
----------------------------------
*Distances.*  With non-negative weights, ``x -> fl(x + w)`` is monotone and
never decreases ``x``, so any correct Dijkstra computes, at every vertex,
the minimum over all paths of the left-to-right rounded path sum — one
well-defined double, whatever the heap or the tie-breaking.

*Parents.*  The loop's parent of ``v`` is the first relaxation, tails in
settle order and arcs in CSR order within a tail, whose sum equals
``dist[v]`` bit for bit.  Call an arc *attaining* when its sum equals
``dist[head]`` and ``dist[tail] < dist[head]``.  When every reached vertex
has an attaining arc, each one is in the heap at its final distance before
any vertex at that distance settles, so vertices settle in ``(dist,
vertex)`` order, and attaining arcs relax ``v`` before any arc whose tail
is as far as ``v``.  CSR groups arcs by ascending tail, so the winner is the
attaining arc first in ``(dist[tail], CSR position)`` order: the only one
when there are no ties, else the first of its head's run after one stable
sort.

*Fallbacks.*  The C path needs all weights ``> 0`` on the graph's arcs
and no parallel arcs (scipy's CSR canonicalization sums duplicate
entries).  A reached vertex without an attaining arc — reached only through
a weight absorbed by rounding, ``fl(d + w) == d`` — leaves the settle order
unprovable, and the tree is recomputed by the loop.  Outside these cases
the two are equal by the argument above; ``tests/test_tree_parity.py``
checks it array for array.
"""

from __future__ import annotations

import copy
import heapq
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import NoPathError
from repro.graphs.graph import CapacitatedGraph

__all__ = [
    "C_TREE_MIN_VERTICES",
    "CompactTree",
    "ShortestPathResult",
    "dijkstra_lists",
    "shortest_path_tree",
    "single_source_dijkstra",
    "reference_dijkstra",
    "shortest_path",
    "bellman_ford",
]

#: Graphs with at least this many vertices get C trees.  Measured per tree
#: under dual-shaped weights on square grids: the loop wins on 36 vertices,
#: the two are even on 64 and the C path wins from 100 on (about 2x, and
#: 3.5x or more on the 360-vertex ISP composite; the loop and C rows of
#: ``benchmarks/bench_micro_primitives.py`` bracket the threshold).  The
#: campaign, service and auction graphs have at most 36 vertices.
C_TREE_MIN_VERTICES = 100

_CSGRAPH_KEY = "shortest_path/csgraph_arrays"


@dataclass(frozen=True)
class ShortestPathResult:
    """The shortest-path tree of one source vertex.

    Attributes
    ----------
    source:
        The source vertex the tree is rooted at.
    distances:
        Array of length ``n``; ``distances[v]`` is the weight of the shortest
        path from ``source`` to ``v`` (``inf`` when unreachable).
    parent_vertex:
        ``parent_vertex[v]`` is the predecessor of ``v`` on its shortest path
        (``-1`` for the source and unreachable vertices).
    parent_edge:
        ``parent_edge[v]`` is the edge id used to enter ``v`` (``-1`` when
        not applicable).
    """

    source: int
    distances: np.ndarray
    parent_vertex: np.ndarray
    parent_edge: np.ndarray

    def reachable(self, target: int) -> bool:
        return bool(np.isfinite(self.distances[target]))

    def distance(self, target: int) -> float:
        return float(self.distances[target])

    def path_to(self, target: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Return ``(vertex_path, edge_id_path)`` from the source to ``target``.

        Raises :class:`~repro.exceptions.NoPathError` if ``target`` is not
        reachable from the source.
        """
        target = int(target)
        if not self.reachable(target):
            raise NoPathError(f"vertex {target} unreachable from {self.source}")
        vertices: list[int] = [target]
        edges: list[int] = []
        v = target
        while v != self.source:
            e = int(self.parent_edge[v])
            p = int(self.parent_vertex[v])
            edges.append(e)
            vertices.append(p)
            v = p
        vertices.reverse()
        edges.reverse()
        return tuple(vertices), tuple(edges)


class CompactTree:
    """A shortest-path tree in the form the hot paths keep it.

    ``dist`` is an ``array('d')`` and the parents are ``array('i')``: their
    items index as Python ``float`` and ``int`` (no numpy scalar boxing) at
    a quarter of a list's memory.  ``edge_mask`` has bit ``e`` set for
    every parent edge ``e``: the pricing engine evicts a cached tree when
    its mask meets a committed path.  Trees are immutable once built, so
    caches and checkpoints share them by reference.
    """

    __slots__ = ("source", "dist", "parent_vertex", "parent_edge", "edge_mask")

    def __init__(self, source, dist, parent_vertex, parent_edge, edge_mask):
        self.source = source
        self.dist = dist
        self.parent_vertex = parent_vertex
        self.parent_edge = parent_edge
        self.edge_mask = edge_mask

    def path_to(self, target: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(vertex_path, edge_id_path)`` from the source to a reachable
        ``target``."""
        vertices = [target]
        edges: list[int] = []
        v = target
        parent_edge = self.parent_edge
        parent_vertex = self.parent_vertex
        while v != self.source:
            edges.append(parent_edge[v])
            v = parent_vertex[v]
            vertices.append(v)
        vertices.reverse()
        edges.reverse()
        return tuple(vertices), tuple(edges)


def _validate_weights(graph: CapacitatedGraph, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ValueError(
            f"weights must have shape ({graph.num_edges},), got {weights.shape}"
        )
    if graph.num_edges and float(weights.min()) < 0.0:
        raise ValueError("Dijkstra requires non-negative weights")
    return weights


def dijkstra_lists(
    n: int,
    indptr: list[int],
    adj_heads: list[int],
    adj_edge_ids: list[int],
    w: list[float],
    source: int,
    targets: set[int] | None = None,
) -> tuple[list[float], list[int], list[int]]:
    """The Dijkstra loop over flat Python lists.

    Returns ``(dist, parent_vertex, parent_edge)`` as plain lists
    (unreachable vertices carry ``inf`` / ``-1``).  With ``targets`` the
    loop stops once all of them are settled: only their entries are then
    exact, other vertices may keep tentative values.  Arithmetic and
    tie-breaking are bit-identical to :func:`reference_dijkstra`.
    """
    inf = float("inf")
    dist = [inf] * n
    parent_vertex = [-1] * n
    parent_edge = [-1] * n
    settled = bytearray(n)

    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    # Copy: the early-exit set is drained as targets settle, and callers may
    # reuse theirs across several sources.
    remaining = set(targets) if targets is not None else None

    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for k in range(indptr[u], indptr[u + 1]):
            v = adj_heads[k]
            if settled[v]:
                continue
            nd = d + w[adj_edge_ids[k]]
            if nd < dist[v]:
                dist[v] = nd
                parent_vertex[v] = u
                parent_edge[v] = adj_edge_ids[k]
                heappush(heap, (nd, v))

    return dist, parent_vertex, parent_edge


def _csgraph_arrays(graph: CapacitatedGraph):
    """The graph's arcs as a scipy CSR template plus ``(tails, heads, edge
    ids)`` for the parent rebuild, cached on the graph; ``None`` when the
    graph has parallel arcs."""
    cache = graph.substrate_cache
    if _CSGRAPH_KEY not in cache:
        n = graph.num_vertices
        indptr = graph.indptr
        heads = graph.adjacency_heads
        tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        pairs = tails * n + heads
        if heads.size == 0 or np.unique(pairs).size < pairs.size:
            cache[_CSGRAPH_KEY] = None
        else:
            template = csr_matrix(
                (np.ones(heads.size), heads.astype(np.int32), indptr.astype(np.int32)),
                shape=(n, n),
            )
            cache[_CSGRAPH_KEY] = (template, tails, heads, graph.adjacency_edge_ids)
    return cache[_CSGRAPH_KEY]


def _csgraph_tree(graph, weights, source, arrays) -> CompactTree | None:
    """The C tree of ``source``, or ``None`` when its parents are not
    provably the loop's (see the module docstring)."""
    # Imported on the first C tree, so programs whose graphs all stay on
    # the loop never load scipy's graph module.
    from scipy.sparse.csgraph import dijkstra

    template, tails, heads, eids = arrays
    arc_w = weights[eids]
    if not arc_w.min() > 0.0:
        return None
    # A shallow copy shares the template's index arrays and skips the
    # constructor's format checks; only the weights are per call.
    matrix = copy.copy(template)
    matrix.data = arc_w
    dist = dijkstra(matrix, directed=True, indices=source)

    tail_d = dist[tails]
    head_d = dist[heads]
    # Attaining arcs with dist[tail] < dist[head] (so both are finite).  An
    # arc attaining only by absorption (dist[tail] == dist[head]) is left
    # out, so a vertex reached only through one gets no parent and the count
    # check below falls back.
    parent_arcs = np.flatnonzero((tail_d + arc_w == head_d) & (tail_d < head_d))
    reached = np.count_nonzero(dist != np.inf) - 1  # the source has no parent
    if parent_arcs.size != reached:
        # Ties: stable sort by (head, dist[tail]) keeps CSR order within
        # equal keys, so the first arc of each head's run is the loop's.
        order = parent_arcs[np.lexsort((tail_d[parent_arcs], heads[parent_arcs]))]
        sorted_heads = heads[order]
        first = np.empty(order.size, dtype=bool)
        first[:1] = True
        np.not_equal(sorted_heads[1:], sorted_heads[:-1], out=first[1:])
        parent_arcs = order[first]

    n = graph.num_vertices
    children = heads[parent_arcs]
    parent_vertex = np.full(n, -1, dtype=np.int32)
    parent_vertex[children] = tails[parent_arcs]
    # One parent per reached vertex: none missing, no head twice.
    if np.count_nonzero(parent_vertex >= 0) != reached:
        return None
    parent_edge = np.full(n, -1, dtype=np.int32)
    tree_edges = eids[parent_arcs]
    parent_edge[children] = tree_edges
    used = np.zeros(graph.num_edges, dtype=bool)
    used[tree_edges] = True
    mask = int.from_bytes(np.packbits(used, bitorder="little").tobytes(), "little")
    return CompactTree(
        source,
        array("d", dist.tobytes()),
        array("i", parent_vertex.tobytes()),
        array("i", parent_edge.tobytes()),
        mask,
    )


def shortest_path_tree(
    graph: CapacitatedGraph,
    weights: np.ndarray,
    source: int,
    targets: set[int] | None = None,
    get_weights_list=None,
) -> CompactTree:
    """The shortest-path tree of ``source`` under ``weights`` (float64,
    non-negative, one per edge): a C tree on graphs of at least
    :data:`C_TREE_MIN_VERTICES` vertices, the loop otherwise or when the C
    path cannot prove the loop's parents.

    ``targets`` lets the loop stop early; only the targets' entries are
    then guaranteed exact.  ``get_weights_list``, if given, returns
    ``weights.tolist()`` for the loop — callers that build several trees
    under one weight vector convert it once.
    """
    n = graph.num_vertices
    if n >= C_TREE_MIN_VERTICES:
        arrays = _csgraph_arrays(graph)
        if arrays is not None:
            tree = _csgraph_tree(graph, weights, source, arrays)
            if tree is not None:
                return tree
    indptr, heads, eids = graph.csr_lists()
    w = get_weights_list() if get_weights_list is not None else weights.tolist()
    dist, parent_vertex, parent_edge = dijkstra_lists(
        n, indptr, heads, eids, w, source, targets
    )
    mask = 0
    for eid in parent_edge:
        if eid >= 0:
            mask |= 1 << eid
    return CompactTree(
        source, array("d", dist), array("i", parent_vertex),
        array("i", parent_edge), mask,
    )


def single_source_dijkstra(
    graph: CapacitatedGraph,
    source: int,
    weights: np.ndarray,
    *,
    targets: set[int] | frozenset[int] | None = None,
) -> ShortestPathResult:
    """Dijkstra from ``source`` under non-negative per-edge ``weights``.

    Parameters
    ----------
    graph:
        The capacitated graph (provides CSR adjacency and edge ids).
    source:
        Source vertex.
    weights:
        Array of length ``graph.num_edges`` with the weight of each logical
        edge (undirected edges have one weight used in both directions).
    targets:
        Optional early-exit set: the search may stop once every vertex in
        ``targets`` has been settled.  Only the distances, parents and paths
        of the requested targets are then exact; other vertices may keep
        tentative distances and parents, or ``inf`` when never reached.

    Notes
    -----
    The tree comes from :func:`shortest_path_tree` through the tree hook
    of :mod:`repro.kernels`.  Without ``targets`` it is bit-for-bit
    identical to :func:`reference_dijkstra`; with ``targets`` the two agree
    on the requested targets.
    """
    from repro.kernels import get_kernel

    n = graph.num_vertices
    source = int(source)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    weights = _validate_weights(graph, weights)
    if targets is not None:
        targets = set(int(t) for t in targets)
    tree = get_kernel().dijkstra(graph, weights, source, targets)
    return ShortestPathResult(
        source=source,
        distances=np.asarray(tree.dist, dtype=np.float64),
        parent_vertex=np.asarray(tree.parent_vertex, dtype=np.int64),
        parent_edge=np.asarray(tree.parent_edge, dtype=np.int64),
    )


def reference_dijkstra(
    graph: CapacitatedGraph,
    source: int,
    weights: np.ndarray,
    *,
    targets: set[int] | frozenset[int] | None = None,
) -> ShortestPathResult:
    """The original numpy-indexing Dijkstra, kept as a differential oracle.

    Bit-for-bit equal to :func:`single_source_dijkstra` without
    ``targets``; slower because the relaxation loop boxes a numpy scalar
    per arc.  With ``targets`` it stops once they are all settled, so, as
    there, only the requested targets are exact.
    """
    n = graph.num_vertices
    source = int(source)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    weights = _validate_weights(graph, weights)

    dist = np.full(n, np.inf, dtype=np.float64)
    parent_vertex = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)

    indptr = graph.indptr
    adj_heads = graph.adjacency_heads
    adj_edge_ids = graph.adjacency_edge_ids

    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    remaining = set(int(t) for t in targets) if targets is not None else None

    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        lo, hi = indptr[u], indptr[u + 1]
        heads = adj_heads[lo:hi]
        eids = adj_edge_ids[lo:hi]
        for k in range(heads.shape[0]):
            v = int(heads[k])
            if settled[v]:
                continue
            e = int(eids[k])
            nd = d + float(weights[e])
            if nd < dist[v]:
                dist[v] = nd
                parent_vertex[v] = u
                parent_edge[v] = e
                heapq.heappush(heap, (nd, v))

    return ShortestPathResult(
        source=source,
        distances=dist,
        parent_vertex=parent_vertex,
        parent_edge=parent_edge,
    )


def shortest_path(
    graph: CapacitatedGraph,
    source: int,
    target: int,
    weights: np.ndarray,
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Return ``(vertex_path, edge_id_path, length)`` for one ``s -> t`` pair.

    Raises :class:`~repro.exceptions.NoPathError` when ``target`` is not
    reachable from ``source``.
    """
    result = single_source_dijkstra(graph, source, weights, targets={int(target)})
    if not result.reachable(int(target)):
        raise NoPathError(f"no path from {source} to {target}")
    vertices, edges = result.path_to(int(target))
    return vertices, edges, result.distance(int(target))


def bellman_ford(
    graph: CapacitatedGraph,
    source: int,
    weights: np.ndarray,
) -> ShortestPathResult:
    """Bellman-Ford single-source shortest paths.

    Slower than Dijkstra but independent of the heap implementation — used in
    tests as a differential oracle.  Negative weights are accepted (the
    algorithms never produce them, but the oracle should not assume that);
    negative cycles raise ``ValueError``.
    """
    n = graph.num_vertices
    m = graph.num_edges
    source = int(source)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m,):
        raise ValueError(f"weights must have shape ({m},), got {weights.shape}")

    dist = np.full(n, np.inf, dtype=np.float64)
    parent_vertex = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0

    # The arc list — (tail, head, edge_id), both orientations for undirected
    # graphs — is cached on the graph.
    arcs = graph.bellman_ford_arcs()

    for _ in range(n - 1):
        changed = False
        for u, v, eid in arcs:
            if np.isfinite(dist[u]) and dist[u] + weights[eid] < dist[v] - 1e-15:
                dist[v] = dist[u] + weights[eid]
                parent_vertex[v] = u
                parent_edge[v] = eid
                changed = True
        if not changed:
            break
    else:
        # One more pass to detect negative cycles reachable from the source.
        for u, v, eid in arcs:
            if np.isfinite(dist[u]) and dist[u] + weights[eid] < dist[v] - 1e-9:
                raise ValueError("negative cycle detected")

    return ShortestPathResult(
        source=source,
        distances=dist,
        parent_vertex=parent_vertex,
        parent_edge=parent_edge,
    )
