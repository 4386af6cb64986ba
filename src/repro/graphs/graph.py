"""CSR-backed capacitated graph.

The graph is the substrate of the B-bounded unsplittable flow problem: a
directed or undirected graph ``G = (V, E)`` where every edge ``e`` carries a
positive capacity ``c_e``.  The primal-dual algorithms of the paper maintain a
dual weight ``y_e`` per edge and repeatedly compute shortest paths under those
weights, so the representation is optimized for

* O(1) access to the out-arcs of a vertex (CSR adjacency),
* per-edge state stored in flat numpy arrays indexed by *edge id*, and
* undirected edges exposed as two arcs that share one edge id (and hence one
  capacity, one dual weight and one load counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError
from repro.types import Direction

__all__ = ["CapacitatedGraph", "EdgeView"]


@dataclass(frozen=True)
class EdgeView:
    """A read-only view of a single logical edge."""

    edge_id: int
    tail: int
    head: int
    capacity: float

    def endpoints(self) -> tuple[int, int]:
        return (self.tail, self.head)


class CapacitatedGraph:
    """An edge-capacitated graph in compressed sparse row (CSR) form.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are the integers ``0 .. n-1``.
    edges:
        Iterable of ``(tail, head, capacity)`` triples.  Parallel edges are
        allowed (they get distinct edge ids); self loops are rejected because
        a simple path never uses them and they only complicate feasibility
        accounting.
    directed:
        When ``True`` each triple is a single arc; when ``False`` each triple
        is an undirected edge traversable in both directions, with both
        traversal directions sharing the same capacity.

    Notes
    -----
    The class is immutable after construction: algorithms keep their mutable
    per-edge state (dual weights ``y_e``, routed flow ``f_e``) in external
    numpy arrays of length :attr:`num_edges`, indexed by edge id.  This keeps
    a single graph shareable across algorithm runs and across threads.
    """

    __slots__ = (
        "_n",
        "_m",
        "_directed",
        "_capacities",
        "_tails",
        "_heads",
        "_indptr",
        "_adj_heads",
        "_adj_edge_ids",
        "_edge_lookup",
        "_disabled",
        "_substrate_cache",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int, float]],
        *,
        directed: bool = True,
        disabled_edges: Iterable[int] = (),
    ) -> None:
        n = int(num_vertices)
        if n <= 0:
            raise InvalidInstanceError("graph must have at least one vertex")
        edge_list = list(edges)
        m = len(edge_list)

        tails = np.empty(m, dtype=np.int64)
        heads = np.empty(m, dtype=np.int64)
        capacities = np.empty(m, dtype=np.float64)
        for eid, (u, v, c) in enumerate(edge_list):
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(
                    f"edge {eid} endpoints ({u}, {v}) out of range for n={n}"
                )
            if u == v:
                raise InvalidInstanceError(f"edge {eid} is a self loop at vertex {u}")
            c = float(c)
            if not np.isfinite(c) or c <= 0.0:
                raise InvalidInstanceError(
                    f"edge {eid} has non-positive or non-finite capacity {c!r}"
                )
            tails[eid] = u
            heads[eid] = v
            capacities[eid] = c

        self._n = n
        self._m = m
        self._directed = bool(directed)
        self._capacities = capacities
        self._tails = tails
        self._heads = heads

        # Disabled edges model substrate faults: the edge keeps its id and
        # capacity (so every edge-id-indexed array stays aligned across
        # substrate mutations) but contributes no arcs — routing simply never
        # sees it.
        disabled = frozenset(int(e) for e in disabled_edges)
        for eid in disabled:
            if not 0 <= eid < m:
                raise InvalidInstanceError(
                    f"disabled edge id {eid} out of range for m={m}"
                )
        self._disabled = disabled

        # Build CSR adjacency over *arcs*.  Undirected edges contribute two
        # arcs sharing the same edge id.
        if self._directed:
            arc_tails = tails
            arc_heads = heads
            arc_edge_ids = np.arange(m, dtype=np.int64)
        else:
            arc_tails = np.concatenate([tails, heads])
            arc_heads = np.concatenate([heads, tails])
            arc_edge_ids = np.concatenate(
                [np.arange(m, dtype=np.int64), np.arange(m, dtype=np.int64)]
            )
        if disabled:
            keep = ~np.isin(arc_edge_ids, np.fromiter(sorted(disabled), dtype=np.int64))
            arc_tails = arc_tails[keep]
            arc_heads = arc_heads[keep]
            arc_edge_ids = arc_edge_ids[keep]

        order = np.argsort(arc_tails, kind="stable")
        sorted_tails = arc_tails[order]
        self._adj_heads = arc_heads[order]
        self._adj_edge_ids = arc_edge_ids[order]
        counts = np.bincount(sorted_tails, minlength=n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

        # Lookup of (u, v) -> list of edge ids, respecting orientation for
        # directed graphs and treating (u, v) == (v, u) for undirected ones.
        # Disabled edges are excluded: has_edge/edge_ids_between answer
        # routability questions.
        lookup: dict[tuple[int, int], list[int]] = {}
        for eid in range(m):
            if eid in disabled:
                continue
            u, v = int(tails[eid]), int(heads[eid])
            keys = [(u, v)] if self._directed else [(u, v), (v, u)]
            for key in keys:
                lookup.setdefault(key, []).append(eid)
        self._edge_lookup = lookup

        # Lazily-populated cache of derived, immutable artifacts (the
        # Dijkstra loop's arc tuples, the Bellman-Ford arc list, shortest
        # path trees under the initial dual weights 1/c).  The graph itself is
        # immutable, so everything derived purely from its topology and
        # capacities can be computed once and shared across algorithm runs.
        self._substrate_cache = {}

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of logical edges ``m`` (an undirected edge counts once)."""
        return self._m

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def direction(self) -> Direction:
        return Direction.DIRECTED if self._directed else Direction.UNDIRECTED

    @property
    def capacities(self) -> np.ndarray:
        """Read-only array of edge capacities indexed by edge id."""
        view = self._capacities.view()
        view.flags.writeable = False
        return view

    @property
    def tails(self) -> np.ndarray:
        """Read-only array of edge tails (as constructed) indexed by edge id."""
        view = self._tails.view()
        view.flags.writeable = False
        return view

    @property
    def heads(self) -> np.ndarray:
        """Read-only array of edge heads (as constructed) indexed by edge id."""
        view = self._heads.view()
        view.flags.writeable = False
        return view

    @property
    def min_capacity(self) -> float:
        """``B = min_e c_e`` — the capacity bound of the instance."""
        if self._m == 0:
            raise InvalidInstanceError("graph has no edges, B is undefined")
        return float(self._capacities.min())

    @property
    def max_capacity(self) -> float:
        if self._m == 0:
            raise InvalidInstanceError("graph has no edges")
        return float(self._capacities.max())

    # ------------------------------------------------------------------ #
    # Adjacency / lookup
    # ------------------------------------------------------------------ #
    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer over arcs (length ``n + 1``)."""
        return self._indptr

    @property
    def adjacency_heads(self) -> np.ndarray:
        """CSR array of arc head vertices."""
        return self._adj_heads

    @property
    def adjacency_edge_ids(self) -> np.ndarray:
        """CSR array mapping each arc to its logical edge id."""
        return self._adj_edge_ids

    def out_arcs(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(heads, edge_ids)`` of the arcs leaving ``vertex``."""
        lo, hi = self._indptr[vertex], self._indptr[vertex + 1]
        return self._adj_heads[lo:hi], self._adj_edge_ids[lo:hi]

    def out_degree(self, vertex: int) -> int:
        return int(self._indptr[vertex + 1] - self._indptr[vertex])

    @property
    def substrate_cache(self) -> dict:
        """Mutable scratch dictionary for derived, immutable artifacts.

        The graph never changes after construction, so any value derived
        purely from its topology / capacities (shortest-path trees under the
        fixed initial weights ``1/c``, scratch adjacency encodings, ...) may
        be memoized here and shared across algorithm runs.  Callers must only
        store values that are functions of the graph alone plus their key.
        """
        return self._substrate_cache

    def bellman_ford_arcs(self) -> list[tuple[int, int, int]]:
        """The arc list ``[(tail, head, edge_id), ...]`` used by Bellman-Ford.

        Undirected edges contribute both orientations.  Cached on the graph so
        repeated oracle calls (differential tests sweep many sources) do not
        rebuild it from :meth:`edge_endpoints` every time.
        """
        arcs = self._substrate_cache.get("bellman_ford_arcs")
        if arcs is None:
            tails = self._tails.tolist()
            heads = self._heads.tolist()
            live = [e for e in range(self._m) if e not in self._disabled]
            arcs = [(tails[e], heads[e], e) for e in live]
            if not self._directed:
                arcs.extend((heads[e], tails[e], e) for e in live)
            self._substrate_cache["bellman_ford_arcs"] = arcs
        return arcs

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """Return the ``(tail, head)`` pair of a logical edge as constructed."""
        return int(self._tails[edge_id]), int(self._heads[edge_id])

    def edge_capacity(self, edge_id: int) -> float:
        return float(self._capacities[edge_id])

    def edge_ids_between(self, u: int, v: int) -> tuple[int, ...]:
        """Return all edge ids connecting ``u`` to ``v`` (orientation-aware
        for directed graphs, symmetric for undirected ones)."""
        return tuple(self._edge_lookup.get((int(u), int(v)), ()))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._edge_lookup.get((int(u), int(v))))

    def edges(self) -> Iterator[EdgeView]:
        """Iterate over logical edges as :class:`EdgeView` objects."""
        for eid in range(self._m):
            yield EdgeView(
                edge_id=eid,
                tail=int(self._tails[eid]),
                head=int(self._heads[eid]),
                capacity=float(self._capacities[eid]),
            )

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Return the edge list ``[(tail, head, capacity), ...]``."""
        return [
            (int(self._tails[e]), int(self._heads[e]), float(self._capacities[e]))
            for e in range(self._m)
        ]

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    @property
    def disabled_edges(self) -> frozenset[int]:
        """Edge ids excluded from routing (substrate faults).  Disabled
        edges keep their id and capacity so edge-id-indexed state stays
        aligned, but contribute no arcs to the adjacency."""
        return self._disabled

    def with_capacities(
        self,
        capacities: Sequence[float] | np.ndarray,
        *,
        disabled_edges: Iterable[int] | None = None,
    ) -> "CapacitatedGraph":
        """Return a copy of this graph with the given per-edge capacities.

        ``disabled_edges`` replaces the disabled set of the copy; ``None``
        (the default) inherits this graph's.  The copy starts with a fresh
        :attr:`substrate_cache`, so nothing derived from the old substrate
        (shortest-path trees, CSR scratch encodings) can leak across the
        mutation.
        """
        capacities = np.asarray(capacities, dtype=np.float64)
        if capacities.shape != (self._m,):
            raise InvalidInstanceError(
                f"expected {self._m} capacities, got shape {capacities.shape}"
            )
        edges = [
            (int(self._tails[e]), int(self._heads[e]), float(capacities[e]))
            for e in range(self._m)
        ]
        return CapacitatedGraph(
            self._n,
            edges,
            directed=self._directed,
            disabled_edges=self._disabled if disabled_edges is None else disabled_edges,
        )

    def with_disabled_edges(self, disabled_edges: Iterable[int]) -> "CapacitatedGraph":
        """Return a copy with the disabled-edge set *replaced* by the given
        ids (pass ``()`` to re-enable everything).  Capacities are kept."""
        return self.with_capacities(self._capacities, disabled_edges=disabled_edges)

    def scaled(self, factor: float) -> "CapacitatedGraph":
        """Return a copy with every capacity multiplied by ``factor``."""
        if factor <= 0:
            raise InvalidInstanceError("scale factor must be positive")
        return self.with_capacities(self._capacities * float(factor))

    # ------------------------------------------------------------------ #
    # Dunder / misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return (
            f"CapacitatedGraph(n={self._n}, m={self._m}, {kind}, "
            f"B={self.min_capacity if self._m else float('nan'):g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapacitatedGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._directed == other._directed
            and self._disabled == other._disabled
            and np.array_equal(self._tails, other._tails)
            and np.array_equal(self._heads, other._heads)
            and np.allclose(self._capacities, other._capacities)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._m, self._directed))
