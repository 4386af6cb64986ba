"""Allocations: the output of an unsplittable-flow algorithm.

An :class:`Allocation` is the set ``W`` of (request, path) pairs produced by
an algorithm, in selection order.  It knows how to compute edge loads, verify
feasibility against the capacities and report its total value — the quantity
every experiment compares against an optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import InfeasibleAllocationError, InvalidInstanceError
from repro.flows.instance import UFPInstance
from repro.flows.request import Request
from repro.graphs.graph import CapacitatedGraph
from repro.graphs.paths import validate_path
from repro.types import RunStats

__all__ = ["RoutedRequest", "Allocation", "edge_loads"]


@dataclass(frozen=True)
class RoutedRequest:
    """One selected request together with the path that routes it.

    Attributes
    ----------
    request_index:
        Index of the request in the instance's request list.
    request:
        The request object as declared to the algorithm.
    vertices:
        The vertex sequence of the routing path (``s_r`` first, ``t_r`` last).
    edge_ids:
        The edge ids of the path, aligned with consecutive vertex pairs.
    copies:
        How many times the request is satisfied along this path — always 1
        for the plain problem, possibly larger for the *with repetitions*
        variant (Section 5).
    """

    request_index: int
    request: Request
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    copies: int = 1

    @property
    def value(self) -> float:
        """Total value contributed: ``copies * v_r``."""
        return self.copies * self.request.value

    @property
    def demand(self) -> float:
        return self.request.demand


def edge_loads(
    graph: CapacitatedGraph,
    routed: Iterable[RoutedRequest],
) -> np.ndarray:
    """Total demand routed through every edge, as an array indexed by edge id.

    Vectorized as one ``np.bincount`` over the concatenated per-path edge-id
    arrays (this runs after every solve and inside every property test, so
    the nested Python loop it replaces was a fixed tax on the whole suite).
    ``bincount`` accumulates its weights in input order — item by item, edge
    by edge — so the result is bit-identical to the sequential loop.
    """
    routed = list(routed)
    if not routed:
        return np.zeros(graph.num_edges, dtype=np.float64)
    ids = np.concatenate(
        [np.asarray(item.edge_ids, dtype=np.int64) for item in routed]
    )
    demands = np.concatenate(
        [
            np.full(len(item.edge_ids), item.copies * item.request.demand)
            for item in routed
        ]
    )
    return np.bincount(ids, weights=demands, minlength=graph.num_edges)


@dataclass
class Allocation:
    """The outcome of running an unsplittable-flow algorithm on an instance.

    Attributes
    ----------
    instance:
        The instance (as declared) the allocation was computed for.
    routed:
        Selected (request, path) pairs in selection order.
    stats:
        Execution statistics of the producing algorithm.
    algorithm:
        Human-readable name of the algorithm that produced the allocation.
    """

    instance: UFPInstance
    routed: list[RoutedRequest] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)
    algorithm: str = ""

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_paths(
        cls,
        instance: UFPInstance,
        paths: Sequence[tuple[int, Sequence[int]]],
        *,
        algorithm: str = "",
        copies: Sequence[int] | None = None,
        stats: RunStats | None = None,
    ) -> "Allocation":
        """Build an allocation from ``(request_index, vertex_path)`` pairs.

        Every path is validated against the graph and the request terminals;
        feasibility against capacities is *not* checked here — call
        :meth:`validate` for that.
        """
        routed: list[RoutedRequest] = []
        for pos, (idx, vertex_path) in enumerate(paths):
            if not 0 <= idx < instance.num_requests:
                raise InvalidInstanceError(f"request index {idx} out of range")
            request = instance.requests[idx]
            edge_ids = validate_path(
                instance.graph,
                vertex_path,
                source=request.source,
                target=request.target,
            )
            reps = 1 if copies is None else int(copies[pos])
            if reps < 1:
                raise InvalidInstanceError("copies must be >= 1")
            routed.append(
                RoutedRequest(
                    request_index=idx,
                    request=request,
                    vertices=tuple(int(v) for v in vertex_path),
                    edge_ids=edge_ids,
                    copies=reps,
                )
            )
        return cls(
            instance=instance,
            routed=routed,
            stats=stats or RunStats(),
            algorithm=algorithm,
        )

    @classmethod
    def empty(cls, instance: UFPInstance, *, algorithm: str = "") -> "Allocation":
        """An allocation that selects nothing."""
        return cls(instance=instance, routed=[], algorithm=algorithm)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def value(self) -> float:
        """Total value of the allocation, ``sum_{(r, p) in W} copies * v_r``."""
        return float(sum(item.value for item in self.routed))

    @property
    def num_selected(self) -> int:
        """Number of distinct requests selected at least once."""
        return len(self.selected_indices())

    def selected_indices(self) -> set[int]:
        """Indices of selected requests."""
        return {item.request_index for item in self.routed}

    def is_selected(self, request_index: int) -> bool:
        return request_index in self.selected_indices()

    def routed_for(self, request_index: int) -> list[RoutedRequest]:
        """All routed entries of one request (more than one only with repetitions)."""
        return [item for item in self.routed if item.request_index == request_index]

    def edge_loads(self) -> np.ndarray:
        """Demand routed through every edge."""
        return edge_loads(self.instance.graph, self.routed)

    def edge_utilization(self) -> np.ndarray:
        """Per-edge load divided by capacity."""
        caps = self.instance.graph.capacities
        loads = self.edge_loads()
        return np.divide(loads, caps, out=np.zeros_like(loads), where=caps > 0)

    def max_utilization(self) -> float:
        """The largest load-to-capacity ratio over all edges (0 when empty)."""
        util = self.edge_utilization()
        return float(util.max()) if util.size else 0.0

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def is_feasible(self, *, tolerance: float = 1e-9) -> bool:
        """Whether every edge load is within capacity (up to ``tolerance``)."""
        loads = self.edge_loads()
        caps = self.instance.graph.capacities
        return bool(np.all(loads <= caps + tolerance))

    def validate(self, *, tolerance: float = 1e-9, allow_repetitions: bool = False) -> None:
        """Raise :class:`InfeasibleAllocationError` if the allocation violates
        capacities, routes a request more than once without
        ``allow_repetitions``, or routes along a non-simple path."""
        if not allow_repetitions:
            seen: set[int] = set()
            for item in self.routed:
                if item.request_index in seen or item.copies != 1:
                    raise InfeasibleAllocationError(
                        f"request {item.request_index} routed more than once in a "
                        "no-repetitions allocation"
                    )
                seen.add(item.request_index)
        for item in self.routed:
            if len(set(item.vertices)) != len(item.vertices):
                raise InfeasibleAllocationError(
                    f"request {item.request_index} routed along a non-simple path"
                )
        loads = self.edge_loads()
        caps = self.instance.graph.capacities
        over = np.nonzero(loads > caps + tolerance)[0]
        if over.size:
            eid = int(over[0])
            raise InfeasibleAllocationError(
                f"edge {eid} overloaded: load {loads[eid]:.6g} > capacity "
                f"{caps[eid]:.6g} (and {over.size - 1} more overloaded edges)"
            )

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[RoutedRequest]:
        return iter(self.routed)

    def __len__(self) -> int:
        return len(self.routed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Allocation(algorithm={self.algorithm!r}, selected={self.num_selected}, "
            f"value={self.value:g})"
        )
