"""Reasonable iterative path/bundle minimizing algorithms (Definitions 3.9-3.10, 4.3-4.4).

The paper's lower bounds are not about one algorithm but about a *family*:
algorithms that repeatedly pick, among all feasible (request, path) pairs of
unselected requests, one minimizing a "reasonable" priority function — a
function that, on uniform-capacity unit-demand unit-value inputs, never
prefers a longer or more loaded path over a shorter, less loaded one.
``Bounded-UFP`` itself belongs to the family (its priority is the function
``h`` below), and so do natural variants such as the hop-biased ``h1`` and
the product form ``h2`` the paper mentions.

This module provides

* the priority functions ``h``, ``h1``, ``h2`` and the reduced
  uniform-capacity form used in the lower-bound analysis;
* :class:`ReasonableIterativePathMinimizer` — a generic member of the family
  with pluggable priority and tie-breaking, which enumerates candidate simple
  paths explicitly (the lower-bound instances are small and structured, so
  explicit enumeration is cheap);
* :class:`ReasonableIterativeBundleMinimizer` — the auction analogue;
* the adversarial tie-breaking rules used in the proofs of Theorems 3.11,
  3.12 and 4.5.  A lower bound for the family only needs *some* consistent
  tie-breaking to be forced — the paper shows ties can be eliminated
  altogether by subdividing edges (see
  ``directed_staircase(force_tie_break=True)``), and these callables
  reproduce the same adversarial schedule without blowing up the graph.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import networkx as nx
import numpy as np

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import MUCAInstance
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.graphs.generators import to_networkx
from repro.graphs.paths import path_edge_ids
from repro.types import RunStats

__all__ = [
    "PathCandidate",
    "BundleCandidate",
    "PathPriority",
    "BundlePriority",
    "BoundedUFPPriority",
    "HopBiasedPriority",
    "ProductPriority",
    "UnitCapacityPriority",
    "BundleExponentialPriority",
    "ReasonableIterativePathMinimizer",
    "ReasonableIterativeBundleMinimizer",
    "staircase_tie_break",
    "ring7_tie_break",
    "partition_tie_break",
]

#: Relative tolerance within which two priorities count as tied.
_TIE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------- #
# Candidates
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PathCandidate:
    """A feasible (request, path) pair considered in one iteration."""

    request_index: int
    source: int
    target: int
    demand: float
    value: float
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    priority: float = math.nan


@dataclass(frozen=True)
class BundleCandidate:
    """A feasible bid considered in one iteration of the auction variant."""

    bid_index: int
    bundle: tuple[int, ...]
    value: float
    priority: float = math.nan


class PathPriority(Protocol):
    """A priority (``g`` in Definition 3.9) over paths.

    Implementations receive the candidate's demand/value, the edge ids of the
    path, the current per-edge flow ``f_e`` and the capacities ``c_e`` and
    return a float; the algorithm selects a candidate of minimum priority.
    """

    def __call__(
        self,
        demand: float,
        value: float,
        edge_ids: Sequence[int],
        flows: np.ndarray,
        capacities: np.ndarray,
    ) -> float:  # pragma: no cover - protocol
        ...


class BundlePriority(Protocol):
    """A priority over bundles (Definition 4.3)."""

    def __call__(
        self,
        value: float,
        bundle: Sequence[int],
        flows: np.ndarray,
        multiplicities: np.ndarray,
    ) -> float:  # pragma: no cover - protocol
        ...


# ---------------------------------------------------------------------- #
# Priority functions from the paper
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BoundedUFPPriority:
    """The priority minimized by Algorithm 1:
    ``h(p) = (d_p / v_p) * sum_{e in p} (1/c_e) * exp(eps B f_e / c_e)``.

    ``f_e`` is the flow already routed through edge ``e``; with
    ``y_e = (1/c_e) exp(eps B f_e / c_e)`` this is exactly the normalized
    shortest-path objective of the algorithm.
    """

    epsilon: float
    capacity_bound: float

    def __call__(
        self,
        demand: float,
        value: float,
        edge_ids: Sequence[int],
        flows: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        ids = np.asarray(edge_ids, dtype=np.int64)
        caps = capacities[ids]
        weights = np.exp(self.epsilon * self.capacity_bound * flows[ids] / caps) / caps
        return demand / value * float(weights.sum())


@dataclass(frozen=True)
class HopBiasedPriority:
    """``h1(p) = ln(1 + |p|) * h(p)`` — the paper's example of a reasonable
    function mildly biased towards paths with fewer edges."""

    base: BoundedUFPPriority

    def __call__(
        self,
        demand: float,
        value: float,
        edge_ids: Sequence[int],
        flows: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        h = self.base(demand, value, edge_ids, flows, capacities)
        return math.log1p(len(edge_ids)) * h


@dataclass(frozen=True)
class ProductPriority:
    """``h2(p) = (d_p / v_p) * prod_{e in p} (f_e / c_e)`` — the paper's
    second example ("although it is not clear why anyone would like to use
    it"); included to exercise the framework with a very different shape."""

    def __call__(
        self,
        demand: float,
        value: float,
        edge_ids: Sequence[int],
        flows: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        ids = np.asarray(edge_ids, dtype=np.int64)
        ratio = flows[ids] / capacities[ids]
        return demand / value * float(np.prod(ratio))


@dataclass(frozen=True)
class UnitCapacityPriority:
    """The reduced form ``(1/B) * sum_{e in p} exp(eps f_e)`` the paper uses
    when arguing that ``h`` is reasonable (uniform capacities, unit types)."""

    epsilon: float
    capacity_bound: float

    def __call__(
        self,
        demand: float,
        value: float,
        edge_ids: Sequence[int],
        flows: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        ids = np.asarray(edge_ids, dtype=np.int64)
        return float(np.exp(self.epsilon * flows[ids]).sum()) / self.capacity_bound


@dataclass(frozen=True)
class BundleExponentialPriority:
    """The priority minimized by Algorithm 2:
    ``h(s) = (1 / v_s) * sum_{u in s} (1/c_u) * exp(eps B f_u / c_u)``."""

    epsilon: float
    capacity_bound: float

    def __call__(
        self,
        value: float,
        bundle: Sequence[int],
        flows: np.ndarray,
        multiplicities: np.ndarray,
    ) -> float:
        ids = np.asarray(bundle, dtype=np.int64)
        caps = multiplicities[ids]
        weights = np.exp(self.epsilon * self.capacity_bound * flows[ids] / caps) / caps
        return float(weights.sum()) / value


# ---------------------------------------------------------------------- #
# Tie-breaking rules used by the lower-bound proofs
# ---------------------------------------------------------------------- #
TieBreak = Callable[[Sequence[PathCandidate]], PathCandidate]
BundleTieBreak = Callable[[Sequence[BundleCandidate], MUCAInstance], BundleCandidate]


def staircase_tie_break(candidates: Sequence[PathCandidate]) -> PathCandidate:
    """The Theorem 3.11 adversarial rule: among tied candidates pick the one
    whose source index ``i`` is minimal and, within that, whose intermediate
    vertex ``v_j`` has maximal ``j`` (paths of the staircase are always
    ``s_i -> v_j -> t``, so the intermediate vertex is ``vertices[1]``)."""
    return min(candidates, key=lambda c: (c.source, -(c.vertices[1] if len(c.vertices) > 2 else 0)))


def ring7_tie_break(candidates: Sequence[PathCandidate]) -> PathCandidate:
    """The Theorem 3.12 adversarial rule for the Figure 3 instance: among
    tied candidates prefer routing the "detourable" requests
    ``(v1, v3)`` / ``(v4, v6)`` through the hub vertex ``v7`` (id 6), then
    their detour paths, and only then the hub-only requests."""
    hub = 6

    def rank(c: PathCandidate) -> tuple[int, int]:
        detourable = {frozenset((0, 2)), frozenset((3, 5))}
        is_detourable = frozenset((c.source, c.target)) in detourable
        uses_hub = hub in c.vertices[1:-1]
        if is_detourable and uses_hub:
            kind = 0
        elif is_detourable:
            kind = 1
        else:
            kind = 2
        return (kind, c.request_index)

    return min(candidates, key=rank)


def partition_tie_break(
    candidates: Sequence[BundleCandidate], instance: MUCAInstance
) -> BundleCandidate:
    """The Theorem 4.5 adversarial rule: among tied candidates prefer the
    "row" bids (the first type of requests) over the "column" bids.  Row bids
    are recognised by their name prefix in instances built by
    :func:`repro.auctions.lower_bounds.partition_instance`; for other
    instances the rule degrades to picking the lowest bid index."""

    def rank(c: BundleCandidate) -> tuple[int, int]:
        name = instance.bids[c.bid_index].name
        return (0 if name.startswith("row") else 1, c.bid_index)

    return min(candidates, key=rank)


def _tied(feasible: Sequence) -> list:
    """The feasible candidates whose priority equals the least one up to
    ``_TIE_TOLERANCE`` (relative); the tie-break picks among them."""
    best = min(c.priority for c in feasible)
    threshold = best + _TIE_TOLERANCE * max(1.0, abs(best)) + 1e-15
    return [c for c in feasible if c.priority <= threshold]


def _first_candidate(candidates: Sequence[PathCandidate]) -> PathCandidate:
    """Default tie-break: lowest request index, then fewest hops."""
    return min(candidates, key=lambda c: (c.request_index, len(c.edge_ids)))


def _first_bundle(candidates: Sequence[BundleCandidate], _: MUCAInstance) -> BundleCandidate:
    return min(candidates, key=lambda c: c.bid_index)


# ---------------------------------------------------------------------- #
# The generic family members
# ---------------------------------------------------------------------- #
class ReasonableIterativePathMinimizer:
    """A generic *reasonable iterative path minimizing algorithm*.

    Parameters
    ----------
    priority:
        The reasonable function ``g`` to minimize.
    tie_break:
        How to choose among candidates whose priorities are equal up to a
        relative ``1e-9``.  Defaults to lowest request index.
    max_path_hops:
        Cutoff on the number of edges of enumerated simple paths (``None``
        enumerates all simple paths — only do this on small graphs).
    max_paths_per_pair:
        Safety cap on the number of candidate paths kept per
        (source, target) pair.

    Notes
    -----
    Unlike ``Bounded-UFP`` (which prices paths with a shortest-path call and
    stops on the dual budget), the generic member routes greedily until *no
    feasible candidate remains* — exactly the behaviour analysed in the
    lower-bound proofs ("analyzing the case that the algorithm stops when it
    cannot route more requests just affirms the lower bound").
    """

    def __init__(
        self,
        priority: PathPriority,
        *,
        tie_break: TieBreak | None = None,
        max_path_hops: int | None = None,
        max_paths_per_pair: int = 1000,
    ) -> None:
        self.priority = priority
        self.tie_break = tie_break or _first_candidate
        self.max_path_hops = max_path_hops
        self.max_paths_per_pair = int(max_paths_per_pair)

    # .................................................................. #
    def _enumerate_paths(
        self, instance: UFPInstance
    ) -> dict[tuple[int, int], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
        """All simple paths per distinct (source, target) pair, as
        ``(vertex_tuple, edge_id_tuple)`` pairs."""
        graph = instance.graph
        nxg = to_networkx(graph)
        cutoff = self.max_path_hops
        cache: dict[tuple[int, int], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for req in instance.requests:
            key = (req.source, req.target)
            if key in cache:
                continue
            paths: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            try:
                iterator = nx.all_simple_paths(nxg, req.source, req.target, cutoff=cutoff)
                for vertices in iterator:
                    vertices = tuple(int(v) for v in vertices)
                    edges = path_edge_ids(graph, vertices)
                    paths.append((vertices, edges))
                    if len(paths) >= self.max_paths_per_pair:
                        break
            except nx.NetworkXNoPath:  # pragma: no cover - no_path yields empty iterator
                paths = []
            cache[key] = paths
        return cache

    def run(self, instance: UFPInstance) -> Allocation:
        """Route greedily until no feasible (request, path) pair remains."""
        if instance.num_edges == 0:
            raise InvalidInstanceError("the instance graph has no edges")
        start = time.perf_counter()
        graph = instance.graph
        capacities = graph.capacities
        flows = np.zeros(graph.num_edges, dtype=np.float64)
        paths_by_pair = self._enumerate_paths(instance)

        unselected = set(range(instance.num_requests))
        routed: list[RoutedRequest] = []
        iterations = 0

        while unselected:
            feasible: list[PathCandidate] = []
            for idx in sorted(unselected):
                req = instance.requests[idx]
                for vertices, edge_ids in paths_by_pair[(req.source, req.target)]:
                    ids = np.asarray(edge_ids, dtype=np.int64)
                    if np.any(flows[ids] + req.demand > capacities[ids] + 1e-9):
                        continue
                    value = self.priority(req.demand, req.value, edge_ids, flows, capacities)
                    feasible.append(
                        PathCandidate(idx, req.source, req.target, req.demand,
                                      req.value, vertices, edge_ids, value)
                    )
            if not feasible:
                break
            chosen = self.tie_break(_tied(feasible))
            ids = np.asarray(chosen.edge_ids, dtype=np.int64)
            flows[ids] += chosen.demand
            routed.append(
                RoutedRequest(
                    request_index=chosen.request_index,
                    request=instance.requests[chosen.request_index],
                    vertices=chosen.vertices,
                    edge_ids=chosen.edge_ids,
                )
            )
            unselected.discard(chosen.request_index)
            iterations += 1

        stats = RunStats(
            iterations=iterations,
            shortest_path_calls=0,
            stopped_by_budget=False,
            wall_time_s=time.perf_counter() - start,
            extra={"priority": type(self.priority).__name__},
        )
        return Allocation(
            instance=instance,
            routed=routed,
            stats=stats,
            algorithm=f"ReasonablePathMinimizer[{type(self.priority).__name__}]",
        )


class ReasonableIterativeBundleMinimizer:
    """A generic *reasonable iterative bundle minimizing algorithm*
    (Definition 4.4) for the multi-unit combinatorial auction."""

    def __init__(
        self,
        priority: BundlePriority,
        *,
        tie_break: BundleTieBreak | None = None,
    ) -> None:
        self.priority = priority
        self.tie_break = tie_break or _first_bundle

    def run(self, instance: MUCAInstance) -> MUCAAllocation:
        """Allocate greedily until no bid fits in the residual multiplicities."""
        start = time.perf_counter()
        multiplicities = instance.multiplicities
        flows = np.zeros(instance.num_items, dtype=np.float64)
        unselected = set(range(instance.num_bids))
        winners: list[int] = []
        iterations = 0

        while unselected:
            feasible: list[BundleCandidate] = []
            for idx in sorted(unselected):
                bid = instance.bids[idx]
                ids = np.asarray(bid.bundle, dtype=np.int64)
                if np.any(flows[ids] + 1.0 > multiplicities[ids] + 1e-9):
                    continue
                value = self.priority(bid.value, bid.bundle, flows, multiplicities)
                feasible.append(BundleCandidate(idx, bid.bundle, bid.value, value))
            if not feasible:
                break
            chosen = self.tie_break(_tied(feasible), instance)
            ids = np.asarray(chosen.bundle, dtype=np.int64)
            flows[ids] += 1.0
            winners.append(chosen.bid_index)
            unselected.discard(chosen.bid_index)
            iterations += 1

        stats = RunStats(
            iterations=iterations,
            shortest_path_calls=0,
            stopped_by_budget=False,
            wall_time_s=time.perf_counter() - start,
            extra={"priority": type(self.priority).__name__},
        )
        return MUCAAllocation(
            instance=instance,
            winners=winners,
            stats=stats,
            algorithm=f"ReasonableBundleMinimizer[{type(self.priority).__name__}]",
        )
