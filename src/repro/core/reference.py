"""Reference (eager) implementations of the three primal-dual solvers.

These are the original full-rescoring loops — one
:func:`~repro.graphs.shortest_path.reference_dijkstra` tree per distinct
source per iteration, every live request re-priced every iteration — kept
as differential-testing oracles for the lazy-greedy
:mod:`~repro.core.pricing_engine` rewiring of :func:`bounded_ufp`,
:func:`bounded_ufp_repeat` and :func:`bounded_muca`.  The production solvers
must produce *identical* allocations (same requests, same selection order,
same paths); the tests in ``tests/test_core_pricing_engine.py`` assert it.
Every loop selects the least ``(score, request index)`` pair, comparing
scores exactly.

Only the allocations are contracted to match; statistics
(``shortest_path_calls``, cache counters, the exact ``stopped_by_budget``
flag in degenerate all-unroutable corner cases) legitimately differ.
"""

from __future__ import annotations

import math

from repro.core.dual_state import DualWeights
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.graphs.shortest_path import reference_dijkstra
from repro.types import RunStats

__all__ = [
    "reference_bounded_ufp",
    "reference_bounded_ufp_repeat",
    "reference_bounded_muca",
]


def reference_bounded_ufp(instance: UFPInstance, epsilon: float) -> Allocation:
    """The seed ``Bounded-UFP`` loop: full re-pricing every iteration."""
    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if instance.num_edges == 0:
        raise InvalidInstanceError("Bounded-UFP requires a graph with at least one edge")
    if instance.num_requests and instance.max_demand > 1.0 + 1e-12:
        raise InvalidInstanceError("demands must be normalized to (0, 1]")

    graph = instance.graph
    duals = DualWeights(graph.capacities, float(epsilon))
    pool: set[int] = set(range(instance.num_requests))
    routed: list[RoutedRequest] = []
    iterations = 0
    sp_calls = 0
    stopped_by_budget = False

    while pool and iterations < instance.num_requests:
        if not duals.within_budget:
            stopped_by_budget = True
            break

        weights = duals.weights
        by_source: dict[int, list[int]] = {}
        for idx in pool:
            by_source.setdefault(instance.requests[idx].source, []).append(idx)

        best_idx = -1
        best_score = math.inf
        best_path: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        unreachable: list[int] = []
        for source in sorted(by_source):
            idxs = by_source[source]
            targets = {instance.requests[i].target for i in idxs}
            tree = reference_dijkstra(graph, source, weights, targets=targets)
            sp_calls += 1
            for i in sorted(idxs):
                req = instance.requests[i]
                if not tree.reachable(req.target):
                    unreachable.append(i)
                    continue
                score = req.demand / req.value * tree.distance(req.target)
                if (score, i) < (best_score, best_idx):
                    best_score = score
                    best_idx = i
                    best_path = tree.path_to(req.target)

        for i in unreachable:
            pool.discard(i)
        if best_idx < 0:
            break

        request = instance.requests[best_idx]
        vertices, edge_ids = best_path  # type: ignore[misc]
        duals.apply_selection(edge_ids, request.demand)
        routed.append(
            RoutedRequest(
                request_index=best_idx,
                request=request,
                vertices=vertices,
                edge_ids=edge_ids,
                copies=1,
            )
        )
        pool.discard(best_idx)
        iterations += 1

    if pool and not stopped_by_budget and not duals.within_budget:
        stopped_by_budget = True

    stats = RunStats(
        iterations=iterations,
        shortest_path_calls=sp_calls,
        stopped_by_budget=stopped_by_budget,
        extra={"final_dual_budget": duals.budget},
    )
    return Allocation(
        instance=instance,
        routed=routed,
        stats=stats,
        algorithm=f"Reference-Bounded-UFP(eps={float(epsilon):g})",
    )


def reference_bounded_ufp_repeat(
    instance: UFPInstance, epsilon: float, *, max_iterations: int | None = None
) -> Allocation:
    """The seed ``Bounded-UFP-Repeat`` loop."""
    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if instance.num_edges == 0:
        raise InvalidInstanceError("the instance graph has no edges")
    if instance.num_requests and instance.max_demand > 1.0 + 1e-12:
        raise InvalidInstanceError("demands must be normalized to (0, 1]")

    graph = instance.graph
    duals = DualWeights(graph.capacities, float(epsilon))
    if max_iterations is None:
        if instance.num_requests:
            max_iterations = int(
                math.ceil(graph.num_edges * graph.max_capacity / instance.min_demand)
            ) + graph.num_edges
        else:
            max_iterations = 0

    routable = list(range(instance.num_requests))
    routed: list[RoutedRequest] = []
    iterations = 0
    sp_calls = 0
    stopped_by_budget = False

    while routable and iterations < max_iterations:
        if not duals.within_budget:
            stopped_by_budget = True
            break

        weights = duals.weights
        by_source: dict[int, list[int]] = {}
        for idx in routable:
            by_source.setdefault(instance.requests[idx].source, []).append(idx)

        best_idx = -1
        best_score = math.inf
        best_path: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        newly_unroutable: list[int] = []
        for source in sorted(by_source):
            idxs = by_source[source]
            targets = {instance.requests[i].target for i in idxs}
            tree = reference_dijkstra(graph, source, weights, targets=targets)
            sp_calls += 1
            for i in sorted(idxs):
                req = instance.requests[i]
                if not tree.reachable(req.target):
                    newly_unroutable.append(i)
                    continue
                score = req.demand / req.value * tree.distance(req.target)
                if (score, i) < (best_score, best_idx):
                    best_score = score
                    best_idx = i
                    best_path = tree.path_to(req.target)

        if newly_unroutable:
            unroutable = set(newly_unroutable)
            routable = [i for i in routable if i not in unroutable]
        if best_idx < 0:
            break

        request = instance.requests[best_idx]
        vertices, edge_ids = best_path  # type: ignore[misc]
        duals.apply_selection(edge_ids, request.demand)
        routed.append(
            RoutedRequest(
                request_index=best_idx,
                request=request,
                vertices=vertices,
                edge_ids=edge_ids,
                copies=1,
            )
        )
        iterations += 1

    if not stopped_by_budget and not duals.within_budget:
        stopped_by_budget = True

    stats = RunStats(
        iterations=iterations,
        shortest_path_calls=sp_calls,
        stopped_by_budget=stopped_by_budget,
        extra={"final_dual_budget": duals.budget},
    )
    return Allocation(
        instance=instance,
        routed=routed,
        stats=stats,
        algorithm=f"Reference-Bounded-UFP-Repeat(eps={float(epsilon):g})",
    )


def reference_bounded_muca(instance, epsilon: float):
    """The seed ``Bounded-MUCA`` loop: every live bid re-priced per iteration."""
    from repro.auctions.allocation import MUCAAllocation

    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")

    duals = DualWeights(instance.multiplicities, float(epsilon))
    pool: set[int] = set(range(instance.num_bids))
    winners: list[int] = []
    iterations = 0
    stopped_by_budget = False

    while pool and iterations < instance.num_bids:
        if not duals.within_budget:
            stopped_by_budget = True
            break

        best_idx = -1
        best_score = math.inf
        for i in sorted(pool):
            bid = instance.bids[i]
            score = duals.path_length(bid.bundle) / bid.value
            if (score, i) < (best_score, best_idx):
                best_score = score
                best_idx = i
        if best_idx < 0:  # pragma: no cover - pool non-empty implies a best
            break

        duals.apply_selection(instance.bids[best_idx].bundle, 1.0)
        winners.append(best_idx)
        pool.discard(best_idx)
        iterations += 1

    if pool and not stopped_by_budget and not duals.within_budget:
        stopped_by_budget = True

    stats = RunStats(
        iterations=iterations,
        stopped_by_budget=stopped_by_budget,
        extra={"final_dual_budget": duals.budget},
    )
    return MUCAAllocation(
        instance=instance,
        winners=winners,
        stats=stats,
        algorithm=f"Reference-Bounded-MUCA(eps={float(epsilon):g})",
    )

