"""Partitioned ``Bounded-UFP``: per-region shards for intra-region traffic.

Two paths, chosen by where the requests live:

**Intra-only fast path** (every request's terminals share a region).  Each
shard owns a ``PathPricingEngine`` + ``DualWeights`` and yields its greedy
selection sequence one step at a time.  The coordinator merges the shard
streams in lockstep: each step takes the current head with the least
``(score, global request index)`` and applies the global dual-budget
stopping rule before consuming it, and only the shard whose head it
consumed computes its next step.  When the budget stops the merge, each
shard has computed at most one step past its last consumed one.

The merge is **unconditionally** bit-identical to a global run on the
substrate with its cut edges disabled (same engines, same relabeled
rounding, same budget additions — the differential tests pin this), and
hence to the plain global run whenever that run never routes across the
cut: trivially for one region, and for ``multi_region_topology``'s natural
clusters as long as internal congestion never makes a backbone detour the
cheaper path for an intra request (a workload property — the scenario
harness *checks* it on the global allocation instead of assuming it).
Why the merge reproduces the cut-disabled global run exactly:

* a shard's dual state evolves only through its own commits, so its
  selection *sequence* is independent of how commits interleave with other
  shards — computing its next step only once the merge consumes its head
  yields the same sequence as running it ahead;
* shards price over order-preserving compact relabelings (vertices and
  edge ids both ascending in global id), so Dijkstra tie-breaking and the
  sorted-id dual-update dot products round exactly as in the global run;
* every shard receives the *global* ``B`` as its ``capacity_bound``, so
  per-edge weight trajectories match the global run's bit for bit;
* the coordinator reconstructs the global budget from the exact float
  increments (:attr:`DualWeights.last_budget_increment`) summed in merge
  order — the same additions, in the same order, as the global run;
* each shard's head is its least ``(score, index)`` pair, and shards
  relabel requests in ascending global order, so the least head is the
  least pair over all candidates — the global engine's selection;
* the budget stopping rule only *truncates* the merged sequence; it never
  alters which request a shard would pick next.

The fast path is feasible on **any** intra-only instance regardless of
where the plain global run would route (it equals the global run on the
graph minus its cut edges, whose budget limit is identical — disabled
edges still contribute their initial budget term); equality with the
*plain* global run is what needs the stays-internal premise.

**Cross-region traffic** (some request's terminals lie in different
regions).  The solver returns the global
:func:`~repro.core.bounded_ufp.bounded_ufp` run on the whole graph and
builds no shards, so the partitioned run equals the global one by
construction, and the paper's monotonicity and feasibility results
(Lemma 3.3) cover it as they cover the global run.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterator

import numpy as np

from repro.core.bounded_ufp import bounded_ufp
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import PathPricingEngine
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.graphs.partition import (
    GraphPartition,
    bfs_partition,
    single_region_partition,
)
from repro.partition.shards import RegionShard, build_shards
from repro.types import RunStats

__all__ = ["partitioned_bounded_ufp", "resolve_partition"]


def resolve_partition(
    graph, partition, *, seed: int | None = 0
) -> GraphPartition:
    """Normalize a ``partition=`` argument into a :class:`GraphPartition`.

    Accepts a ready partition, an integer region count (``1`` -> the
    trivial partition, ``k > 1`` -> a seeded :func:`bfs_partition` with
    ``seed``), or a raw label array.  A ready partition must have been
    built on a graph with the same vertex count, orientation and edge
    endpoints as ``graph``; capacities and disabled edges may differ, so a
    partition survives :meth:`CapacitatedGraph.with_capacities`.
    """
    if isinstance(partition, GraphPartition):
        built_on = partition.graph
        if built_on is not graph and not (
            built_on.num_vertices == graph.num_vertices
            and built_on.directed == graph.directed
            and np.array_equal(built_on.tails, graph.tails)
            and np.array_equal(built_on.heads, graph.heads)
        ):
            raise InvalidInstanceError(
                "partition was built for a different substrate"
            )
        return partition
    if isinstance(partition, (int, np.integer)):
        k = int(partition)
        if k == 1:
            return single_region_partition(graph)
        return bfs_partition(graph, k, seed=seed)
    return GraphPartition(graph, partition)


# ---------------------------------------------------------------------- #
# Intra-only fast path
# ---------------------------------------------------------------------- #
def _shard_steps(shard: RegionShard, engine: PathPricingEngine) -> Iterator[tuple]:
    """One shard's greedy selection sequence, in global coordinates.

    Runs the standard engine loop with *no* budget rule (the merge owns the
    global stopping rule and only truncates) and computes each step only
    when it is asked for.  A step is ``(score, global_request_index,
    global_vertices, global_edge_ids, budget_increment)``, so steps order
    as the global engine's ``(score, index)`` selection.
    """
    duals = engine.duals
    while engine.num_pending:
        selection = engine.select()
        if selection is None:
            return
        engine.commit(selection)
        yield (
            selection.score,
            shard.request_indices[selection.index],
            shard.to_global_vertices(selection.vertices),
            shard.to_global_edges(selection.edge_ids),
            duals.last_budget_increment,
        )


def _merge_intra(
    instance: UFPInstance,
    epsilon: float,
    partition: GraphPartition,
    shards: list[RegionShard],
    max_iterations: int | None,
    start: float,
) -> Allocation:
    k = partition.num_regions
    # The global run's initial budget, B and stopping threshold, over the
    # full global capacity vector (cut and disabled edges contribute
    # c_e * 1/c_e = 1 there too).
    duals = DualWeights(instance.graph.capacities, epsilon)
    capacity_bound = duals.capacity_bound
    live = [shard for shard in shards if shard.graph is not None and shard.requests]
    engines = [
        PathPricingEngine(
            shard.graph,
            shard.requests,
            DualWeights(
                shard.graph.capacities, epsilon, capacity_bound=capacity_bound
            ),
        )
        for shard in live
    ]

    budget = duals.budget
    limit = duals.budget_limit
    iteration_cap = (
        max_iterations if max_iterations is not None else instance.num_requests
    )
    routed: list[RoutedRequest] = []
    stopped_by_budget = False
    # heapq.merge pulls a stream's next step only when the step it last
    # yielded from that stream is consumed, so breaking here leaves every
    # shard at most one computed step past its last consumed one.
    merged = heapq.merge(*map(_shard_steps, live, engines))
    for _score, gidx, vertices, edge_ids, delta in merged:
        if len(routed) >= iteration_cap or budget > limit:
            stopped_by_budget = budget > limit
            break
        budget += delta
        routed.append(
            RoutedRequest(
                request_index=gidx,
                request=instance.requests[gidx],
                vertices=vertices,
                edge_ids=edge_ids,
                copies=1,
            )
        )

    stats = RunStats(
        iterations=len(routed),
        shortest_path_calls=sum(engine.stats.dijkstra_calls for engine in engines),
        stopped_by_budget=stopped_by_budget,
        wall_time_s=time.perf_counter() - start,
        extra={
            "final_dual_budget": budget,
            "dual_budget_limit": limit,
            "epsilon": epsilon,
            "capacity_bound": capacity_bound,
            "partition_regions": float(k),
            "partition_cut_edges": float(partition.num_cut_edges),
            "partition_cross_requests": 0.0,
        },
    )
    return Allocation(
        instance=instance,
        routed=routed,
        stats=stats,
        algorithm=f"Partitioned-Bounded-UFP(eps={epsilon:g}, regions={k})",
    )


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def partitioned_bounded_ufp(
    instance: UFPInstance,
    epsilon: float,
    *,
    partition,
    jobs: int | None = None,
    max_iterations: int | None = None,
) -> Allocation:
    """Run ``Bounded-UFP`` region by region over a graph partition.

    Parameters
    ----------
    instance, epsilon, max_iterations:
        As for :func:`repro.core.bounded_ufp.bounded_ufp`.
    partition:
        A :class:`~repro.graphs.partition.GraphPartition` over
        ``instance.graph``, an integer region count (``1`` is the trivial
        partition; larger counts run :func:`bfs_partition` with seed 0) or a
        raw per-vertex label array.
    jobs:
        Has no effect: the shards advance in lockstep in this process.  It
        is kept only because the repository benchmark's ``isp_clearing``
        workload passes ``jobs=1``, and goes once that workload stops
        passing it.

    Notes
    -----
    When every request is intra-region the result is bit-identical to a
    global run on the substrate with the cut edges disabled — and hence to
    the plain global run whenever that run routes nothing across the cut
    (always for a 1-region partition; for ``multi_region_topology``'s
    natural clusters unless congestion makes a backbone detour cheaper for
    some intra request).  The differential tests pin both statements.
    With any cross-region request the result *is* the global
    :func:`~repro.core.bounded_ufp.bounded_ufp` run on the whole graph,
    with the partition's shape added to its stats.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if instance.num_edges == 0:
        raise InvalidInstanceError(
            "Partitioned-Bounded-UFP requires a graph with at least one edge"
        )
    if instance.num_requests and instance.max_demand > 1.0 + 1e-12:
        raise InvalidInstanceError(
            "Partitioned-Bounded-UFP expects demands normalized to (0, 1]; "
            "call UFPInstance.normalized() first"
        )

    start = time.perf_counter()
    resolved = resolve_partition(instance.graph, partition)
    intra, cross = resolved.split_requests(instance.requests)
    if cross:
        allocation = bounded_ufp(instance, epsilon, max_iterations=max_iterations)
        allocation.stats = allocation.stats.merged(
            partition_regions=float(resolved.num_regions),
            partition_cut_edges=float(resolved.num_cut_edges),
            partition_cross_requests=float(len(cross)),
        )
        return allocation
    shards = build_shards(instance, resolved, intra)
    return _merge_intra(instance, epsilon, resolved, shards, max_iterations, start)
