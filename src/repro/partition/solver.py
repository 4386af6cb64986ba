"""Partitioned ``Bounded-UFP``: per-region shards for intra-region traffic.

Two paths, chosen by where the requests live:

**Intra-only fast path** (every request's terminals share a region).  Each
shard runs its own ``PathPricingEngine`` + ``DualWeights`` to exhaustion —
fanned out across processes via :func:`repro.parallel.pmap` — and records
its full greedy selection sequence.  A serial coordinator then merges the
sequences: each step takes the current head with the least ``(score,
global request index)`` and applies the global dual-budget stopping rule
before consuming it.

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
  shards — running it to exhaustion up front loses nothing;
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

import time

import numpy as np

from repro import parallel
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
def _run_shard_to_exhaustion(
    shard: RegionShard, epsilon: float, capacity_bound: float
) -> tuple[list[tuple], int]:
    """One shard's full greedy selection sequence, in global coordinates.

    Runs the standard engine loop with *no* budget rule (the coordinator
    owns the global stopping rule and only truncates) and returns
    ``(steps, dijkstra_calls)`` where each step is
    ``(global_request_index, score, global_vertices, global_edge_ids,
    budget_increment)``.
    """
    if shard.graph is None or not shard.requests:
        return [], 0
    duals = DualWeights(
        shard.graph.capacities, epsilon, capacity_bound=capacity_bound
    )
    engine = PathPricingEngine(shard.graph, shard.requests, duals)
    steps: list[tuple] = []
    while engine.num_pending:
        selection = engine.select()
        if selection is None:
            break
        engine.commit(selection)
        steps.append(
            (
                shard.request_indices[selection.index],
                selection.score,
                shard.to_global_vertices(selection.vertices),
                shard.to_global_edges(selection.edge_ids),
                duals.last_budget_increment,
            )
        )
    return steps, engine.stats.dijkstra_calls


def _solve_region_worker(region: int):
    shards, epsilon, capacity_bound = parallel.worker_payload()
    return _run_shard_to_exhaustion(shards[region], epsilon, capacity_bound)


def _merge_intra(
    instance: UFPInstance,
    epsilon: float,
    partition: GraphPartition,
    shards: list[RegionShard],
    jobs: int | None,
    max_iterations: int | None,
    start: float,
) -> Allocation:
    k = partition.num_regions
    # The global run's initial budget, B and stopping threshold, over the
    # full global capacity vector (cut and disabled edges contribute
    # c_e * 1/c_e = 1 there too).
    duals = DualWeights(instance.graph.capacities, epsilon)
    capacity_bound = duals.capacity_bound
    results = parallel.pmap(
        _solve_region_worker,
        list(range(k)),
        jobs=jobs,
        payload=(shards, epsilon, capacity_bound),
    )
    sequences = [steps for steps, _calls in results]
    sp_calls = sum(calls for _steps, calls in results)

    budget = duals.budget
    limit = duals.budget_limit

    heads = [0] * k
    remaining = sum(len(seq) for seq in sequences)
    iteration_cap = (
        max_iterations if max_iterations is not None else instance.num_requests
    )
    routed: list[RoutedRequest] = []
    iterations = 0
    stopped_by_budget = False
    while remaining and iterations < iteration_cap:
        if budget > limit:
            stopped_by_budget = True
            break
        candidates = []
        for region in range(k):
            position = heads[region]
            sequence = sequences[region]
            if position < len(sequence):
                gidx, score = sequence[position][:2]
                candidates.append((score, gidx, region))
        # Global indices are distinct, so tuple order is the least
        # (score, global request index) pair.
        region = min(candidates)[2]
        gidx, _score, vertices, edge_ids, delta = sequences[region][heads[region]]
        heads[region] += 1
        remaining -= 1
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
        iterations += 1
    if remaining and not stopped_by_budget and budget > limit:
        stopped_by_budget = True

    stats = RunStats(
        iterations=iterations,
        shortest_path_calls=sp_calls,
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
        Per-shard fan-out for the intra-only fast path, resolved by
        :func:`repro.parallel.resolve_jobs` (``None`` consults
        ``REPRO_JOBS``).  It applies to the fast path only: instances with
        cross-region requests run the serial global solver.

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
    return _merge_intra(
        instance, epsilon, resolved, shards, jobs, max_iterations, start
    )
