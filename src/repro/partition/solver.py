"""Partitioned ``Bounded-UFP``: per-region shards + border-quotient pricing.

Two operating modes, chosen by where the requests live:

**Intra-only fast path** (every request's terminals share a region).  Each
shard runs its own ``PathPricingEngine`` + ``DualWeights`` to exhaustion —
fanned out across processes via :func:`repro.parallel.pmap` — and records
its full greedy selection sequence.  A serial coordinator then merges the
sequences: each step folds the current head of every shard sequence with
the reference comparison (fuzzy tolerance + request-index tie-break) and
applies the global dual-budget stopping rule before consuming the winner.

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
* folding the per-shard minima (each shard's head is its fold winner)
  equals the flat fold over all candidates for the engine's comparison
  semantics, up to the engine's already-documented adversarial-ulp-chain
  caveat — sources ascending, index tie-break on exact ties;
* the budget stopping rule only *truncates* the merged sequence; it never
  alters which request a shard would pick next.

The fast path is feasible on **any** intra-only instance regardless of
where the plain global run would route (it equals the global run on the
graph minus its cut edges, whose budget limit is identical — disabled
edges still contribute their initial budget term); equality with the
*plain* global run is what needs the stays-internal premise.

**Hierarchical mode** (some request crosses regions).  A serial
coordinator keeps one live shard engine per region for intra requests plus
a dual state over the cut edges, and prices each cross request
hierarchically: region-local shortest-path trees carry ``source ->
borders`` and ``borders -> target`` distances, and a Dijkstra over the
:class:`~repro.graphs.partition.BorderQuotient` — cut arcs weighted by
live cut duals, shortcut arcs by live in-region border-to-border
distances — carries the middle.  The spliced route is loop-free but not
necessarily a globally shortest path, so this mode is *approximate* (the
report layer surfaces the gap vs. the global solver) and Lemma 3.3's
feasibility argument no longer applies; a physical load guard therefore
rejects any commit that would overload an edge.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Literal, NamedTuple, Sequence

import numpy as np

from repro import parallel
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import TIE_TOLERANCE, PathPricingEngine, Selection
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.graphs.partition import (
    BorderQuotient,
    GraphPartition,
    bfs_partition,
    build_border_quotient,
    single_region_partition,
)
from repro.graphs.shortest_path import CompactTree
from repro.kernels import get_kernel
from repro.partition.shards import RegionShard, build_shards
from repro.types import RunStats

__all__ = ["partitioned_bounded_ufp", "resolve_partition"]

_INF = math.inf

#: Relative slack of the hierarchical mode's physical load guard.
_LOAD_GUARD_RTOL = 1e-9


def resolve_partition(
    graph, partition, *, seed: int | None = 0
) -> GraphPartition:
    """Normalize a ``partition=`` argument into a :class:`GraphPartition`.

    Accepts a ready partition (validated against ``graph``), an integer
    region count (``1`` -> the trivial partition, ``k > 1`` -> a seeded
    :func:`bfs_partition` with ``seed``), or a raw label array.
    """
    if isinstance(partition, GraphPartition):
        if partition.graph is not graph and (
            partition.graph.num_vertices != graph.num_vertices
            or partition.graph.num_edges != graph.num_edges
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
# Shared fold
# ---------------------------------------------------------------------- #
def _fold_candidates(candidates: list[tuple]) -> tuple:
    """Replay the engine's reference fold over cross-shard candidates.

    ``candidates`` are ``(global_source, global_index, score, *payload)``
    tuples, at most one per shard (each already its shard's fold winner).
    Visiting them sorted by ``(source, index)`` and applying the exact
    fuzzy comparison reproduces the flat fold the global engine runs over
    all fresh candidates: within one shard the head is the shard fold's
    winner, and folding winners-of-folds in source order equals the flat
    fold for these comparison semantics (modulo the engine's documented
    adversarial ulp-chain caveat).
    """
    candidates.sort(key=lambda c: (c[0], c[1]))
    tol = TIE_TOLERANCE
    best = None
    best_idx = -1
    best_score = _INF
    for cand in candidates:
        score = cand[2]
        idx = cand[1]
        if score < best_score - tol or (
            abs(score - best_score) <= tol and idx < best_idx
        ):
            best = cand
            best_idx = idx
            best_score = score
    return best


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
    engine = PathPricingEngine(
        shard.graph,
        shard.requests,
        duals,
        tie_tolerance=TIE_TOLERANCE,
        index_tie_break=True,
        remove_selected=True,
    )
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
    caps = instance.graph.capacities
    capacity_bound = float(caps.min())
    results = parallel.pmap(
        _solve_region_worker,
        list(range(k)),
        jobs=jobs,
        payload=(shards, epsilon, capacity_bound),
    )
    sequences = [steps for steps, _calls in results]
    sp_calls = sum(calls for _steps, calls in results)

    # Replicate DualWeights' initial budget and stopping threshold exactly:
    # same expressions, same float ops, over the full global capacity
    # vector (cut and disabled edges contribute c_e * 1/c_e = 1 in both).
    budget = float(caps @ (1.0 / caps))
    limit = math.exp(epsilon * (capacity_bound - 1.0))

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
                gidx, score, vertices, _edge_ids, _delta = sequence[position]
                candidates.append((vertices[0], gidx, score, region))
        winner = _fold_candidates(candidates)
        region = winner[3]
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
            "partition_hierarchical": 0.0,
        },
    )
    return Allocation(
        instance=instance,
        routed=routed,
        stats=stats,
        algorithm=f"Partitioned-Bounded-UFP(eps={epsilon:g}, regions={k})",
    )


# ---------------------------------------------------------------------- #
# Hierarchical mode
# ---------------------------------------------------------------------- #
class _LiveRegion:
    """One region's live solver state inside the hierarchical coordinator:
    the shard, its dual weights, its intra-request engine (both ``None``
    degenerate forms handled) and a cache of region-local shortest-path
    trees used for cross-request pricing, invalidated whenever the
    region's weights change."""

    __slots__ = (
        "shard",
        "duals",
        "engine",
        "_kernel",
        "_w_list",
        "_trees",
        "sp_calls",
    )

    def __init__(
        self, shard: RegionShard, epsilon: float, capacity_bound: float
    ) -> None:
        self.shard = shard
        if shard.graph is not None:
            self.duals = DualWeights(
                shard.graph.capacities, epsilon, capacity_bound=capacity_bound
            )
        else:
            self.duals = None
        if self.duals is not None and shard.requests:
            self.engine = PathPricingEngine(
                shard.graph,
                shard.requests,
                self.duals,
                tie_tolerance=TIE_TOLERANCE,
                index_tie_break=True,
                remove_selected=True,
            )
        else:
            self.engine = None
        self._kernel = get_kernel()
        self._w_list: list[float] | None = None
        self._trees: dict[int, CompactTree] = {}
        self.sp_calls = 0

    def invalidate(self) -> None:
        self._w_list = None
        self._trees = {}

    def _weights_list(self) -> list[float]:
        if self._w_list is None:
            self._w_list = self.duals.weights.tolist()
        return self._w_list

    def tree_from(self, local_source: int) -> CompactTree:
        """The shortest-path tree rooted at ``local_source`` under the
        region's current dual weights (cached until invalidated)."""
        tree = self._trees.get(local_source)
        if tree is None:
            tree = self._kernel.dijkstra(
                self.shard.graph, self.duals.weights, local_source,
                get_weights_list=self._weights_list,
            )
            self._trees[local_source] = tree
            self.sp_calls += 1
        return tree


def _splice_loops(
    vertices: list[int], edges: list[int]
) -> tuple[list[int], list[int]]:
    """Make a walk simple by excising every loop (first-revisit splice).

    Concatenating region segments and quotient hops can revisit a vertex
    (e.g. a border vertex used both as an exit and much later as an entry);
    dropping the enclosed cycle only shortens the route and never increases
    any edge's load.
    """
    out_v = [vertices[0]]
    out_e: list[int] = []
    position = {vertices[0]: 0}
    for v, e in zip(vertices[1:], edges):
        seen = position.get(v)
        if seen is not None:
            for u in out_v[seen + 1 :]:
                del position[u]
            del out_v[seen + 1 :]
            del out_e[seen:]
        else:
            position[v] = len(out_v)
            out_v.append(v)
            out_e.append(e)
    return out_v, out_e


class _CrossPlan(NamedTuple):
    distance: float
    arc_path: tuple  # QuotientArc sequence, entry border -> exit border
    entry_node: int
    exit_node: int


class _HierarchicalState:
    """The serial coordinator's view of the partitioned instance."""

    def __init__(
        self,
        instance: UFPInstance,
        partition: GraphPartition,
        shards: list[RegionShard],
        epsilon: float,
    ) -> None:
        graph = instance.graph
        caps = graph.capacities
        self.instance = instance
        self.partition = partition
        self.labels = partition.labels
        self.caps = caps
        self.capacity_bound = float(caps.min())
        self.regions = [
            _LiveRegion(shard, epsilon, self.capacity_bound) for shard in shards
        ]
        self.quotient: BorderQuotient = build_border_quotient(partition)
        cut = partition.cut_edge_ids
        self.cut_pos = {int(e): i for i, e in enumerate(cut.tolist())}
        if cut.size:
            self.cut_duals = DualWeights(
                caps[cut], epsilon, capacity_bound=self.capacity_bound
            )
        else:
            self.cut_duals = None
        self.region_border_nodes = [
            self.quotient.border_nodes_of_region(self.labels, r)
            for r in range(partition.num_regions)
        ]
        self.loads = np.zeros(graph.num_edges, dtype=np.float64)
        tails_heads = graph.edge_list()
        self.edge_tail = [e[0] for e in tails_heads]

    # -------------------------------------------------------------- #
    # Cross-request pricing
    # -------------------------------------------------------------- #
    def _border_seeds(self, vertex: int, region: int, *, outbound: bool):
        """Quotient seeds for one terminal: ``{node: distance}``.

        ``outbound=True`` prices ``vertex -> border`` (tree rooted at the
        vertex); ``outbound=False`` prices ``border -> vertex`` (one tree
        per border, rooted at the border — correct under direction).
        A terminal that is itself a border vertex seeds only its own node;
        shortcut arcs cover onward intra-region movement.
        """
        node = self.quotient.node_of.get(vertex)
        if node is not None:
            return {node: 0.0}
        live = self.regions[region]
        if live.duals is None:
            return {}
        local = live.shard.local_vertex[vertex]
        seeds: dict[int, float] = {}
        if outbound:
            dist = live.tree_from(local).dist
            for q in self.region_border_nodes[region]:
                d = dist[live.shard.local_vertex[int(self.quotient.vertices[q])]]
                if d != _INF:
                    seeds[q] = d
        else:
            for q in self.region_border_nodes[region]:
                border_local = live.shard.local_vertex[
                    int(self.quotient.vertices[q])
                ]
                d = live.tree_from(border_local).dist[local]
                if d != _INF:
                    seeds[q] = d
        return seeds

    def _arc_weight(self, arc) -> float:
        if arc.kind == "cut":
            return float(self.cut_duals.weights[self.cut_pos[arc.edge_id]])
        live = self.regions[arc.region]
        if live.duals is None:
            return _INF
        shard = live.shard
        tail_local = shard.local_vertex[int(self.quotient.vertices[arc.tail])]
        head_local = shard.local_vertex[int(self.quotient.vertices[arc.head])]
        return live.tree_from(tail_local).dist[head_local]

    def price_cross(self, request) -> _CrossPlan | None:
        """Hierarchical distance + quotient route for one cross request, or
        ``None`` when unroutable through the quotient."""
        if self.cut_duals is None:
            return None
        src_region = int(self.labels[request.source])
        dst_region = int(self.labels[request.target])
        seeds = self._border_seeds(request.source, src_region, outbound=True)
        if not seeds:
            return None
        tails = self._border_seeds(request.target, dst_region, outbound=False)
        if not tails:
            return None
        nq = self.quotient.num_nodes
        dist = [_INF] * nq
        parent: list[int] = [-1] * nq
        heap: list[tuple[float, int]] = []
        for node in sorted(seeds):
            dist[node] = seeds[node]
            heap.append((seeds[node], node))
        heapq.heapify(heap)
        arcs = self.quotient.arcs
        adjacency = self.quotient.adjacency
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for arc_index in adjacency[node]:
                arc = arcs[arc_index]
                w = self._arc_weight(arc)
                if w == _INF:
                    continue
                nd = d + w
                if nd < dist[arc.head]:
                    dist[arc.head] = nd
                    parent[arc.head] = arc_index
                    heapq.heappush(heap, (nd, arc.head))
        best_node = -1
        best_total = _INF
        for node in sorted(tails):
            if dist[node] == _INF:
                continue
            total = dist[node] + tails[node]
            if total < best_total:
                best_total = total
                best_node = node
        if best_node < 0:
            return None
        arc_path = []
        node = best_node
        while parent[node] >= 0:
            arc = arcs[parent[node]]
            arc_path.append(arc)
            node = arc.tail
        arc_path.reverse()
        return _CrossPlan(
            distance=best_total,
            arc_path=tuple(arc_path),
            entry_node=node,
            exit_node=best_node,
        )

    def expand_cross(
        self, request, plan: _CrossPlan
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Materialize a plan into a simple global (vertices, edge_ids) path."""
        quotient = self.quotient
        vertices = [request.source]
        edges: list[int] = []

        def append_region_segment(region: int, g_from: int, g_to: int) -> None:
            live = self.regions[region]
            shard = live.shard
            tree = live.tree_from(shard.local_vertex[g_from])
            seg_v, seg_e = tree.path_to(shard.local_vertex[g_to])
            for v in seg_v[1:]:
                vertices.append(int(shard.vertices[v]))
            for e in seg_e:
                edges.append(int(shard.edge_ids[e]))

        entry_vertex = int(quotient.vertices[plan.entry_node])
        if request.source != entry_vertex:
            append_region_segment(
                int(self.labels[request.source]), request.source, entry_vertex
            )
        for arc in plan.arc_path:
            if arc.kind == "cut":
                vertices.append(int(quotient.vertices[arc.head]))
                edges.append(arc.edge_id)
            else:
                append_region_segment(
                    arc.region,
                    int(quotient.vertices[arc.tail]),
                    int(quotient.vertices[arc.head]),
                )
        exit_vertex = int(quotient.vertices[plan.exit_node])
        if request.target != exit_vertex:
            append_region_segment(
                int(self.labels[request.target]), exit_vertex, request.target
            )
        out_v, out_e = _splice_loops(vertices, edges)
        return tuple(out_v), tuple(out_e)

    # -------------------------------------------------------------- #
    # Commits
    # -------------------------------------------------------------- #
    def overloads(self, edge_ids: Sequence[int], demand: float) -> bool:
        ids = np.asarray(edge_ids, dtype=np.int64)
        return bool(
            np.any(
                self.loads[ids] + demand
                > self.caps[ids] * (1.0 + _LOAD_GUARD_RTOL)
            )
        )

    def commit_edges(self, edge_ids: Sequence[int], demand: float) -> float:
        """Apply the dual update of a committed path to every affected shard
        (and the cut duals), invalidate their caches, record physical load;
        returns the summed exact budget increments."""
        by_region: dict[int, list[int]] = {}
        cut_positions: list[int] = []
        labels = self.labels
        for eid in edge_ids:
            pos = self.cut_pos.get(eid)
            if pos is not None:
                cut_positions.append(pos)
            else:
                region = int(labels[self.edge_tail[eid]])
                shard = self.regions[region].shard
                by_region.setdefault(region, []).append(shard.local_edge[eid])
        increment = 0.0
        for region in sorted(by_region):
            live = self.regions[region]
            local_ids = np.asarray(sorted(by_region[region]), dtype=np.int64)
            live.duals.apply_selection(local_ids, demand, assume_unique=True)
            increment += live.duals.last_budget_increment
            if live.engine is not None:
                live.engine.apply_external_update(local_ids.tolist())
            live.invalidate()
        if cut_positions:
            positions = np.asarray(sorted(set(cut_positions)), dtype=np.int64)
            self.cut_duals.apply_selection(positions, demand, assume_unique=True)
            increment += self.cut_duals.last_budget_increment
        ids = np.asarray(edge_ids, dtype=np.int64)
        self.loads[ids] += demand
        return increment


def _solve_hierarchical(
    instance: UFPInstance,
    epsilon: float,
    partition: GraphPartition,
    shards: list[RegionShard],
    cross_indices: list[int],
    max_iterations: int | None,
    start: float,
) -> Allocation:
    state = _HierarchicalState(instance, partition, shards, epsilon)
    caps = instance.graph.capacities
    budget = float(caps @ (1.0 / caps))
    limit = math.exp(epsilon * (state.capacity_bound - 1.0))
    cross_pool = sorted(cross_indices)
    iteration_cap = (
        max_iterations if max_iterations is not None else instance.num_requests
    )
    routed: list[RoutedRequest] = []
    iterations = 0
    stopped_by_budget = False
    guard_rejected = 0
    cross_routed = 0

    while iterations < iteration_cap:
        if budget > limit:
            stopped_by_budget = True
            break
        intra_candidates: list[tuple] = []
        for region, live in enumerate(state.regions):
            if live.engine is None or not live.engine.num_pending:
                continue
            selection = live.engine.select()
            if selection is None:
                continue
            shard = live.shard
            intra_candidates.append(
                (
                    int(shard.vertices[selection.vertices[0]]),
                    shard.request_indices[selection.index],
                    selection.score,
                    region,
                    selection,
                )
            )
        cross_candidates: list[tuple] = []
        unroutable: list[int] = []
        for gidx in cross_pool:
            request = instance.requests[gidx]
            plan = state.price_cross(request)
            if plan is None:
                unroutable.append(gidx)
                continue
            score = request.demand / request.value * plan.distance
            cross_candidates.append(
                (request.source, gidx, score, -1, plan)
            )
        for gidx in unroutable:
            cross_pool.remove(gidx)
        if not intra_candidates and not cross_candidates:
            break
        winner = _fold_candidates(intra_candidates + cross_candidates)
        # Requeue the losing shard selections *before* any weight update:
        # requeue is only valid while the selection's score and epoch are
        # still current, which stops being true the moment any shard's
        # duals move.
        for candidate in intra_candidates:
            if candidate is not winner:
                state.regions[candidate[3]].engine.requeue(candidate[4])

        gidx = winner[1]
        request = instance.requests[gidx]
        if winner[3] >= 0:
            live = state.regions[winner[3]]
            selection: Selection = winner[4]
            vertices = live.shard.to_global_vertices(selection.vertices)
            edge_ids = live.shard.to_global_edges(selection.edge_ids)
            if state.overloads(edge_ids, request.demand):
                live.engine.drop_request(selection.index)
                guard_rejected += 1
                continue
            live.engine.commit(selection)
            budget += live.duals.last_budget_increment
            live.invalidate()
            state.loads[np.asarray(edge_ids, dtype=np.int64)] += request.demand
        else:
            plan: _CrossPlan = winner[4]
            vertices, edge_ids = state.expand_cross(request, plan)
            cross_pool.remove(gidx)
            if state.overloads(edge_ids, request.demand):
                guard_rejected += 1
                continue
            budget += state.commit_edges(edge_ids, request.demand)
            cross_routed += 1
        routed.append(
            RoutedRequest(
                request_index=gidx,
                request=request,
                vertices=vertices,
                edge_ids=edge_ids,
                copies=1,
            )
        )
        iterations += 1

    pending = bool(cross_pool) or any(
        live.engine is not None and live.engine.num_pending
        for live in state.regions
    )
    if pending and not stopped_by_budget and budget > limit:
        stopped_by_budget = True

    sp_calls = sum(live.sp_calls for live in state.regions) + sum(
        live.engine.stats.dijkstra_calls
        for live in state.regions
        if live.engine is not None
    )
    stats = RunStats(
        iterations=iterations,
        shortest_path_calls=sp_calls,
        stopped_by_budget=stopped_by_budget,
        wall_time_s=time.perf_counter() - start,
        extra={
            "final_dual_budget": budget,
            "dual_budget_limit": limit,
            "epsilon": epsilon,
            "capacity_bound": state.capacity_bound,
            "partition_regions": float(partition.num_regions),
            "partition_cut_edges": float(partition.num_cut_edges),
            "partition_cross_requests": float(len(cross_indices)),
            "partition_cross_routed": float(cross_routed),
            "partition_guard_rejected": float(guard_rejected),
            "partition_hierarchical": 1.0,
        },
    )
    return Allocation(
        instance=instance,
        routed=routed,
        stats=stats,
        algorithm=(
            f"Partitioned-Bounded-UFP(eps={epsilon:g}, "
            f"regions={partition.num_regions}, hierarchical)"
        ),
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
    capacity_check: Literal["ignore", "warn", "strict"] = "ignore",
    partition_seed: int | None = 0,
) -> Allocation:
    """Run ``Bounded-UFP`` region by region over a graph partition.

    Parameters
    ----------
    instance, epsilon, capacity_check, max_iterations:
        As for :func:`repro.core.bounded_ufp.bounded_ufp`.
    partition:
        A :class:`~repro.graphs.partition.GraphPartition` over
        ``instance.graph``, an integer region count (``1`` is the trivial
        partition; larger counts run :func:`bfs_partition` seeded with
        ``partition_seed``) or a raw per-vertex label array.
    jobs:
        Per-shard fan-out for the intra-only fast path, resolved by
        :func:`repro.parallel.resolve_jobs` (``None`` consults
        ``REPRO_JOBS``).  The hierarchical mode is serial — its shards
        exchange dual updates every iteration.

    Notes
    -----
    When every request is intra-region the result is bit-identical to a
    global run on the substrate with the cut edges disabled — and hence to
    the plain global run whenever that run routes nothing across the cut
    (always for a 1-region partition; for ``multi_region_topology``'s
    natural clusters unless congestion makes a backbone detour cheaper for
    some intra request).  The differential tests pin both statements.
    With cross-region requests the solver switches to hierarchical
    quotient pricing, which is deterministic but approximate; allocations
    remain feasible via an explicit load guard.
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
    from repro.core.bounded_ufp import _check_capacity_assumption

    _check_capacity_assumption(instance, epsilon, capacity_check)

    start = time.perf_counter()
    resolved = resolve_partition(
        instance.graph, partition, seed=partition_seed
    )
    shards, cross_indices = build_shards(instance, resolved)
    if not cross_indices:
        return _merge_intra(
            instance, epsilon, resolved, shards, jobs, max_iterations, start
        )
    return _solve_hierarchical(
        instance, epsilon, resolved, shards, cross_indices, max_iterations, start
    )
