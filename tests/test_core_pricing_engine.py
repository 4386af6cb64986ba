"""Differential and property tests for the lazy-greedy pricing engine.

The engine-backed production solvers must produce allocations *identical* to
the eager :mod:`repro.core.reference` loops (which in turn drive
:func:`~repro.graphs.shortest_path.reference_dijkstra`): same selected
requests, same selection order, same paths, same payments.  On top of the
exact-match contract, property tests check the lazy-greedy invariant itself —
a selection is never beaten by the fresh score of any pool request — and the
bit-identity of the rewritten Dijkstra hot loop against the reference one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auctions import random_auction
from repro.core import (
    DualWeights,
    PathPricingEngine,
    bounded_muca,
    bounded_ufp,
    bounded_ufp_repeat,
    reference_bounded_muca,
    reference_bounded_ufp,
    reference_bounded_ufp_repeat,
)
from repro.flows import random_instance
from repro.graphs import random_digraph, reference_dijkstra, single_source_dijkstra
from repro.mechanism import compute_ufp_payments


def _routed_signature(allocation):
    return [(r.request_index, r.vertices, r.edge_ids) for r in allocation.routed]


# --------------------------------------------------------------------- #
# Differential: engine solvers vs reference solvers
# --------------------------------------------------------------------- #
class TestAllocationsMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("epsilon", [0.3, 0.7])
    def test_bounded_ufp(self, seed, directed, epsilon):
        instance = random_instance(
            num_vertices=11, edge_probability=0.25, capacity=15.0,
            num_requests=30, demand_range=(0.3, 1.0), seed=seed,
            directed=directed,
        )
        fast = bounded_ufp(instance, epsilon)
        slow = reference_bounded_ufp(instance, epsilon)
        assert _routed_signature(fast) == _routed_signature(slow)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    @pytest.mark.parametrize("directed", [True, False])
    def test_bounded_ufp_repeat(self, seed, directed):
        instance = random_instance(
            num_vertices=9, edge_probability=0.3, capacity=10.0,
            num_requests=12, demand_range=(0.4, 1.0), seed=seed,
            directed=directed,
        )
        fast = bounded_ufp_repeat(instance, 0.5, max_iterations=150)
        slow = reference_bounded_ufp_repeat(instance, 0.5, max_iterations=150)
        assert _routed_signature(fast) == _routed_signature(slow)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_bounded_muca(self, seed):
        auction = random_auction(
            num_items=20, num_bids=120, multiplicity=25.0,
            bundle_size_range=(1, 5), seed=seed,
        )
        fast = bounded_muca(auction, 0.35)
        slow = reference_bounded_muca(auction, 0.35)
        assert fast.winners == slow.winners

    def test_unroutable_requests(self):
        # Disconnected terminals must be skipped identically.
        from repro.flows import Request, UFPInstance
        from repro.graphs import CapacitatedGraph

        graph = CapacitatedGraph(4, [(0, 1, 20.0), (2, 3, 20.0)], directed=True)
        instance = UFPInstance(
            graph,
            [Request(0, 3, 1.0, 9.0), Request(0, 1, 1.0, 1.0), Request(2, 3, 1.0, 2.0)],
        )
        fast = bounded_ufp(instance, 1.0)
        slow = reference_bounded_ufp(instance, 1.0)
        assert _routed_signature(fast) == _routed_signature(slow)

    def test_exact_ties_break_identically(self):
        # Selection takes the least (score, index) pair, comparing scores
        # exactly: engine and reference agree, in the literal order below.
        from repro.auctions import Bid, MUCAInstance
        from repro.flows import Request, UFPInstance
        from repro.graphs import CapacitatedGraph

        one_arc = CapacitatedGraph(2, [(0, 1, 10.0)], directed=True)
        # Four identical requests: scores tie exactly, index order decides.
        tied = UFPInstance(one_arc, [Request(0, 1, 1.0, 2.0) for _ in range(4)])
        # Values one ulp apart: request 1's score is strictly smaller.
        below_two = math.nextafter(2.0, 0.0)
        near = UFPInstance(
            one_arc, [Request(0, 1, 1.0, below_two), Request(0, 1, 1.0, 2.0)]
        )
        for instance, expected in ((tied, [0, 1, 2, 3]), (near, [1, 0])):
            fast = bounded_ufp(instance, 1.0)
            slow = reference_bounded_ufp(instance, 1.0)
            assert _routed_signature(fast) == _routed_signature(slow)
            assert [r.request_index for r in fast.routed] == expected

        # The same near tie as bids on one item.
        auction = MUCAInstance([10.0], [Bid((0,), below_two), Bid((0,), 2.0)])
        assert bounded_muca(auction, 1.0).winners == [1, 0]
        assert reference_bounded_muca(auction, 1.0).winners == [1, 0]

        # An exact tie across sources: the lower index goes first, whatever
        # its source.
        fan_in = UFPInstance(
            CapacitatedGraph(3, [(0, 2, 10.0), (1, 2, 10.0)], directed=True),
            [Request(1, 2, 1.0, 2.0), Request(0, 2, 1.0, 2.0)],
        )
        fast = bounded_ufp_repeat(fan_in, 1.0, max_iterations=4)
        slow = reference_bounded_ufp_repeat(fan_in, 1.0, max_iterations=4)
        assert _routed_signature(fast) == _routed_signature(slow)
        assert [r.request_index for r in fast.routed] == [0, 1, 0, 1]

    def test_payments_match_reference_driven_bisection(self):
        instance = random_instance(
            num_vertices=8, edge_probability=0.4, capacity=10.0,
            num_requests=12, demand_range=(0.4, 1.0), seed=3,
        )
        fast_alloc = bounded_ufp(instance, 0.4)
        slow_alloc = reference_bounded_ufp(instance, 0.4)
        fast_payments = compute_ufp_payments(
            lambda trial: bounded_ufp(trial, 0.4), instance, fast_alloc
        )
        slow_payments = compute_ufp_payments(
            lambda trial: reference_bounded_ufp(trial, 0.4), instance, slow_alloc
        )
        assert np.array_equal(fast_payments, slow_payments)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2000),
    epsilon=st.floats(min_value=0.2, max_value=1.0),
    directed=st.booleans(),
)
def test_property_engine_matches_reference(seed, epsilon, directed):
    """Engine allocations equal reference allocations on arbitrary random
    instances, directed and undirected."""
    instance = random_instance(
        num_vertices=8, edge_probability=0.35, capacity=8.0,
        num_requests=16, demand_range=(0.3, 1.0), seed=seed, directed=directed,
    )
    fast = bounded_ufp(instance, epsilon)
    slow = reference_bounded_ufp(instance, epsilon)
    assert _routed_signature(fast) == _routed_signature(slow)


# --------------------------------------------------------------------- #
# Property: the lazy-greedy invariant
# --------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_lazy_selection_is_never_beaten(seed):
    """The lazy-greedy selection is the least ``(score, index)`` pair over
    the pool's *fresh* scores (recomputed eagerly from scratch under the
    current duals)."""
    instance = random_instance(
        num_vertices=9, edge_probability=0.3, capacity=12.0,
        num_requests=14, demand_range=(0.3, 1.0), seed=seed,
    )
    graph = instance.graph
    duals = DualWeights(graph.capacities, 0.5)
    engine = PathPricingEngine(graph, instance.requests, duals)
    pool = set(range(instance.num_requests))

    while engine.num_pending and duals.within_budget:
        selection = engine.select()
        if selection is None:
            break
        # Eager oracle: fresh score of every pool request under current duals.
        weights = duals.weights
        best = None
        for i in sorted(pool):
            req = instance.requests[i]
            tree = reference_dijkstra(graph, req.source, weights, targets={req.target})
            if not tree.reachable(req.target):
                continue
            score = req.demand / req.value * tree.distance(req.target)
            if best is None or (score, i) < best:
                best = (score, i)
        assert best is not None
        assert (selection.score, selection.index) == best
        engine.commit(selection)
        pool.discard(selection.index)


# --------------------------------------------------------------------- #
# Bit-identity of the rewritten Dijkstra
# --------------------------------------------------------------------- #
class TestFastDijkstraBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_tree(self, seed):
        graph = random_digraph(40, 0.12, 5.0, seed=seed)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.01, 1.0, size=graph.num_edges)
        for source in (0, 7, 19):
            fast = single_source_dijkstra(graph, source, weights)
            slow = reference_dijkstra(graph, source, weights)
            assert np.array_equal(fast.distances, slow.distances)
            assert np.array_equal(fast.parent_vertex, slow.parent_vertex)
            assert np.array_equal(fast.parent_edge, slow.parent_edge)

    def test_targets_set_not_consumed(self):
        graph = random_digraph(20, 0.2, 5.0, seed=8)
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.01, 1.0, size=graph.num_edges)
        targets = {3, 9}
        single_source_dijkstra(graph, 0, weights, targets=targets)
        assert targets == {3, 9}  # caller's set must survive the early exit

    def test_early_exit_targets(self):
        graph = random_digraph(30, 0.15, 5.0, seed=5)
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.01, 1.0, size=graph.num_edges)
        fast = single_source_dijkstra(graph, 0, weights, targets={11, 23})
        slow = reference_dijkstra(graph, 0, weights, targets={11, 23})
        assert np.array_equal(fast.distances, slow.distances)
        assert np.array_equal(fast.parent_edge, slow.parent_edge)


# --------------------------------------------------------------------- #
# Substrate caches and DualWeights fast paths
# --------------------------------------------------------------------- #
class TestSubstrateCaches:
    def test_bellman_ford_arc_list_is_cached(self):
        graph = random_digraph(12, 0.3, 4.0, seed=1)
        arcs1 = graph.bellman_ford_arcs()
        arcs2 = graph.bellman_ford_arcs()
        assert arcs1 is arcs2  # built once
        assert len(arcs1) == graph.num_edges  # directed: one arc per edge

    def test_csr_lists_are_cached_and_consistent(self):
        graph = random_digraph(12, 0.3, 4.0, seed=2)
        indptr, heads, eids = graph.csr_lists()
        assert graph.csr_lists() is graph.csr_lists()
        assert indptr == graph.indptr.tolist()
        assert heads == graph.adjacency_heads.tolist()
        assert eids == graph.adjacency_edge_ids.tolist()

    def test_warm_tree_cache_reused_across_runs(self):
        instance = random_instance(
            num_vertices=10, edge_probability=0.3, capacity=20.0,
            num_requests=20, demand_range=(0.3, 1.0), seed=4,
        )
        first = bounded_ufp(instance, 0.4)
        second = bounded_ufp(instance, 0.4)
        assert _routed_signature(first) == _routed_signature(second)
        # The second run prices its initial sweep from the per-graph memo.
        assert second.stats.extra["pricing_warm_start_hits"] > 0
        assert (
            second.stats.extra["pricing_dijkstra_calls"]
            < first.stats.extra["pricing_dijkstra_calls"]
            + first.stats.extra["pricing_warm_start_hits"]
        )

    def test_cache_statistics_recorded_in_run_stats(self):
        instance = random_instance(
            num_vertices=10, edge_probability=0.3, capacity=20.0,
            num_requests=20, demand_range=(0.3, 1.0), seed=6,
        )
        stats = bounded_ufp(instance, 0.4).stats
        for key in (
            "pricing_dijkstra_calls",
            "pricing_tree_reuses",
            "pricing_warm_start_hits",
            "pricing_lazy_pops",
            "pricing_repricings",
            "pricing_trees_invalidated",
            "pricing_dijkstra_calls_saved",
        ):
            assert key in stats.extra
        # Laziness must actually kick in: the eager strategy would have run
        # far more trees than the engine did.
        assert stats.extra["pricing_dijkstra_calls_saved"] > 0

    def test_dual_weights_assume_unique_matches_dedup_path(self):
        caps = np.array([2.0, 3.0, 5.0, 7.0])
        a = DualWeights(caps, 0.5)
        b = DualWeights(caps, 0.5)
        ids = np.array([1, 3], dtype=np.int64)  # sorted, distinct
        a.apply_selection(ids, 0.7, assume_unique=True)
        b.apply_selection([3, 1], 0.7)  # np.unique path
        assert np.array_equal(a.weights, b.weights)
        assert a.budget == b.budget

    def test_mismatched_algorithm_raises_on_both_paths(self):
        """Paying an allocation with a rule that did not produce it raises,
        from scratch (an opaque callable) and traced alike: one base run of
        the rule is checked against the allocation's winner set."""
        from functools import partial

        from repro.exceptions import MechanismError
        from repro.mechanism import compute_muca_payments

        instance = random_instance(
            num_vertices=8, edge_probability=0.35, capacity=4.0,
            num_requests=20, demand_range=(0.5, 1.0), seed=19,
        )
        allocation = bounded_ufp(instance, 1.0)
        assert allocation.selected_indices() == {9}
        assert not bounded_ufp(instance, 0.5).selected_indices()
        auction = random_auction(
            num_items=6, num_bids=12, multiplicity=6.0,
            bundle_size_range=(1, 3), seed=0,
        )
        auction_allocation = bounded_muca(auction, 1.0)
        assert set(auction_allocation.winners) != set(bounded_muca(auction, 0.5).winners)
        cases = [
            (compute_ufp_payments, bounded_ufp, instance, allocation),
            (compute_muca_payments, bounded_muca, auction, auction_allocation),
        ]
        for pay, solver, declared, paid in cases:
            opaque = lambda trial, solver=solver: solver(trial, 0.5)  # noqa: E731
            with pytest.raises(MechanismError, match="mismatch"):
                pay(opaque, declared, paid)
            with pytest.raises(MechanismError, match="mismatch"):
                pay(partial(solver, epsilon=0.5), declared, paid)

    def test_initial_trees_survive_memo_eviction(self):
        from repro.core.pricing_engine import (
            _INITIAL_TREE_MEMO_KEY,
            _TREE_MEMO_KEY,
        )

        instance = random_instance(
            num_vertices=10, edge_probability=0.3, capacity=20.0,
            num_requests=20, demand_range=(0.3, 1.0), seed=5,
        )
        bounded_ufp(instance, 0.4)
        cache = instance.graph.substrate_cache
        initial = cache[_INITIAL_TREE_MEMO_KEY]
        assert initial  # initial sweep memoized outside the evictable memo
        cache[_TREE_MEMO_KEY].clear()  # simulate a cap-triggered eviction
        again = bounded_ufp(instance, 0.4)
        # The initial sweep still warm-starts after the eviction.
        assert again.stats.extra["pricing_warm_start_hits"] >= len(initial)

    def test_dual_weights_path_length_ndarray_fast_path(self):
        caps = np.array([2.0, 3.0, 5.0])
        duals = DualWeights(caps, 0.5)
        ids = np.array([0, 2], dtype=np.int64)
        assert duals.path_length(ids) == duals.path_length([0, 2])
        assert duals.path_length(np.array([], dtype=np.int64)) == 0.0


# --------------------------------------------------------------------- #
# Streaming admission into a live engine (the repro.online substrate)
# --------------------------------------------------------------------- #
class TestStreamingEngineAPI:
    def _engine(self, instance, requests=()):
        duals = DualWeights(instance.graph.capacities, 0.5)
        return PathPricingEngine(
            instance.graph, requests, duals,
            remove_selected=True,
        )

    def test_add_requests_assigns_consecutive_indices_and_liveness(self):
        from repro.flows import Request
        from repro.graphs import CapacitatedGraph
        from repro.flows import UFPInstance

        graph = CapacitatedGraph(3, [(0, 1, 5.0)], directed=True)
        instance = UFPInstance(graph, [])
        engine = self._engine(instance)
        assert engine.num_requests == 0
        first = engine.add_requests([Request(0, 1, 1.0, 2.0)])
        # Vertex 2 is unreachable: the request is dropped on arrival.
        second = engine.add_requests([Request(0, 2, 1.0, 2.0), Request(0, 1, 1.0, 1.0)])
        assert first == [0] and second == [1, 2]
        assert engine.num_requests == 3
        assert engine.is_live(0) and not engine.is_live(1) and engine.is_live(2)
        selection = engine.select()
        engine.commit(selection)
        assert not engine.is_live(selection.index)

    def test_streamed_pool_selects_identically_to_constructed_pool(self):
        """Adding the whole request list via add_requests is equivalent to
        constructing the engine with it: same selection sequence, paths and
        scores — streaming changes *when* requests enter, never the
        semantics of selection."""
        instance = random_instance(
            num_vertices=9, edge_probability=0.3, capacity=10.0,
            num_requests=18, demand_range=(0.3, 1.0), seed=21,
        )

        def run(engine):
            out = []
            while engine.num_pending and engine.duals.within_budget:
                selection = engine.select()
                if selection is None:
                    break
                engine.commit(selection)
                out.append((selection.index, selection.score, selection.edge_ids))
            return out

        constructed = self._engine(instance, instance.requests)
        streamed = self._engine(instance)
        mid = len(instance.requests) // 2
        streamed.add_requests(instance.requests[:mid])
        streamed.add_requests(instance.requests[mid:])
        assert run(streamed) == run(constructed)

    def test_requeue_returns_the_same_selection(self):
        instance = random_instance(
            num_vertices=8, edge_probability=0.35, capacity=10.0,
            num_requests=12, seed=3,
        )
        engine = self._engine(instance, instance.requests)
        first = engine.select()
        engine.requeue(first)
        again = engine.select()
        assert (first.index, first.score, first.edge_ids) == (
            again.index, again.score, again.edge_ids
        )


# --------------------------------------------------------------------- #
# Tree-memo LRU: the substrate_cache stays bounded (PR 4)
# --------------------------------------------------------------------- #
class TestTreeMemoLRU:
    def test_lru_cap_and_counters(self):
        from repro.core.pricing_engine import _TreeMemoLRU

        memo = _TreeMemoLRU(3)
        assert memo.get("a") is None and memo.misses == 1
        for key in ("a", "b", "c"):
            assert memo.put(key, key.upper()) is False
        assert len(memo) == 3
        assert memo.get("a") == "A" and memo.hits == 1
        # "b" is now least-recently-used; inserting "d" evicts it.
        assert memo.put("d", "D") is True
        assert memo.evictions == 1
        assert memo.get("b") is None
        assert memo.get("a") == "A" and memo.get("d") == "D"
        memo.clear()
        assert len(memo) == 0 and not memo

    def test_long_fuzz_runs_stay_under_the_cap(self, monkeypatch):
        import repro.core.pricing_engine as pe
        from functools import partial
        from repro.core.pricing_engine import _TREE_MEMO_KEY

        # Shrink the memory budget so the derived cap bottoms out at 8
        # entries, then push hundreds of distinct weight vectors through
        # one graph's memo via payment bisections.
        monkeypatch.setattr(pe, "_TREE_MEMO_BUDGET_BYTES", 1)
        instance = random_instance(
            num_vertices=10, edge_probability=0.3, capacity=12.0,
            num_requests=40, demand_range=(0.5, 1.0), seed=17,
        )
        allocation = bounded_ufp(instance, 0.4)
        assert allocation.num_selected > 5
        payments = compute_ufp_payments(
            partial(bounded_ufp, epsilon=0.4), instance, allocation
        )
        memo = instance.graph.substrate_cache[_TREE_MEMO_KEY]
        assert memo.cap == 8
        assert len(memo) <= memo.cap
        assert memo.evictions > 0
        assert np.all(payments >= 0.0)

    def test_engine_stats_surface_memo_counters(self):
        instance = random_instance(
            num_vertices=9, edge_probability=0.3, capacity=15.0,
            num_requests=20, demand_range=(0.4, 1.0), seed=23,
        )
        allocation = bounded_ufp(instance, 0.4)
        extra = allocation.stats.extra
        assert "pricing_memo_misses" in extra
        assert "pricing_memo_evictions" in extra
        # A second run warm-starts from the shared memo: fewer misses.
        again = bounded_ufp(instance, 0.4)
        assert (
            again.stats.extra["pricing_memo_misses"]
            <= extra["pricing_memo_misses"]
        )


# --------------------------------------------------------------------- #
# Substrate mutation (fault injection): reinstate + rebind_substrate
# --------------------------------------------------------------------- #
class TestSubstrateRebind:
    def _setup(self, seed=31):
        instance = random_instance(
            num_vertices=9, edge_probability=0.35, capacity=12.0,
            num_requests=18, demand_range=(0.4, 1.0), seed=seed,
        )
        duals = DualWeights(instance.graph.capacities, 0.5)
        engine = PathPricingEngine(
            instance.graph, list(instance.requests), duals,
            remove_selected=True,
        )
        return instance, duals, engine

    def test_reinstate_returns_selection_to_pool(self):
        _instance, _duals, engine = self._setup()
        selection = engine.select()
        engine.commit(selection)
        assert not engine.is_live(selection.index)
        pending_before = engine.num_pending
        engine.reinstate(selection.index)
        assert engine.is_live(selection.index)
        assert engine.num_pending == pending_before + 1
        engine.reinstate(selection.index)  # no-op when already live
        assert engine.num_pending == pending_before + 1

    def test_rebind_rehomes_tree_memo_to_the_new_graph(self):
        from repro.core.pricing_engine import _TREE_MEMO_KEY

        instance, duals, engine = self._setup()
        engine.commit(engine.select())  # warm the old graph's memo
        old_graph = instance.graph
        assert _TREE_MEMO_KEY in old_graph.substrate_cache
        new_graph = old_graph.with_capacities(old_graph.capacities * 2.0)
        engine.rebind_substrate(new_graph, duals.with_capacities(new_graph.capacities))
        assert engine._tree_memo is new_graph.substrate_cache[_TREE_MEMO_KEY]
        assert engine._tree_memo is not old_graph.substrate_cache[_TREE_MEMO_KEY]

    def test_rebind_reprices_without_stale_memo_hits(self):
        """The ISSUE-6 cache-safety satellite: a substrate mutation must
        never serve shortest-path trees cached for the old substrate.  The
        rebind re-price runs against the new graph's (empty) memo, so it
        records misses and zero new warm-start hits."""
        instance, duals, engine = self._setup()
        engine.commit(engine.select())
        hits_before = engine.stats.warm_start_hits
        misses_before = engine.stats.memo_misses
        new_graph = instance.graph.with_capacities(instance.graph.capacities * 3.0)
        engine.rebind_substrate(new_graph, duals.with_capacities(new_graph.capacities))
        assert engine.stats.warm_start_hits == hits_before
        assert engine.stats.memo_misses > misses_before

    def test_rebind_matches_fresh_engine_on_the_mutated_substrate(self):
        """After a capacity mutation, the rebound engine's selection
        sequence must equal that of an engine built from scratch on the
        mutated substrate with the same live pool and dual state."""
        instance, duals, engine = self._setup(seed=37)
        for _ in range(3):
            engine.commit(engine.select())
        new_graph = instance.graph.with_capacities(
            instance.graph.capacities * 0.75, disabled_edges=[0]
        )
        new_duals = duals.with_capacities(new_graph.capacities)
        engine.rebind_substrate(new_graph, new_duals)

        live = [i for i in range(engine.num_requests) if engine.is_live(i)]
        fresh = PathPricingEngine(
            new_graph,
            [instance.requests[i] for i in live],
            new_duals.copy(),
            remove_selected=True,
        )
        while True:
            a = engine.select()
            b = fresh.select()
            if a is None or b is None:
                assert a is None and b is None
                break
            assert instance.requests[a.index] == instance.requests[live[b.index]]
            assert a.score == b.score
            assert a.vertices == b.vertices and a.edge_ids == b.edge_ids
            engine.commit(a)
            fresh.commit(b)

    def test_rebind_drops_unroutable_live_requests(self):
        from repro.flows import Request, UFPInstance
        from repro.graphs import CapacitatedGraph

        graph = CapacitatedGraph(3, [(0, 1, 8.0), (1, 2, 8.0)], directed=True)
        duals = DualWeights(graph.capacities, 0.5)
        engine = PathPricingEngine(
            graph, [Request(0, 2, 1.0, 2.0)], duals,
            remove_selected=True,
        )
        assert engine.is_live(0)
        cut = graph.with_capacities(graph.capacities, disabled_edges=[1])
        engine.rebind_substrate(cut, duals.with_capacities(cut.capacities))
        assert not engine.is_live(0)
        assert engine.select() is None

    def test_rebind_rejects_different_edge_space(self):
        instance, duals, engine = self._setup()
        other = random_digraph(instance.graph.num_vertices + 1, 0.3, 4.0, seed=1)
        with pytest.raises(ValueError, match="same vertex and edge-id space"):
            engine.rebind_substrate(other, duals)
