"""Tests for the online streaming auction subsystem (``repro.online``)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import io
from repro.core.bounded_ufp import bounded_ufp
from repro.core.dual_state import DualWeights
from repro.exceptions import InvalidInstanceError, MechanismError
from repro.flows import (
    Request,
    StreamingAllocation,
    UFPInstance,
    isp_instance,
    random_instance,
)
from repro.graphs import CapacitatedGraph
from repro.online import (
    Batch,
    OnlineAuction,
    adversarial_arrivals,
    batch_critical_values,
    bursty_arrivals,
    poisson_arrivals,
    trace_arrivals,
)


# ---------------------------------------------------------------------- #
# Arrival processes
# ---------------------------------------------------------------------- #
class TestArrivalProcesses:
    def _requests(self, count: int = 10) -> list[Request]:
        return [Request(0, 1, 0.5, 1.0 + i, name=f"r{i}") for i in range(count)]

    def test_poisson_singletons_cover_all_requests_in_order(self):
        requests = self._requests()
        batches = list(poisson_arrivals(requests, rate=3.0, seed=1))
        assert [b.requests[0] for b in batches] == requests
        times = [b.time for b in batches]
        assert times == sorted(times)
        assert all(len(b) == 1 for b in batches)

    def test_poisson_batch_window_coalesces(self):
        requests = self._requests(40)
        batches = list(
            poisson_arrivals(requests, rate=10.0, batch_window=1.0, seed=2)
        )
        assert sum(len(b) for b in batches) == 40
        assert len(batches) < 40  # at rate 10 per unit window, batching happens
        flat = [r for b in batches for r in b.requests]
        assert flat == requests

    def test_poisson_is_deterministic_per_seed(self):
        requests = self._requests()
        a = [(b.time, b.requests) for b in poisson_arrivals(requests, seed=7)]
        b = [(b.time, b.requests) for b in poisson_arrivals(requests, seed=7)]
        assert a == b

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(InvalidInstanceError):
            list(poisson_arrivals(self._requests(), rate=0.0))

    def test_bursty_shapes_and_shuffle_determinism(self):
        requests = self._requests(10)
        batches = list(bursty_arrivals(requests, burst_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [r for b in batches for r in b.requests] == requests
        s1 = [b.requests for b in bursty_arrivals(requests, burst_size=4, shuffle=True, seed=3)]
        s2 = [b.requests for b in bursty_arrivals(requests, burst_size=4, shuffle=True, seed=3)]
        assert s1 == s2
        assert sorted(r.name for b in s1 for r in b) == sorted(r.name for r in requests)

    def test_adversarial_orders(self):
        requests = [
            Request(0, 1, 1.0, 4.0, name="dense"),
            Request(0, 1, 1.0, 1.0, name="sparse"),
            Request(0, 1, 0.5, 1.0, name="middling"),
        ]
        by_density = [b.requests[0].name for b in adversarial_arrivals(requests)]
        assert by_density == ["sparse", "middling", "dense"]
        by_value = [
            b.requests[0].name
            for b in adversarial_arrivals(requests, order="value_descending")
        ]
        assert by_value[0] == "dense"
        with pytest.raises(InvalidInstanceError):
            list(adversarial_arrivals(requests, order="nope"))

    def test_trace_arrivals_from_instance_and_file(self, tmp_path):
        instance = random_instance(num_vertices=6, num_requests=9, seed=4)
        batches = list(trace_arrivals(instance, batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 1]
        path = tmp_path / "trace.json"
        io.save_json(instance, path)
        replayed = list(trace_arrivals(path, batch_size=4))
        assert [
            [r.name for r in b.requests] for b in replayed
        ] == [[r.name for r in b.requests] for b in batches]


# ---------------------------------------------------------------------- #
# The online auction driver
# ---------------------------------------------------------------------- #
class TestOnlineAuction:
    def test_streaming_matches_offline_on_uncontended_workload(self):
        """With capacity to spare the budget never fires, so every order
        admits everything — streaming and offline values coincide."""
        instance = isp_instance(num_requests=30, seed=7)
        offline = bounded_ufp(instance, 0.3)
        auction = OnlineAuction(instance.graph, 0.3)
        result = auction.run(poisson_arrivals(instance.requests, seed=7))
        result.validate()
        assert isinstance(result, StreamingAllocation)
        assert result.value == pytest.approx(offline.value)
        assert result.num_selected == len(offline.routed)

    def test_streaming_allocation_bookkeeping(self):
        instance = isp_instance(num_requests=20, seed=3)
        auction = OnlineAuction(instance.graph, 0.3, name="bookkeeping")
        result = auction.run(bursty_arrivals(instance.requests, burst_size=6))
        assert result.num_batches == 4
        assert result.instance.num_requests == 20
        assert result.instance.name == "bookkeeping"
        assert len(result.events) == len(result.routed)
        assert len(result.rejected) == 20 - result.num_selected
        assert result.payments.shape == (20,)
        assert 0.0 <= result.admission_rate <= 1.0
        # Events align with routed entries and carry arrival metadata.
        for event, item in zip(result.events, result.routed):
            assert event.request_index == item.request_index
            assert 0 <= event.arrival_batch <= event.batch < result.num_batches
            assert math.isfinite(event.score)

    def test_contended_stream_admits_fewer_than_offline_order_sensitive(self):
        instance = isp_instance(
            num_core=4, leaves_per_core=3, core_capacity=16.0,
            access_capacity=8.0, num_requests=100, seed=1,
        )
        offline = bounded_ufp(instance, 0.5)
        adversarial = OnlineAuction(instance.graph, 0.5).run(
            adversarial_arrivals(instance.requests)
        )
        adversarial.validate()
        assert adversarial.stats.stopped_by_budget
        # The cheapest-density-first order strictly hurts.
        assert adversarial.value < offline.value

    def test_greedy_policy_admits_batch_in_global_cheapest_first_order(self):
        """Within a batch the greedy drain admits in normalized-score order
        (highest value first here), not arrival order; and since greedy only
        defers past budget exhaustion, every admission lands in its own
        arrival batch (batch == arrival_batch)."""
        graph = CapacitatedGraph(2, [(0, 1, 6.0)], directed=True)
        auction = OnlineAuction(graph, 1.0)
        events = auction.submit(
            [Request(0, 1, 1.0, 2.0), Request(0, 1, 1.0, 4.0), Request(0, 1, 1.0, 3.0)]
        )
        assert [e.request_index for e in events] == [1, 2, 0]
        assert all(e.batch == e.arrival_batch for e in events)

    def test_threshold_policy_prices_out_cheap_requests_forever(self):
        graph = CapacitatedGraph(2, [(0, 1, 8.0)], directed=True)
        auction = OnlineAuction(
            graph, 0.5, admission="threshold", score_threshold=0.5
        )
        # score = (d / v) * y with y starting at 1/8; demand 1, value 1 gives
        # 0.125 <= 0.5 (admit); demand 1, value 0.2 gives 0.625 > 0.5 (reject).
        admitted = auction.submit([Request(0, 1, 1.0, 1.0)])
        rejected = auction.submit([Request(0, 1, 1.0, 0.2)])
        assert len(admitted) == 1 and len(rejected) == 0
        assert auction.num_pending == 1  # priced out but still tracked
        result = auction.finalize()
        assert result.rejected == (1,)

    def test_unroutable_requests_are_rejected_not_crashed(self):
        graph = CapacitatedGraph(4, [(0, 1, 5.0), (2, 3, 5.0)], directed=True)
        auction = OnlineAuction(graph, 1.0)
        events = auction.submit([Request(1, 0, 1.0, 1.0), Request(0, 1, 1.0, 1.0)])
        assert [e.request_index for e in events] == [1]
        result = auction.finalize()
        assert result.rejected == (0,)

    def test_budget_exhaustion_stops_admission_across_batches(self):
        """On a single capacity-4 edge with eps = 1 the dual budget grows by
        a factor of e per unit admission and the limit is e^{B-1} = e^3, so
        exactly 4 of the 8 identical requests are admitted (filling the edge
        to capacity, as Lemma 3.3 promises) and every later batch admits
        nothing."""
        graph = CapacitatedGraph(2, [(0, 1, 4.0)], directed=True)
        auction = OnlineAuction(graph, 1.0)
        first = auction.submit([Request(0, 1, 1.0, 5.0) for _ in range(8)])
        assert len(first) == 4
        assert not auction.within_budget
        later = auction.submit([Request(0, 1, 1.0, 50.0)])
        assert later == []
        final = auction.finalize()
        final.validate()
        assert final.max_utilization() == pytest.approx(1.0)
        assert final.stats.stopped_by_budget

    def test_finalize_is_idempotent(self):
        instance = isp_instance(num_requests=10, seed=2)
        auction = OnlineAuction(instance.graph, 0.3)
        auction.submit(instance.requests, time=0.0)
        a = auction.finalize()
        b = auction.finalize()
        assert a.value == b.value
        assert [r.request_index for r in a.routed] == [r.request_index for r in b.routed]

    def test_invalid_policy_rejected(self):
        graph = CapacitatedGraph(2, [(0, 1, 4.0)], directed=True)
        with pytest.raises(InvalidInstanceError):
            OnlineAuction(graph, 0.5, admission="magic")
        with pytest.raises(InvalidInstanceError):
            OnlineAuction(graph, 0.5, admission="threshold", score_threshold=0.0)

    def test_streaming_equals_offline_when_whole_stream_is_one_batch(self):
        """Submitting everything in one batch is exactly offline Bounded-UFP:
        same selections, same order, same paths."""
        instance = random_instance(
            num_vertices=10, edge_probability=0.3, capacity=12.0,
            num_requests=40, demand_range=(0.4, 1.0), seed=11,
        )
        offline = bounded_ufp(instance, 0.5)
        auction = OnlineAuction(instance.graph, 0.5)
        result = auction.run(iter([Batch(time=0.0, requests=instance.requests)]))
        assert [r.request_index for r in result.routed] == [
            r.request_index for r in offline.routed
        ]
        assert [r.vertices for r in result.routed] == [
            r.vertices for r in offline.routed
        ]


# ---------------------------------------------------------------------- #
# The acceptance-criterion cache test: untouched sources are not re-priced
# ---------------------------------------------------------------------- #
class TestIncrementalPricing:
    def test_arrival_on_untouched_source_does_not_rerun_dijkstra(self):
        """Two disjoint corridors.  Admissions on corridor A touch only A's
        edges, so corridor B's cached tree stays valid: a later arrival from
        B's source must be priced from the cache (tree_reuses grows) without
        a new shortest-path computation (dijkstra_calls frozen)."""
        graph = CapacitatedGraph(
            4, [(0, 1, 8.0), (2, 3, 8.0)], directed=True
        )
        auction = OnlineAuction(graph, 0.5)
        # Batch 1 primes both sources (2 Dijkstra runs) and admits both,
        # invalidating each corridor's own tree.
        auction.submit([Request(0, 1, 1.0, 2.0), Request(2, 3, 1.0, 2.0)])
        stats = auction.pricing_stats
        assert stats.dijkstra_calls == 2
        # Batch 2: a corridor-A arrival re-prices source 0 (its tree was
        # invalidated by the batch-1 admission on edge (0, 1)).
        auction.submit([Request(0, 1, 1.0, 1.5)])
        calls_after_touch = auction.pricing_stats.dijkstra_calls
        assert calls_after_touch == 3
        # Batch 3: a corridor-B arrival — but batch 2's admission touched
        # only corridor A's edge, so source 2's tree from batch 2... was
        # invalidated in batch 1 by its own admission.  Re-prime it:
        auction.submit([Request(2, 3, 1.0, 1.5)])
        assert auction.pricing_stats.dijkstra_calls == 4

        # Now the decisive phase: corridor-B requests kept un-admitted
        # (threshold run below) never invalidate, so further B arrivals are
        # priced purely from cache.
        # Fresh graph object: the per-graph tree memo would otherwise
        # warm-start these trees from the first auction's run (also correct,
        # but this test isolates the *within-stream* cache).
        graph2 = CapacitatedGraph(4, [(0, 1, 8.0), (2, 3, 8.0)], directed=True)
        auction2 = OnlineAuction(
            graph2, 0.5, admission="threshold", score_threshold=0.2
        )
        # Admissible on A (score 1/8 = 0.125 <= 0.2), priced out on B
        # (value 0.5 -> score 0.25 > 0.2).
        auction2.submit([Request(0, 1, 1.0, 2.0), Request(2, 3, 1.0, 0.5)])
        base_calls = auction2.pricing_stats.dijkstra_calls
        base_reuses = auction2.pricing_stats.tree_reuses
        assert base_calls == 2
        # Three more corridor-B arrivals: the admitted corridor-A path never
        # intersects B's tree, and the priced-out B request never committed,
        # so B's cached tree is untouched — zero new Dijkstra runs.
        auction2.submit([Request(2, 3, 1.0, 0.4)])
        auction2.submit([Request(2, 3, 1.0, 0.3)])
        auction2.submit([Request(2, 3, 1.0, 0.45)])
        assert auction2.pricing_stats.dijkstra_calls == base_calls
        assert auction2.pricing_stats.tree_reuses >= base_reuses + 3

    def test_streaming_saves_dijkstra_calls_vs_eager_on_real_workload(self):
        instance = isp_instance(num_requests=60, seed=5)
        auction = OnlineAuction(instance.graph, 0.3)
        result = auction.run(bursty_arrivals(instance.requests, burst_size=6))
        stats = auction.pricing_stats
        assert stats.tree_reuses > 0
        # The engine never computes more trees than the eager per-iteration
        # strategy would have.
        assert stats.dijkstra_calls <= stats.eager_equivalent_calls or (
            stats.eager_equivalent_calls == 0
        )
        assert result.stats.extra["pricing_tree_reuses"] == stats.tree_reuses


# ---------------------------------------------------------------------- #
# Online MUCA streaming
# ---------------------------------------------------------------------- #
class TestOnlineMUCA:
    def test_single_batch_stream_matches_offline_bounded_muca(self):
        from repro.auctions import random_auction
        from repro.core import bounded_muca
        from repro.online import OnlineMUCAAuction

        auction = random_auction(num_items=8, num_bids=25, multiplicity=6.0, seed=9)
        offline = bounded_muca(auction, 0.5)
        online = OnlineMUCAAuction(auction.multiplicities, 0.5)
        result = online.run([list(auction.bids)])
        assert result.winners == offline.winners
        assert result.value == offline.value
        result.validate()

    def test_batched_stream_is_feasible_and_budget_limited(self):
        from repro.auctions import Bid
        from repro.online import OnlineMUCAAuction

        online = OnlineMUCAAuction(np.array([2.0, 2.0]), 1.0)
        bids = [Bid((0,), 3.0), Bid((0, 1), 2.0), Bid((1,), 1.5), Bid((0,), 1.0)]
        for bid in bids:
            online.submit([bid])
        result = online.finalize()
        result.validate()
        assert result.stats.extra["num_batches"] == 4.0

    def test_disjoint_bundles_are_never_re_priced(self):
        """A bid sharing no item with any winner keeps its exact cached
        score: streaming disjoint-bundle bids causes zero re-pricings."""
        from repro.auctions import Bid
        from repro.online import OnlineMUCAAuction

        online = OnlineMUCAAuction(np.full(6, 8.0), 0.5)
        for item in range(6):
            online.submit([Bid((item,), 1.0 + item)])
        assert online.num_admitted == 6
        assert online.pricing_stats.repricings == 0


# ---------------------------------------------------------------------- #
# Online payments
# ---------------------------------------------------------------------- #
class TestOnlinePayments:
    def test_second_price_flavour_on_single_edge_batch(self):
        """One capacity-2 edge, values (5, 3, 2) arriving together: the two
        winners must each pay (up to bisection tolerance) the displaced
        value 2 — the same critical values as the offline mechanism."""
        graph = CapacitatedGraph(2, [(0, 1, 2.0)], directed=True)
        auction = OnlineAuction(graph, 1.0, compute_payments=True)
        events = auction.submit(
            [
                Request(0, 1, 1.0, 5.0, name="a"),
                Request(0, 1, 1.0, 3.0, name="b"),
                Request(0, 1, 1.0, 2.0, name="c"),
            ]
        )
        admitted = {e.request_index: e.payment for e in events}
        assert set(admitted) == {0, 1}
        assert admitted[0] == pytest.approx(2.0, abs=1e-3)
        assert admitted[1] == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("use_trace", [True, False])
    def test_admissions_the_drain_does_not_reproduce_raise(self, use_trace):
        """The batch's base drain must admit exactly the winners being paid
        (here it admits 0 and 1), traced or not, as offline payments do."""
        graph = CapacitatedGraph(2, [(0, 1, 2.0)], directed=True)
        pool = [(0, Request(0, 1, 1.0, 5.0)), (1, Request(0, 1, 1.0, 3.0)),
                (2, Request(0, 1, 1.0, 2.0))]
        with pytest.raises(MechanismError, match="different winner set"):
            batch_critical_values(
                graph, DualWeights(graph.capacities, 1.0), pool, [0, 2],
                admission="greedy", score_threshold=1.0, use_trace=use_trace,
            )

    def test_payments_are_individually_rational_and_zero_for_losers(self):
        instance = isp_instance(
            num_core=3, leaves_per_core=2, core_capacity=20.0,
            access_capacity=12.0, num_requests=14, seed=5,
        )
        auction = OnlineAuction(
            instance.graph, 0.5, admission="threshold",
            score_threshold=1.0, compute_payments=True,
        )
        result = auction.run(bursty_arrivals(list(instance.requests), burst_size=4))
        declared = result.instance.values_array()
        assert np.all(result.payments <= declared + 1e-9)
        assert np.all(result.payments >= 0.0)
        for idx in result.rejected:
            assert result.payments[idx] == 0.0
        assert result.revenue == pytest.approx(float(result.payments.sum()))

    def test_sequential_batches_price_against_history(self):
        """Under the posted-price policy the critical value of a unit-demand
        request on a single edge is exactly ``y_e / threshold``, so a request
        admitted after the dual price grew pays strictly more than an
        identical one admitted while the edge was empty.  (Greedy payments
        would be ~0 here: greedy admits any routable positive-value request
        while within budget, so only the price *cap* makes history bind.)"""
        graph = CapacitatedGraph(2, [(0, 1, 3.0)], directed=True)
        auction = OnlineAuction(
            graph, 1.0, admission="threshold", score_threshold=1.0,
            compute_payments=True,
        )
        e_const = math.e
        first = auction.submit([Request(0, 1, 1.0, 5.0), Request(0, 1, 1.0, 4.0)])
        second = auction.submit([Request(0, 1, 1.0, 5.0)])
        assert len(first) == 2 and len(second) == 1
        # Batch 1: both winners pay the once-updated price e/3 — shading
        # your value demotes you behind the other winner in the replay, so
        # the critical value is the price *after* their admission (the
        # second-price flavour of critical values).
        assert first[0].payment == pytest.approx(e_const / 3.0, rel=1e-4)
        assert first[1].payment == pytest.approx(e_const / 3.0, rel=1e-4)
        # Batch 2: an identical request now faces the twice-updated price.
        assert second[0].payment == pytest.approx(e_const**2 / 3.0, rel=1e-4)
        assert second[0].payment > max(e.payment for e in first)
        final = auction.finalize()
        final.validate()
