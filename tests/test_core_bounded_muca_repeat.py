"""Tests for Algorithm 2 (``Bounded-MUCA``) and Algorithm 3 (``Bounded-UFP-Repeat``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auctions import Bid, MUCAInstance, partition_instance, random_auction
from repro.core import bounded_muca, bounded_ufp, bounded_ufp_repeat
from repro.exceptions import InvalidInstanceError
from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.lp import solve_fractional_muca, solve_fractional_ufp
from repro.types import E_OVER_E_MINUS_1


class TestBoundedMUCA:
    def test_uncontended_accepts_everything(self):
        # Multiplicity 6 keeps the budget rule (e^{eps (B-1)} >= m) inactive,
        # so every bid fits and is accepted.
        instance = MUCAInstance(
            np.full(3, 6.0),
            [Bid((0, 1), 4.0), Bid((1, 2), 3.0), Bid((0,), 2.0), Bid((2,), 1.0)],
        )
        allocation = bounded_muca(instance, 1.0)
        assert allocation.value == pytest.approx(instance.total_value)
        allocation.validate()

    def test_contention_prefers_high_value_per_weight(self):
        instance = MUCAInstance(
            np.array([2.0]),
            [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 1.0)],
        )
        allocation = bounded_muca(instance, 1.0)
        allocation.validate()
        assert allocation.is_winner(0)
        assert allocation.value >= 5.0

    def test_never_exceeds_fractional_optimum(self):
        for seed in range(3):
            auction = random_auction(
                num_items=12, num_bids=60, multiplicity=4.0,
                bundle_size_range=(1, 4), seed=seed,
            )
            allocation = bounded_muca(auction, 0.5)
            allocation.validate()
            bound = solve_fractional_muca(auction).objective
            assert allocation.value <= bound + 1e-6

    def test_guarantee_in_valid_regime(self):
        auction = random_auction(
            num_items=10, num_bids=200, multiplicity=30.0,
            bundle_size_range=(2, 5), value_range=(0.5, 2.0), seed=7,
        )
        eps = 0.35
        assert auction.meets_capacity_assumption(eps)
        allocation = bounded_muca(auction, eps)
        bound = solve_fractional_muca(auction).objective
        assert bound / max(allocation.value, 1e-12) <= (1 + 6 * eps) * E_OVER_E_MINUS_1 + 1e-9

    def test_monotone_in_value_single_agent(self):
        instance = MUCAInstance(
            np.array([1.0, 1.0]),
            [Bid((0, 1), 4.0), Bid((0,), 3.0), Bid((1,), 3.5)],
        )
        base = bounded_muca(instance, 1.0)
        for idx in range(instance.num_bids):
            if base.is_winner(idx):
                boosted = instance.replace_bid(idx, instance.bids[idx].with_value(40.0))
                assert bounded_muca(boosted, 1.0).is_winner(idx)

    def test_monotone_in_bundle_shrinking(self):
        # The unknown single-minded extension: declaring a sub-bundle can only
        # help (Corollary 4.2 discussion).
        instance = MUCAInstance(
            np.array([4.0, 4.0, 4.0]),
            [Bid((0, 1, 2), 3.0), Bid((0, 1), 2.0), Bid((2,), 1.0)],
        )
        base = bounded_muca(instance, 1.0)
        assert base.is_winner(0)
        shrunk = instance.replace_bid(0, instance.bids[0].with_bundle((0, 2)))
        assert bounded_muca(shrunk, 1.0).is_winner(0)

    def test_empty_auction(self):
        allocation = bounded_muca(MUCAInstance(np.array([3.0]), []), 0.5)
        assert allocation.value == 0.0

    def test_iteration_bound_and_determinism(self):
        auction = random_auction(num_items=15, num_bids=50, multiplicity=30.0, seed=3)
        a = bounded_muca(auction, 0.4)
        b = bounded_muca(auction, 0.4)
        assert a.winners == b.winners
        assert a.stats.iterations <= auction.num_bids

    def test_partition_instance_stays_feasible(self):
        instance = partition_instance(3, 4)
        allocation = bounded_muca(instance, 1.0)
        allocation.validate()
        assert allocation.value <= instance.metadata["known_optimum"] + 1e-9


class TestBoundedUFPRepeat:
    def test_repeats_profitable_request(self, roomy_diamond_instance):
        allocation = bounded_ufp_repeat(roomy_diamond_instance, 1.0)
        allocation.validate(allow_repetitions=True)
        # With repetitions allowed the total value can exceed the sum of the
        # request values (requests are satisfied multiple times).
        assert allocation.value > roomy_diamond_instance.total_value

    def test_feasibility(self):
        for seed in range(2):
            instance = random_instance(
                num_vertices=7, edge_probability=0.4, capacity=6.0,
                num_requests=10, demand_range=(0.4, 1.0), seed=seed,
            )
            allocation = bounded_ufp_repeat(instance, 0.5)
            allocation.validate(allow_repetitions=True)

    def test_never_exceeds_repetition_lp(self):
        instance = random_instance(
            num_vertices=7, edge_probability=0.4, capacity=8.0,
            num_requests=8, demand_range=(0.5, 1.0), seed=5,
        )
        allocation = bounded_ufp_repeat(instance, 0.4)
        bound = solve_fractional_ufp(instance, repetitions=True).objective
        assert allocation.value <= bound + 1e-6

    def test_one_plus_eps_guarantee_in_valid_regime(self):
        instance = random_instance(
            num_vertices=6, edge_probability=0.5, capacity=25.0,
            num_requests=12, demand_range=(0.5, 1.0), seed=2,
        )
        eps = 0.4
        assert instance.meets_capacity_assumption(eps)
        allocation = bounded_ufp_repeat(instance, eps)
        bound = solve_fractional_ufp(instance, repetitions=True).objective
        assert bound / allocation.value <= 1.0 + 6.0 * eps + 1e-9

    def test_beats_or_matches_no_repetition_variant(self):
        instance = random_instance(
            num_vertices=7, edge_probability=0.4, capacity=15.0,
            num_requests=10, seed=9,
        )
        with_rep = bounded_ufp_repeat(instance, 0.4)
        without = bounded_ufp(instance, 0.4)
        assert with_rep.value >= without.value - 1e-9

    def test_iteration_bound(self):
        instance = random_instance(
            num_vertices=6, edge_probability=0.5, capacity=10.0,
            num_requests=6, demand_range=(0.5, 1.0), seed=4,
        )
        allocation = bounded_ufp_repeat(instance, 0.5)
        bound = instance.num_edges * instance.graph.max_capacity / instance.min_demand
        assert allocation.stats.iterations <= bound + instance.num_edges

    def test_max_iterations_cap(self, roomy_diamond_instance):
        allocation = bounded_ufp_repeat(roomy_diamond_instance, 1.0, max_iterations=2)
        assert allocation.stats.iterations == 2

    def test_rejects_unnormalized_demands(self, diamond_graph):
        instance = UFPInstance(diamond_graph, [Request(0, 3, 3.0, 1.0)])
        with pytest.raises(InvalidInstanceError):
            bounded_ufp_repeat(instance, 0.5)

    def test_rejects_graph_without_edges(self):
        with pytest.raises(InvalidInstanceError):
            bounded_ufp_repeat(UFPInstance(CapacitatedGraph(2, []), []), 0.5)

    def test_unroutable_requests_skipped(self):
        graph = CapacitatedGraph(3, [(0, 1, 20.0)], directed=True)
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 5.0), Request(0, 1, 1.0, 1.0)])
        allocation = bounded_ufp_repeat(instance, 1.0)
        allocation.validate(allow_repetitions=True)
        assert all(item.request_index == 1 for item in allocation.routed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_property_repeat_dominates_plain(seed):
    """Allowing repetitions never reduces the achievable value, and both
    outputs stay feasible."""
    instance = random_instance(
        num_vertices=6, edge_probability=0.5, capacity=6.0,
        num_requests=8, demand_range=(0.4, 1.0), seed=seed,
    )
    plain = bounded_ufp(instance, 0.5)
    repeat = bounded_ufp_repeat(instance, 0.5)
    plain.validate()
    repeat.validate(allow_repetitions=True)
    assert repeat.value >= plain.value - 1e-9
