"""Tests for the baseline algorithms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.auctions import Bid, MUCAInstance, random_auction
from repro.baselines import (
    briest_style_muca,
    briest_style_ufp,
    exact_muca,
    exact_ufp,
    greedy_muca_by_density,
    greedy_muca_by_value,
    greedy_ufp_by_density,
    greedy_ufp_by_value,
    randomized_rounding_muca,
    randomized_rounding_ufp,
)
from repro.baselines.briest import BKV_STOP_FRACTION
from repro.core import DualWeights, bounded_ufp
from repro.core.reference import reference_bounded_muca, reference_bounded_ufp
from repro.exceptions import InvalidInstanceError
from repro.flows import Request, UFPInstance, random_instance, staircase_instance
from repro.graphs import CapacitatedGraph
from repro.lp import fractional_ufp, solve_fractional_muca, solve_fractional_ufp


class TestGreedyUFP:
    def test_by_value_prefers_high_value(self, contended_instance):
        allocation = greedy_ufp_by_value(contended_instance)
        allocation.validate()
        assert allocation.is_selected(0) and allocation.is_selected(1)
        assert not allocation.is_selected(2)
        assert allocation.value == pytest.approx(8.0)

    def test_by_density_ordering(self):
        graph = CapacitatedGraph(2, [(0, 1, 1.0)], directed=True)
        instance = UFPInstance(
            graph,
            [Request(0, 1, 1.0, 3.0), Request(0, 1, 0.25, 1.0)],  # densities 3 and 4
        )
        by_value = greedy_ufp_by_value(instance)
        by_density = greedy_ufp_by_density(instance)
        assert by_value.is_selected(0) and not by_value.is_selected(1)
        assert by_density.is_selected(1)

    def test_feasibility_on_random_instances(self):
        for seed in range(3):
            instance = random_instance(
                num_vertices=8, edge_probability=0.35, capacity=3.0,
                num_requests=25, demand_range=(0.5, 1.0), seed=seed,
            )
            greedy_ufp_by_value(instance).validate()
            greedy_ufp_by_density(instance).validate()

    def test_skips_unroutable_requests(self):
        graph = CapacitatedGraph(3, [(0, 1, 5.0)], directed=True)
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 9.0), Request(0, 1, 1.0, 1.0)])
        allocation = greedy_ufp_by_value(instance)
        assert allocation.value == pytest.approx(1.0)

    def test_graph_without_edges_rejected(self):
        with pytest.raises(InvalidInstanceError):
            greedy_ufp_by_value(UFPInstance(CapacitatedGraph(2, []), []))

    def test_greedy_is_optimal_on_staircase(self):
        # Hop-count shortest paths route s_i through v_i-style direct choices,
        # so greedy reaches the optimum the adversarial schedule misses.
        instance = staircase_instance(8, 4)
        allocation = greedy_ufp_by_value(instance)
        allocation.validate()
        assert allocation.value == pytest.approx(instance.metadata["known_optimum"])


class TestGreedyMUCA:
    def test_by_value(self, tiny_auction):
        allocation = greedy_muca_by_value(tiny_auction)
        allocation.validate()
        assert allocation.value == pytest.approx(tiny_auction.total_value)

    def test_by_density_prefers_small_bundles(self):
        instance = MUCAInstance(
            np.array([1.0, 1.0]),
            [Bid((0, 1), 3.0), Bid((0,), 2.0), Bid((1,), 2.0)],
        )
        by_value = greedy_muca_by_value(instance)
        by_density = greedy_muca_by_density(instance)
        assert by_value.value == pytest.approx(3.0)
        assert by_density.value == pytest.approx(4.0)

    def test_feasible_on_random_auctions(self):
        auction = random_auction(num_items=10, num_bids=60, multiplicity=3.0, seed=1)
        greedy_muca_by_value(auction).validate()
        greedy_muca_by_density(auction).validate()


class TestBriestStyle:
    def test_stop_fraction_constant(self):
        # beta = -ln(1 - 1/e): the value for which 1/(1 - e^{-beta}) = e.
        assert 1.0 / (1.0 - np.exp(-BKV_STOP_FRACTION)) == pytest.approx(np.e)

    def test_feasibility_and_upper_bound(self):
        instance = random_instance(
            num_vertices=6, edge_probability=0.5, capacity=40.0,
            num_requests=120, demand_range=(0.6, 1.0), seed=0,
        )
        allocation = briest_style_ufp(instance, 0.3)
        allocation.validate()
        assert allocation.value <= solve_fractional_ufp(instance).objective + 1e-6

    def test_beta_one_recovers_bounded_ufp(self, contended_instance):
        # The second input ties exactly across sources: both loops must route
        # the lower request index first, not the lower source.
        fan_in = UFPInstance(
            CapacitatedGraph(3, [(0, 2, 10.0), (1, 2, 10.0)], directed=True),
            [Request(1, 2, 1.0, 2.0), Request(0, 2, 1.0, 2.0)],
        )
        for instance in (contended_instance, fan_in):
            ours = bounded_ufp(instance, 1.0)
            theirs = briest_style_ufp(instance, 1.0, stop_fraction=1.0)
            assert theirs.value == pytest.approx(ours.value)
            assert [r.request_index for r in theirs.routed] == [
                r.request_index for r in ours.routed
            ]

    def test_never_beats_bounded_ufp_with_smaller_budget(self):
        instance = random_instance(
            num_vertices=6, edge_probability=0.5, capacity=40.0,
            num_requests=200, demand_range=(0.7, 1.0), seed=3,
        )
        conservative = briest_style_ufp(instance, 0.3)
        ours = bounded_ufp(instance, 0.3)
        assert conservative.value <= ours.value + 1e-9

    def test_monotone_in_value_spot_check(self, contended_instance):
        base = briest_style_ufp(contended_instance, 1.0)
        if base.is_selected(0):
            boosted = contended_instance.replace_request(
                0, contended_instance.requests[0].with_value(50.0)
            )
            assert briest_style_ufp(boosted, 1.0).is_selected(0)

    def test_invalid_parameters(self, contended_instance):
        with pytest.raises(ValueError):
            briest_style_ufp(contended_instance, 0.0)
        with pytest.raises(ValueError):
            briest_style_ufp(contended_instance, 0.5, stop_fraction=0.0)

    def test_muca_variant_feasible(self):
        auction = random_auction(num_items=8, num_bids=80, multiplicity=40.0, seed=2)
        allocation = briest_style_muca(auction, 0.3)
        allocation.validate()
        assert allocation.value <= solve_fractional_muca(auction).objective + 1e-6


def _budget_prefix(rounds, capacities, epsilon, beta):
    """The longest prefix of ``rounds`` (``(key, ids, demand)`` triples of a
    ``beta = 1`` run) whose budget before each round, replayed on a fresh
    :class:`DualWeights`, is at most ``e^{beta eps (B - 1)}``."""
    duals = DualWeights(capacities, epsilon)
    limit = math.exp(beta * epsilon * (duals.capacity_bound - 1.0))
    prefix = []
    for key, ids, demand in rounds:
        if duals.budget > limit:
            break
        duals.apply_selection(ids, demand)
        prefix.append(key)
    return prefix


_BETAS = (0.3, BKV_STOP_FRACTION, 0.8, 1.0)
_EPSILONS = (0.25, 0.5, 1.0)


@pytest.mark.property
class TestBriestStyleIsABudgetPrefix:
    """BKV-style runs Algorithm 1 (2) with the same weight updates and only
    the stopping limit scaled, so its run is a prefix of the eager
    reference oracle's ``Bounded-UFP(eps)`` (``Bounded-MUCA(eps)``) run: the
    longest one whose budget before each round is within
    ``e^{beta eps (B - 1)}``.  The oracles share no code with the engines
    the baseline runs on."""

    @pytest.mark.parametrize("seed", range(15))
    def test_ufp_routes_the_reference_prefix(self, seed):
        instance = random_instance(
            num_vertices=5 + seed % 3, edge_probability=0.5,
            capacity=(12.0, 20.0, 30.0)[seed % 3], num_requests=80 + 20 * (seed % 3),
            demand_range=(0.5, 1.0), directed=seed % 2 == 0, seed=seed,
        )
        for epsilon in _EPSILONS:
            reference = reference_bounded_ufp(instance, epsilon)
            rounds = [
                ((r.request_index, r.edge_ids), r.edge_ids, r.request.demand)
                for r in reference.routed
            ]
            for beta in _BETAS:
                bkv = briest_style_ufp(instance, epsilon, stop_fraction=beta)
                assert [(r.request_index, r.edge_ids) for r in bkv.routed] == _budget_prefix(
                    rounds, instance.graph.capacities, epsilon, beta
                ), (epsilon, beta)

    @pytest.mark.parametrize("seed", range(15))
    def test_muca_wins_the_reference_prefix(self, seed):
        auction = random_auction(
            num_items=8 + seed % 5, num_bids=40 + 5 * (seed % 4),
            multiplicity=(6.0, 15.0, 30.0)[seed % 3], bundle_size_range=(1, 4), seed=seed,
        )
        for epsilon in _EPSILONS:
            reference = reference_bounded_muca(auction, epsilon)
            rounds = [(w, auction.bids[w].bundle, 1.0) for w in reference.winners]
            for beta in _BETAS:
                bkv = briest_style_muca(auction, epsilon, stop_fraction=beta)
                assert bkv.winners == _budget_prefix(
                    rounds, auction.multiplicities, epsilon, beta
                ), (epsilon, beta)


class TestRandomizedRounding:
    def test_feasible_and_bounded_by_lp(self):
        instance = random_instance(
            num_vertices=8, edge_probability=0.35, capacity=5.0,
            num_requests=20, demand_range=(0.5, 1.0), seed=1,
        )
        allocation = randomized_rounding_ufp(instance, 0.2, seed=7)
        allocation.validate()
        assert allocation.value <= solve_fractional_ufp(instance).objective + 1e-6

    def test_deterministic_given_seed(self, contended_instance):
        a = randomized_rounding_ufp(contended_instance, 0.2, seed=5)
        b = randomized_rounding_ufp(contended_instance, 0.2, seed=5)
        assert a.selected_indices() == b.selected_indices()

    def test_near_optimal_on_large_capacity_instance(self):
        instance = random_instance(
            num_vertices=8, edge_probability=0.4, capacity=50.0,
            num_requests=40, seed=2,
        )
        allocation = randomized_rounding_ufp(instance, 0.1, seed=3)
        lp = solve_fractional_ufp(instance).objective
        # With scaling (1 - eps) = 0.9 and no contention the expected value is
        # ~0.9 * OPT; allow generous slack for the sampling noise.
        assert allocation.value >= 0.6 * lp

    @pytest.mark.parametrize(
        "instance",
        [
            UFPInstance(CapacitatedGraph(3, [], directed=True), [Request(0, 2, 1.0, 4.0)]),
            UFPInstance(CapacitatedGraph(2, [(0, 1, 2.0)], directed=True), []),
        ],
        ids=["edgeless", "no-requests"],
    )
    def test_nothing_to_route_solves_no_lp(self, instance, monkeypatch):
        def no_solve(program):
            raise AssertionError("solve_lp ran")

        monkeypatch.setattr(fractional_ufp, "solve_lp", no_solve)
        allocation = randomized_rounding_ufp(instance, 0.2, seed=1)
        assert allocation.num_selected == 0
        assert allocation.stats.extra["lp_objective"] == 0.0

    def test_invalid_epsilon(self, contended_instance):
        with pytest.raises(ValueError):
            randomized_rounding_ufp(contended_instance, 0.0)
        with pytest.raises(ValueError):
            randomized_rounding_ufp(contended_instance, 1.0)

    def test_muca_rounding_feasible(self):
        auction = random_auction(num_items=10, num_bids=60, multiplicity=4.0, seed=4)
        allocation = randomized_rounding_muca(auction, 0.2, seed=8)
        allocation.validate()
        assert allocation.value <= solve_fractional_muca(auction).objective + 1e-6


class TestExactSolvers:
    def test_exact_matches_brute_force_on_single_edge(self, contended_instance):
        allocation = exact_ufp(contended_instance)
        allocation.validate()
        assert allocation.value == pytest.approx(8.0)

    def test_exact_beats_or_matches_every_heuristic(self):
        for seed in range(3):
            instance = random_instance(
                num_vertices=6, edge_probability=0.45, capacity=2.0,
                num_requests=9, demand_range=(0.5, 1.0), seed=seed,
            )
            optimum = exact_ufp(instance, max_path_hops=5)
            optimum.validate()
            lp = solve_fractional_ufp(instance).objective
            assert optimum.value <= lp + 1e-6
            for heuristic in (greedy_ufp_by_value, greedy_ufp_by_density):
                assert heuristic(instance).value <= optimum.value + 1e-9
            assert bounded_ufp(instance, 1.0).value <= optimum.value + 1e-9

    def test_exact_rejects_oversized_instances(self):
        instance = random_instance(num_vertices=8, num_requests=40, seed=0)
        with pytest.raises(InvalidInstanceError):
            exact_ufp(instance, max_requests=10)

    def test_exact_muca_matches_known_optimum(self, tiny_auction):
        allocation = exact_muca(tiny_auction)
        allocation.validate()
        assert allocation.value == pytest.approx(tiny_auction.total_value)

    def test_exact_muca_contention(self):
        instance = MUCAInstance(
            np.array([1.0]),
            [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 2.0)],
        )
        allocation = exact_muca(instance)
        assert allocation.value == pytest.approx(5.0)

    def test_exact_muca_beats_greedy(self):
        # Greedy by value picks the big bundle (value 3) and blocks both
        # singletons (2 + 2 = 4), which the exact solver prefers.
        instance = MUCAInstance(
            np.array([1.0, 1.0]),
            [Bid((0, 1), 3.0), Bid((0,), 2.0), Bid((1,), 2.0)],
        )
        assert exact_muca(instance).value == pytest.approx(4.0)
        assert greedy_muca_by_value(instance).value == pytest.approx(3.0)

    def test_exact_muca_size_limit(self):
        auction = random_auction(num_items=5, num_bids=40, multiplicity=2.0, seed=1)
        with pytest.raises(InvalidInstanceError):
            exact_muca(auction, max_bids=10)
