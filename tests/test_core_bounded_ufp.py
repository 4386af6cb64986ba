"""Tests for Algorithm 1 (``Bounded-UFP``)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounded_ufp, recommended_epsilon
from repro.exceptions import InvalidInstanceError
from repro.flows import Request, UFPInstance, random_instance, staircase_instance
from repro.graphs import CapacitatedGraph
from repro.lp import solve_fractional_ufp
from repro.mechanism.monotonicity import check_exactness
from repro.types import E_OVER_E_MINUS_1


class TestBasicBehaviour:
    def test_routes_everything_when_uncontended(self, roomy_diamond_instance):
        allocation = bounded_ufp(roomy_diamond_instance, 1.0)
        assert allocation.value == pytest.approx(roomy_diamond_instance.total_value)
        assert allocation.is_feasible()
        assert allocation.stats.iterations == 3

    def test_contended_edge_prefers_high_density(self, contended_instance):
        # Capacity 2, requests of value 5, 3, 2 with unit demand: the
        # algorithm picks in decreasing density order and the budget rule
        # keeps the result feasible.
        allocation = bounded_ufp(contended_instance, 1.0)
        allocation.validate()
        assert allocation.is_selected(0)
        assert allocation.value >= 5.0

    def test_selection_order_by_normalized_length(self, contended_instance):
        allocation = bounded_ufp(contended_instance, 1.0)
        order = [item.request_index for item in allocation.routed]
        # Highest density (value 5) first, then value 3.
        assert order[0] == 0
        if len(order) > 1:
            assert order[1] == 1

    def test_empty_request_list(self, diamond_graph):
        allocation = bounded_ufp(UFPInstance(diamond_graph, []), 0.5)
        assert allocation.value == 0.0
        assert allocation.stats.iterations == 0

    def test_rejects_unnormalized_demands(self, diamond_graph):
        instance = UFPInstance(diamond_graph, [Request(0, 3, 2.0, 1.0)])
        with pytest.raises(InvalidInstanceError):
            bounded_ufp(instance, 0.5)

    def test_rejects_graph_without_edges(self):
        instance = UFPInstance(CapacitatedGraph(2, []), [])
        with pytest.raises(InvalidInstanceError):
            bounded_ufp(instance, 0.5)

    def test_rejects_bad_epsilon(self, diamond_instance):
        with pytest.raises(ValueError):
            bounded_ufp(diamond_instance, 0.0)
        with pytest.raises(ValueError):
            bounded_ufp(diamond_instance, 1.5)

    def test_unroutable_requests_are_skipped(self):
        graph = CapacitatedGraph(3, [(0, 1, 50.0)], directed=True)
        instance = UFPInstance(
            graph, [Request(0, 2, 1.0, 9.0), Request(0, 1, 1.0, 1.0)]
        )
        allocation = bounded_ufp(instance, 1.0)
        assert allocation.value == pytest.approx(1.0)
        assert not allocation.is_selected(0)

    def test_recommended_epsilon(self):
        assert recommended_epsilon(0.6) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            recommended_epsilon(0.0)

    def test_max_iterations_cap(self, contended_instance):
        allocation = bounded_ufp(contended_instance, 1.0, max_iterations=1)
        assert allocation.stats.iterations == 1
        assert allocation.num_selected == 1

    def test_stats_populated(self, roomy_diamond_instance):
        allocation = bounded_ufp(roomy_diamond_instance, 0.8)
        assert allocation.stats.shortest_path_calls >= allocation.stats.iterations
        assert allocation.stats.wall_time_s >= 0.0
        assert "final_dual_budget" in allocation.stats.extra
        assert allocation.algorithm.startswith("Bounded-UFP")


class TestTheoremGuarantees:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasibility_on_random_instances(self, seed):
        instance = random_instance(
            num_vertices=9, edge_probability=0.3, capacity=6.0,
            num_requests=60, demand_range=(0.5, 1.0), seed=seed,
        )
        allocation = bounded_ufp(instance, 0.5)
        allocation.validate()  # Lemma 3.3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exactness(self, seed):
        instance = random_instance(num_vertices=8, capacity=10.0, num_requests=20, seed=seed)
        assert check_exactness(bounded_ufp(instance, 0.4))

    def test_never_exceeds_fractional_optimum(self):
        for seed in range(3):
            instance = random_instance(
                num_vertices=8, edge_probability=0.35, capacity=8.0,
                num_requests=25, demand_range=(0.4, 1.0), seed=seed,
            )
            allocation = bounded_ufp(instance, 0.5)
            bound = solve_fractional_ufp(instance).objective
            assert allocation.value <= bound + 1e-6

    def test_approximation_guarantee_in_valid_regime(self):
        # A dense tiny graph keeps ln(m) small so B = 22 satisfies the
        # capacity assumption for eps = 0.4, and the many near-unit demands
        # make the instance genuinely contended.
        instance = random_instance(
            num_vertices=6, edge_probability=0.5, capacity=22.0,
            num_requests=220, demand_range=(0.6, 1.0), seed=1,
        )
        eps = 0.4
        assert instance.meets_capacity_assumption(eps)
        allocation = bounded_ufp(instance, eps)
        bound = solve_fractional_ufp(instance).objective
        guarantee = (1.0 + 6.0 * eps) * E_OVER_E_MINUS_1
        assert bound / allocation.value <= guarantee + 1e-9

    def test_iteration_bound(self):
        instance = random_instance(num_vertices=8, capacity=30.0, num_requests=40, seed=3)
        allocation = bounded_ufp(instance, 0.3)
        assert allocation.stats.iterations <= instance.num_requests

    def test_stops_by_budget_on_tiny_capacity(self):
        # With B = 1 and eps = 1 the budget limit is e^0 = 1 < m, so the
        # algorithm must stop immediately and output nothing.
        graph = CapacitatedGraph(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
        instance = UFPInstance(graph, [Request(0, 1, 1.0, 1.0)])
        allocation = bounded_ufp(instance, 1.0)
        assert allocation.value == 0.0
        assert allocation.stats.stopped_by_budget

    def test_monotone_in_value_single_agent(self, contended_instance):
        # Raising the declared value of a selected request keeps it selected.
        base = bounded_ufp(contended_instance, 1.0)
        assert base.is_selected(0)
        boosted = contended_instance.replace_request(
            0, contended_instance.requests[0].with_value(50.0)
        )
        assert bounded_ufp(boosted, 1.0).is_selected(0)

    def test_monotone_in_demand_single_agent(self, contended_instance):
        base = bounded_ufp(contended_instance, 1.0)
        assert base.is_selected(0)
        slimmer = contended_instance.replace_request(
            0, contended_instance.requests[0].with_demand(0.25)
        )
        assert bounded_ufp(slimmer, 1.0).is_selected(0)

    def test_deterministic(self, contended_instance):
        a = bounded_ufp(contended_instance, 0.7)
        b = bounded_ufp(contended_instance, 0.7)
        assert [r.request_index for r in a.routed] == [r.request_index for r in b.routed]
        assert [r.edge_ids for r in a.routed] == [r.edge_ids for r in b.routed]


class TestStaircaseBehaviour:
    def test_large_B_staircase_is_solved_optimally_with_default_dijkstra(self):
        # Without the adversarial tie-breaking, Bounded-UFP's own Dijkstra
        # tie-breaking happens to route greedily but the budget rule may stop
        # it early; the value is always between 0 and the optimum.
        instance = staircase_instance(6, 25)
        allocation = bounded_ufp(instance, 1.0)
        allocation.validate()
        assert 0.0 <= allocation.value <= instance.metadata["known_optimum"] + 1e-9

    def test_subdivided_staircase_exhibits_the_lower_bound_gap(self):
        instance = staircase_instance(8, 5, subdivide=True)
        allocation = bounded_ufp(instance, 1.0)
        allocation.validate()
        optimum = instance.metadata["known_optimum"]
        # Theorem 3.11: the algorithm cannot reach the optimum on this family.
        assert allocation.value < optimum - 1e-9


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    epsilon=st.floats(min_value=0.2, max_value=1.0),
)
def test_property_feasibility_and_exactness(seed, epsilon):
    """On arbitrary random instances the output is feasible, exact and never
    beats the fractional optimum."""
    instance = random_instance(
        num_vertices=7, edge_probability=0.35, capacity=5.0,
        num_requests=18, demand_range=(0.3, 1.0), seed=seed,
    )
    allocation = bounded_ufp(instance, epsilon)
    allocation.validate()
    assert check_exactness(allocation)
    assert allocation.stats.iterations <= instance.num_requests
    assert allocation.value <= solve_fractional_ufp(instance).objective + 1e-6
