"""Tests for the shared dual-weight state machine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dual_state import DualWeights


class TestInitialization:
    def test_initial_weights_are_inverse_capacities(self):
        caps = np.array([2.0, 4.0, 8.0])
        duals = DualWeights(caps, 0.5)
        np.testing.assert_allclose(duals.weights, [0.5, 0.25, 0.125])

    def test_initial_budget_equals_m(self):
        duals = DualWeights(np.array([3.0, 7.0, 11.0, 2.0]), 0.3)
        assert duals.budget == pytest.approx(4.0)

    def test_capacity_bound_defaults_to_min(self):
        duals = DualWeights(np.array([5.0, 2.0, 9.0]), 0.3)
        assert duals.capacity_bound == 2.0
        override = DualWeights(np.array([5.0, 2.0, 9.0]), 0.3, capacity_bound=4.0)
        assert override.capacity_bound == 4.0

    def test_budget_limit_formula(self):
        duals = DualWeights(np.array([10.0, 10.0]), 0.25)
        assert duals.budget_limit == pytest.approx(math.exp(0.25 * 9.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DualWeights(np.array([]), 0.5)
        with pytest.raises(ValueError):
            DualWeights(np.array([1.0, -1.0]), 0.5)
        with pytest.raises(ValueError):
            DualWeights(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            DualWeights(np.array([1.0]), 1.5)


class TestUpdates:
    def test_apply_selection_multiplies_weights(self):
        caps = np.array([2.0, 4.0])
        duals = DualWeights(caps, 0.5, capacity_bound=2.0)
        duals.apply_selection([0], demand=1.0)
        # y_0 = (1/2) * exp(0.5 * 2 * 1 / 2) = 0.5 * e^0.5.
        assert duals.weight_of(0) == pytest.approx(0.5 * math.exp(0.5))
        assert duals.weight_of(1) == pytest.approx(0.25)
        assert duals.num_updates == 1

    def test_budget_tracked_incrementally(self):
        duals = DualWeights(np.array([2.0, 3.0, 5.0]), 0.4)
        duals.apply_selection([0, 2], demand=0.7)
        duals.apply_selection([1], demand=0.3)
        assert duals.budget == pytest.approx(duals.recompute_budget(), rel=1e-12)

    def test_within_budget_flips_after_enough_updates(self):
        duals = DualWeights(np.array([2.0, 2.0]), 1.0)  # limit = e^{1*(2-1)} = e
        assert duals.within_budget
        for _ in range(10):
            duals.apply_selection([0, 1], demand=1.0)
        assert not duals.within_budget

    def test_path_length(self):
        duals = DualWeights(np.array([2.0, 4.0, 5.0]), 0.3)
        assert duals.path_length([0, 1]) == pytest.approx(0.75)
        assert duals.path_length([]) == 0.0

    def test_empty_selection_is_noop(self):
        duals = DualWeights(np.array([2.0]), 0.3)
        before = duals.budget
        duals.apply_selection([], demand=1.0)
        assert duals.budget == before

    def test_rejects_nonpositive_demand(self):
        duals = DualWeights(np.array([2.0]), 0.3)
        with pytest.raises(ValueError):
            duals.apply_selection([0], demand=0.0)

    def test_copy_is_independent(self):
        duals = DualWeights(np.array([2.0, 2.0]), 0.3)
        clone = duals.copy()
        duals.apply_selection([0], demand=1.0)
        assert clone.weight_of(0) == pytest.approx(0.5)
        assert duals.weight_of(0) > 0.5

    def test_weights_view_readonly(self):
        duals = DualWeights(np.array([2.0]), 0.3)
        with pytest.raises(ValueError):
            duals.weights[0] = 3.0


@settings(max_examples=40, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=1, max_size=6),
    epsilon=st.floats(min_value=0.05, max_value=1.0),
    selections=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
            st.floats(min_value=0.05, max_value=1.0),
        ),
        max_size=8,
    ),
)
def test_property_incremental_budget_matches_recomputation(caps, epsilon, selections):
    """The O(path) incremental budget never drifts from the O(m) recomputation,
    and weights are monotone non-decreasing (Claim 3.7 machinery)."""
    caps = np.asarray(caps)
    duals = DualWeights(caps, epsilon)
    previous = np.array(duals.weights)
    for edge_ids, demand in selections:
        ids = [e % caps.size for e in edge_ids]
        duals.apply_selection(ids, demand)
        current = np.array(duals.weights)
        assert np.all(current >= previous - 1e-15)
        previous = current
    assert duals.budget == pytest.approx(duals.recompute_budget(), rel=1e-9)


class TestWithCapacities:
    """Capacity churn: carrying dual state across a substrate resize."""

    def test_budget_contribution_preserved(self):
        duals = DualWeights(np.array([2.0, 4.0, 8.0]), 0.5, capacity_bound=2.0)
        duals.apply_selection([0, 1], demand=1.0)
        resized = duals.with_capacities(np.array([1.0, 4.0, 16.0]))
        # c'_e y'_e == c_e y_e edge-wise, so the budget does not jump.
        np.testing.assert_allclose(
            np.array([1.0, 4.0, 16.0]) * resized.weights,
            np.array([2.0, 4.0, 8.0]) * duals.weights,
        )
        assert resized.budget == pytest.approx(duals.budget, rel=1e-12)

    def test_weights_rescaled_by_capacity_ratio(self):
        duals = DualWeights(np.array([2.0, 4.0]), 0.5)
        resized = duals.with_capacities(np.array([4.0, 1.0]))
        np.testing.assert_allclose(
            resized.weights, duals.weights * np.array([2.0 / 4.0, 4.0 / 1.0])
        )

    def test_fresh_edge_lands_on_initial_weight(self):
        """An untouched edge's weight maps 1/c -> 1/c', indistinguishable
        from an edge that started at the new capacity."""
        duals = DualWeights(np.array([2.0, 4.0]), 0.5)
        resized = duals.with_capacities(np.array([8.0, 4.0]))
        assert resized.weights[0] == pytest.approx(1.0 / 8.0)

    def test_epsilon_and_bound_preserved(self):
        duals = DualWeights(np.array([2.0, 4.0]), 0.25, capacity_bound=2.0)
        resized = duals.with_capacities(np.array([3.0, 5.0]))
        assert resized.epsilon == duals.epsilon
        assert resized.capacity_bound == duals.capacity_bound
        assert resized.budget_limit == duals.budget_limit

    def test_resize_does_not_mutate_original(self):
        duals = DualWeights(np.array([2.0, 4.0]), 0.5)
        before = duals.weights.copy()
        duals.with_capacities(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(duals.weights, before)

    def test_rejects_bad_capacities(self):
        duals = DualWeights(np.array([2.0, 4.0]), 0.5)
        with pytest.raises(ValueError, match="same edge count"):
            duals.with_capacities(np.array([2.0, 4.0, 8.0]))
        with pytest.raises(ValueError, match="positive"):
            duals.with_capacities(np.array([2.0, 0.0]))

    def test_round_trip_resize_is_identity(self):
        duals = DualWeights(np.array([2.0, 4.0, 8.0]), 0.5, capacity_bound=2.0)
        duals.apply_selection([1, 2], demand=0.7)
        back = duals.with_capacities(
            np.array([1.0, 9.0, 3.0])
        ).with_capacities(np.array([2.0, 4.0, 8.0]))
        np.testing.assert_allclose(back.weights, duals.weights, rtol=1e-15)
        assert back.budget == pytest.approx(duals.budget, rel=1e-15)
