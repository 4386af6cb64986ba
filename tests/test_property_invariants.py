"""Property-based invariant tests for the primal-dual solver stack.

Three structural invariants of the paper's algorithms are checked over
randomly drawn instances:

1. **Dual monotonicity** — the weights ``y_e`` never decrease over a run
   (the exponential update multiplies by a factor ``>= 1``; the pricing
   engine's laziness is *sound only because* of this), and the incremental
   budget bookkeeping never drifts from a from-scratch recomputation.
2. **Feasibility** — allocations never exceed edge capacities / item
   multiplicities (Lemma 3.3).
3. **Value monotonicity** — raising a winner's declared value keeps it
   winning (Definition 2.1 / Lemma 3.4; the property critical-value
   payments rely on).

Every property is exercised by two drivers over the same checker functions:

* a ``hypothesis`` driver (when the library is available) with
  ``derandomize=True`` so runs are reproducible without a database; the CI
  full lane additionally pins ``--hypothesis-seed``;
* a plain seeded-``random`` fallback driver that always runs, so the
  invariants stay covered on boxes without hypothesis.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.auctions import random_auction
from repro.core import bounded_muca, bounded_ufp, bounded_ufp_repeat
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import PathPricingEngine
from repro.flows import random_instance

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on hypothesis-free boxes
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.property

#: Deterministic parameter draws for the no-hypothesis fallback driver.
_FALLBACK_RNG = random.Random(20070611)
FALLBACK_CASES = [
    (
        _FALLBACK_RNG.randrange(2**31),        # instance seed
        _FALLBACK_RNG.randint(5, 12),          # num_vertices
        _FALLBACK_RNG.uniform(0.15, 0.45),     # edge_probability
        _FALLBACK_RNG.uniform(6.0, 30.0),      # capacity
        _FALLBACK_RNG.randint(4, 24),          # num_requests
        _FALLBACK_RNG.choice([0.3, 0.5, 1.0]), # epsilon
    )
    for _ in range(8)
]


def _build_instance(seed, num_vertices, edge_probability, capacity, num_requests):
    return random_instance(
        num_vertices=num_vertices,
        edge_probability=edge_probability,
        capacity=capacity,
        num_requests=num_requests,
        demand_range=(0.2, 1.0),
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Checker functions (shared by both drivers)
# ---------------------------------------------------------------------- #
def check_dual_monotonicity(seed, num_vertices, edge_probability, capacity,
                            num_requests, epsilon) -> None:
    """Weights are componentwise non-decreasing across every iteration and
    the incremental budget matches a from-scratch recomputation."""
    instance = _build_instance(seed, num_vertices, edge_probability, capacity,
                               num_requests)
    duals = DualWeights(instance.graph.capacities, epsilon)
    engine = PathPricingEngine(
        instance.graph, instance.requests, duals,
        remove_selected=True,
    )
    previous = duals.weights.copy()
    iterations = 0
    while engine.num_pending and duals.within_budget and iterations < num_requests:
        selection = engine.select()
        if selection is None:
            break
        engine.commit(selection)
        current = duals.weights
        assert np.all(current >= previous), "a dual weight decreased"
        previous = current.copy()
        iterations += 1
    assert duals.budget == pytest.approx(duals.recompute_budget(), rel=1e-9)


def check_feasibility(seed, num_vertices, edge_probability, capacity,
                      num_requests, epsilon) -> None:
    """No edge is ever loaded past its capacity, with or without repetitions."""
    instance = _build_instance(seed, num_vertices, edge_probability, capacity,
                               num_requests)
    allocation = bounded_ufp(instance, epsilon)
    allocation.validate()
    repeat = bounded_ufp_repeat(instance, epsilon)
    repeat.validate(allow_repetitions=True)


def check_muca_feasibility(seed, num_items, num_bids, multiplicity, epsilon) -> None:
    auction = random_auction(
        num_items=num_items, num_bids=num_bids, multiplicity=multiplicity,
        seed=seed,
    )
    bounded_muca(auction, epsilon).validate()


def check_ufp_value_monotonicity(seed, num_vertices, edge_probability, capacity,
                                 num_requests, epsilon, raise_factor) -> None:
    """Raising a winner's declared value keeps it winning (Definition 2.1)."""
    instance = _build_instance(seed, num_vertices, edge_probability, capacity,
                               num_requests)
    allocation = bounded_ufp(instance, epsilon)
    winners = sorted(allocation.selected_indices())
    if not winners:
        return
    winner = winners[seed % len(winners)]
    raised = instance.replace_request(
        winner, instance.requests[winner].with_value(
            instance.requests[winner].value * raise_factor
        ),
    )
    assert bounded_ufp(raised, epsilon).is_selected(winner), (
        f"winner {winner} lost after raising its value x{raise_factor}"
    )


def check_muca_value_monotonicity(seed, num_items, num_bids, multiplicity,
                                  epsilon, raise_factor) -> None:
    auction = random_auction(
        num_items=num_items, num_bids=num_bids, multiplicity=multiplicity,
        seed=seed,
    )
    allocation = bounded_muca(auction, epsilon)
    if not allocation.winners:
        return
    winner = sorted(allocation.winners)[seed % len(allocation.winners)]
    raised = auction.replace_bid(
        winner, auction.bids[winner].with_value(
            auction.bids[winner].value * raise_factor
        ),
    )
    assert bounded_muca(raised, epsilon).is_winner(winner)


# ---------------------------------------------------------------------- #
# Fallback driver: plain seeded random, always runs
# ---------------------------------------------------------------------- #
class TestInvariantsSeededFallback:
    @pytest.mark.parametrize("case", FALLBACK_CASES, ids=lambda c: f"seed{c[0]}")
    def test_dual_weights_monotone(self, case):
        check_dual_monotonicity(*case)

    @pytest.mark.parametrize("case", FALLBACK_CASES, ids=lambda c: f"seed{c[0]}")
    def test_allocations_respect_capacity(self, case):
        check_feasibility(*case)

    @pytest.mark.parametrize("case", FALLBACK_CASES, ids=lambda c: f"seed{c[0]}")
    def test_raising_a_winning_value_keeps_winning(self, case):
        check_ufp_value_monotonicity(*case, raise_factor=1.0 + (case[0] % 30) / 10.0)

    @pytest.mark.parametrize("case", FALLBACK_CASES[:4], ids=lambda c: f"seed{c[0]}")
    def test_muca_feasible_and_monotone(self, case):
        seed, _, _, _, num_requests, epsilon = case
        check_muca_feasibility(seed, 8, 3 + num_requests, 10.0, epsilon)
        check_muca_value_monotonicity(
            seed, 8, 3 + num_requests, 10.0, epsilon, raise_factor=2.5
        )


# ---------------------------------------------------------------------- #
# Hypothesis driver (richer search; skipped when hypothesis is missing)
# ---------------------------------------------------------------------- #
if HAVE_HYPOTHESIS:
    _COMMON = dict(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_vertices=st.integers(min_value=5, max_value=12),
        edge_probability=st.floats(min_value=0.15, max_value=0.45),
        capacity=st.floats(min_value=6.0, max_value=30.0),
        num_requests=st.integers(min_value=4, max_value=24),
        epsilon=st.sampled_from([0.3, 0.5, 1.0]),
    )
    _SETTINGS = settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )

    class TestInvariantsHypothesis:
        @_SETTINGS
        @given(**_COMMON)
        def test_dual_weights_monotone(self, **kwargs):
            check_dual_monotonicity(**kwargs)

        @_SETTINGS
        @given(**_COMMON)
        def test_allocations_respect_capacity(self, **kwargs):
            check_feasibility(**kwargs)

        @_SETTINGS
        @given(raise_factor=st.floats(min_value=1.0, max_value=10.0), **_COMMON)
        def test_raising_a_winning_value_keeps_winning(self, **kwargs):
            check_ufp_value_monotonicity(**kwargs)

        @_SETTINGS
        @given(
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            num_items=st.integers(min_value=6, max_value=12),
            num_bids=st.integers(min_value=2, max_value=25),
            multiplicity=st.floats(min_value=3.0, max_value=20.0),
            epsilon=st.sampled_from([0.3, 0.5, 1.0]),
        )
        def test_muca_feasible(self, **kwargs):
            check_muca_feasibility(**kwargs)

        @_SETTINGS
        @given(
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            num_items=st.integers(min_value=6, max_value=12),
            num_bids=st.integers(min_value=2, max_value=25),
            multiplicity=st.floats(min_value=3.0, max_value=20.0),
            epsilon=st.sampled_from([0.3, 0.5, 1.0]),
            raise_factor=st.floats(min_value=1.0, max_value=10.0),
        )
        def test_muca_raising_a_winning_value_keeps_winning(self, **kwargs):
            check_muca_value_monotonicity(**kwargs)
