"""Tests for the mechanism layer: payments, truthful wrappers, audits."""

from __future__ import annotations

import re
from functools import partial

import numpy as np
import pytest

from repro.auctions import Bid, MUCAInstance
from repro.core import bounded_muca, bounded_ufp
from repro.exceptions import MechanismError
from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.mechanism import (
    MUCAAgent,
    UFPAgent,
    audit_muca_truthfulness,
    audit_ufp_truthfulness,
    check_exactness,
    check_muca_monotonicity,
    check_ufp_monotonicity,
    compute_muca_payments,
    compute_ufp_payments,
    critical_value_muca,
    critical_value_ufp,
    run_truthful_muca_mechanism,
    run_truthful_ufp_mechanism,
)


class TestAgents:
    def test_ufp_agent_utility_truthful_winner(self):
        request = Request(0, 1, 0.5, 4.0)
        agent = UFPAgent.truthful(request)
        assert agent.is_truthful
        assert agent.utility(selected=True, payment=1.5) == pytest.approx(2.5)
        assert agent.utility(selected=False, payment=0.0) == 0.0

    def test_ufp_agent_underdeclared_demand_is_worthless(self):
        true = Request(0, 1, 0.8, 4.0)
        lie = true.with_demand(0.3)
        agent = UFPAgent(true_request=true, declared_request=lie)
        assert not agent.is_truthful
        # Winning with an under-declared demand gives no value, only payment.
        assert agent.utility(selected=True, payment=1.0) == pytest.approx(-1.0)

    def test_ufp_agent_overdeclared_demand_still_serves(self):
        true = Request(0, 1, 0.5, 4.0)
        agent = UFPAgent(true_request=true, declared_request=true.with_demand(0.9))
        assert agent.utility(selected=True, payment=1.0) == pytest.approx(3.0)

    def test_muca_agent_bundle_containment(self):
        true = Bid((0, 1), 5.0)
        superset = MUCAAgent(true_bid=true, declared_bid=true.with_bundle((0, 1, 2)))
        subset = MUCAAgent(true_bid=true, declared_bid=true.with_bundle((0,)))
        assert superset.utility(selected=True, payment=1.0) == pytest.approx(4.0)
        assert subset.utility(selected=True, payment=1.0) == pytest.approx(-1.0)
        assert MUCAAgent.truthful(true).is_truthful


class TestCriticalValuePayments:
    def test_single_edge_second_price_flavour(self, contended_instance):
        """On one capacity-2 edge with values (5, 3, 2), the winners pay (up
        to bisection tolerance) the value they must beat: the excluded
        request's density-threshold, i.e. 2."""
        algorithm = partial(bounded_ufp, epsilon=1.0)
        allocation = algorithm(contended_instance)
        assert allocation.is_selected(0) and allocation.is_selected(1)
        payment_0 = critical_value_ufp(algorithm, contended_instance, 0)
        payment_1 = critical_value_ufp(algorithm, contended_instance, 1)
        assert payment_0 == pytest.approx(2.0, abs=1e-3)
        assert payment_1 == pytest.approx(2.0, abs=1e-3)

    def test_payment_never_exceeds_declared_value(self, contended_instance):
        algorithm = partial(bounded_ufp, epsilon=1.0)
        allocation = algorithm(contended_instance)
        payments = compute_ufp_payments(algorithm, contended_instance, allocation)
        for idx in allocation.selected_indices():
            assert payments[idx] <= contended_instance.requests[idx].value + 1e-9
        # Losers pay zero.
        assert payments[2] == 0.0

    def test_uncontended_winner_pays_zero(self, roomy_diamond_instance):
        algorithm = partial(bounded_ufp, epsilon=1.0)
        allocation = algorithm(roomy_diamond_instance)
        payments = compute_ufp_payments(algorithm, roomy_diamond_instance, allocation)
        np.testing.assert_allclose(payments, 0.0, atol=1e-6)

    def test_critical_value_on_loser_raises(self, contended_instance):
        algorithm = partial(bounded_ufp, epsilon=1.0)
        with pytest.raises(MechanismError):
            critical_value_ufp(algorithm, contended_instance, 2)

    def test_payments_restricted_to_subset(self, contended_instance):
        algorithm = partial(bounded_ufp, epsilon=1.0)
        allocation = algorithm(contended_instance)
        payments = compute_ufp_payments(
            algorithm, contended_instance, allocation, winners=[0]
        )
        assert payments[0] > 0.0
        assert payments[1] == 0.0

    def test_muca_critical_value(self):
        instance = MUCAInstance(
            np.array([2.0]),
            [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 2.0)],
        )
        algorithm = partial(bounded_muca, epsilon=1.0)
        allocation = algorithm(instance)
        assert allocation.is_winner(0)
        payment = critical_value_muca(algorithm, instance, 0)
        # Must beat the displaced bid of value 2.
        assert payment == pytest.approx(2.0, abs=1e-3)
        payments = compute_muca_payments(algorithm, instance, allocation)
        assert payments[0] == pytest.approx(payment, abs=1e-6)


class TestTruthfulMechanisms:
    def test_ufp_mechanism_end_to_end(self, contended_instance):
        result = run_truthful_ufp_mechanism(contended_instance, epsilon=1.0)
        assert result.social_welfare >= 5.0
        assert 0.0 <= result.revenue <= result.social_welfare + 1e-9
        winner = next(iter(result.allocation.selected_indices()))
        true_value = contended_instance.requests[winner].value
        assert result.utility_of(winner, true_value) >= -1e-9

    def test_ufp_mechanism_without_payments(self, contended_instance):
        result = run_truthful_ufp_mechanism(
            contended_instance, epsilon=1.0, compute_payments=False
        )
        assert result.revenue == 0.0

    def test_muca_mechanism_end_to_end(self):
        instance = MUCAInstance(
            np.array([3.0, 3.0]),
            [Bid((0,), 4.0), Bid((0, 1), 3.0), Bid((1,), 2.0), Bid((0,), 1.0)],
        )
        result = run_truthful_muca_mechanism(instance, epsilon=1.0)
        assert result.social_welfare > 0.0
        assert result.revenue >= 0.0
        assert result.payments.shape == (4,)

    def test_custom_algorithm_override(self, contended_instance):
        calls = []

        def spy(instance):
            calls.append(1)
            return bounded_ufp(instance, 1.0)

        run_truthful_ufp_mechanism(contended_instance, epsilon=1.0, algorithm=spy)
        assert len(calls) >= 1


class TestMonotonicityAudits:
    def test_bounded_ufp_passes(self):
        instance = random_instance(
            num_vertices=8, edge_probability=0.35, capacity=8.0,
            num_requests=15, demand_range=(0.4, 1.0), seed=0,
        )
        report = check_ufp_monotonicity(
            partial(bounded_ufp, epsilon=0.5), instance, trials_per_request=3, seed=1
        )
        assert report.is_monotone
        assert report.trials == 3 * instance.num_requests
        assert report.violation_rate == 0.0
        assert "monotone" in report.summary()

    def test_non_monotone_rule_is_caught(self, contended_instance):
        """A deliberately broken rule (selects the *lowest* value request)
        must fail the audit: raising a loser's value makes it win."""

        def value_averse(instance):
            order = sorted(
                range(instance.num_requests), key=lambda i: instance.requests[i].value
            )
            winner = order[0]
            from repro.flows.allocation import Allocation

            return Allocation.from_paths(instance, [(winner, [0, 1])], algorithm="bad")

        report = check_ufp_monotonicity(
            value_averse, contended_instance, trials_per_request=4, seed=2
        )
        assert not report.is_monotone
        assert report.violations
        assert "NOT monotone" in report.summary()
        assert "promoted" in report.violations[0].describe() or "dropped" in report.violations[0].describe()

    def test_randomized_rounding_violations_are_pinned(self):
        """Randomized rounding with fresh coins per run, as E4 deploys it:
        each run draws the next coin seed, so the report depends on the
        check's call order (one base run, then one run per trial, with the
        trial's draws just before it).  Pinned exactly."""
        from repro.baselines.randomized_rounding import randomized_rounding_ufp

        instance = random_instance(
            num_vertices=8, edge_probability=0.3, capacity=3.0,
            num_requests=12, demand_range=(0.5, 1.0), seed=3,
        )
        coins = iter(range(10**9))

        def rounding(declared):
            return randomized_rounding_ufp(declared, 0.15, seed=1009 + next(coins))

        report = check_ufp_monotonicity(
            rounding, instance, trials_per_request=2, seed=103
        )
        assert report.trials == 24
        assert next(coins) == 25  # one base run plus one run per trial
        assert [
            (v.agent_index, v.original_type, v.deviated_type,
             v.originally_selected, v.deviated_selected)
            for v in report.violations
        ] == [
            (2, (0.542447386082734, 0.7902913721982716),
             (0.42902545352092397, 1.483661415440859), True, False),
            (3, (0.9293209660829522, 0.6901324695774581),
             (0.5643532661979702, 2.0150112947156003), True, False),
            (5, (0.8540723853436208, 0.8205308291458222),
             (1.0, 0.40768269817022224), False, True),
            (6, (0.8529795214934435, 0.5778237915899378),
             (0.3808706437985715, 1.0476844476793015), True, False),
        ]

    def test_value_averse_muca_rule_is_caught(self):
        """A rule that sells the single item to the *lowest* bid: raising
        the winner's value drops it, lowering a loser's value promotes it.
        Violations report the ``(value,)`` type."""
        from repro.auctions.allocation import MUCAAllocation

        def value_averse(auction):
            lowest = min(range(auction.num_bids), key=lambda i: auction.bids[i].value)
            return MUCAAllocation.from_winners(auction, [lowest])

        instance = MUCAInstance(
            np.array([2.0]), [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 2.0)]
        )
        report = check_muca_monotonicity(
            value_averse, instance, trials_per_bid=4, seed=2
        )
        assert report.trials == 12
        assert not report.is_monotone
        assert [
            (v.agent_index, v.original_type, v.deviated_type,
             v.originally_selected, v.deviated_selected)
            for v in report.violations
        ] == [
            (0, (5.0,), (1.3676637685403878,), False, True),
            (1, (3.0,), (1.0509625760798484,), False, True),
            (1, (3.0,), (0.7323519055993637,), False, True),
            (2, (2.0,), (3.0998774716241524,), True, False),
            (2, (2.0,), (4.62973205950237,), True, False),
            (2, (2.0,), (4.2490626511217116,), True, False),
        ]
        assert "promoted" in report.violations[0].describe()
        assert "dropped" in report.violations[-1].describe()

    def test_muca_audit_passes_for_bounded_muca(self):
        from repro.auctions import random_auction

        auction = random_auction(num_items=8, num_bids=20, multiplicity=12.0, seed=3)
        report = check_muca_monotonicity(
            partial(bounded_muca, epsilon=0.5), auction, trials_per_bid=3, seed=4
        )
        assert report.is_monotone

    def test_exactness_check(self, contended_instance):
        allocation = bounded_ufp(contended_instance, 1.0)
        assert check_exactness(allocation)
        # An allocation with a duplicated request is not exact.
        from repro.flows.allocation import Allocation

        duplicated = Allocation.from_paths(
            contended_instance, [(0, [0, 1]), (0, [0, 1])]
        )
        assert not check_exactness(duplicated)


class TestTruthfulnessAudits:
    def test_bounded_ufp_mechanism_is_truthful(self, contended_instance):
        report = audit_ufp_truthfulness(
            partial(bounded_ufp, epsilon=1.0),
            contended_instance,
            misreports_per_agent=5,
            seed=0,
        )
        assert report.is_truthful
        assert report.agents_audited == 3
        assert report.misreports_tried >= 15
        assert "truthful" in report.summary()

    def test_bounded_muca_mechanism_is_truthful(self):
        instance = MUCAInstance(
            np.array([2.0]),
            [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 2.0)],
        )
        report = audit_muca_truthfulness(
            partial(bounded_muca, epsilon=1.0), instance, misreports_per_agent=5, seed=1
        )
        assert report.is_truthful

    def test_first_price_rule_fails_the_audit(self, contended_instance):
        """Charging winners their *declared* value (first price) is not
        truthful: shading the bid down towards the critical value is a
        profitable deviation.  The audit must detect it."""

        def first_price_outcome(algorithm, instance, index):
            allocation = algorithm(instance)
            if not allocation.is_selected(index):
                return False, 0.0
            return True, instance.requests[index].value

        # Recreate the audit loop with the broken payment rule.
        algorithm = partial(bounded_ufp, epsilon=1.0)
        truthful_selected, truthful_payment = first_price_outcome(
            algorithm, contended_instance, 0
        )
        agent = UFPAgent.truthful(contended_instance.requests[0])
        truthful_utility = agent.utility(truthful_selected, truthful_payment)
        # Shade the declared value down to 2.5 (still above the competition).
        lie = contended_instance.requests[0].with_value(2.5)
        lie_instance = contended_instance.replace_request(0, lie)
        lie_selected, lie_payment = first_price_outcome(algorithm, lie_instance, 0)
        lie_agent = UFPAgent(
            true_request=contended_instance.requests[0], declared_request=lie
        )
        assert lie_agent.utility(lie_selected, lie_payment) > truthful_utility + 0.5

    def test_audit_subset_of_agents(self, contended_instance):
        report = audit_ufp_truthfulness(
            partial(bounded_ufp, epsilon=1.0),
            contended_instance,
            agents=[0],
            misreports_per_agent=2,
            seed=3,
        )
        assert report.agents_audited == 1

    @pytest.mark.parametrize("use_trace", [False, True])
    @pytest.mark.parametrize("kind", ["ufp", "muca"])
    @pytest.mark.parametrize("position", ["negative", "past_end"])
    def test_audit_rejects_out_of_range_agents(
        self, contended_instance, kind, position, use_trace
    ):
        """Every audited index must lie in ``[0, n)``: a negative index must
        not audit the last agent, nor one past the end fail elsewhere."""
        if kind == "ufp":
            audit, algorithm = audit_ufp_truthfulness, partial(bounded_ufp, epsilon=1.0)
            instance = contended_instance
            count = instance.num_requests
        else:
            audit, algorithm = audit_muca_truthfulness, partial(bounded_muca, epsilon=1.0)
            instance = MUCAInstance(
                np.array([2.0]), [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 2.0)]
            )
            count = instance.num_bids
        index = -1 if position == "negative" else count
        message = f"agent index {index} is out of range for {count} agents"
        with pytest.raises(IndexError, match=re.escape(message)):
            audit(algorithm, instance, agents=[index], seed=0, use_trace=use_trace)


@pytest.mark.property
class TestTruthfulnessPerturbationGrids:
    """Deviation sweeps over explicit misreport grids on random instances.

    These go beyond the random-draw audits above: every audited agent is
    perturbed across the full factor grid, so the coverage is deterministic
    and seed-independent.
    """

    UFP_GRID = [
        (d, v)
        for d in (0.5, 1.0, 2.0)
        for v in (0.25, 0.5, 1.0, 2.0, 4.0)
        if (d, v) != (1.0, 1.0)
    ]
    MUCA_GRID = [0.1, 0.5, 0.9, 1.1, 2.0, 5.0]

    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_no_ufp_agent_gains_across_the_grid(self, seed):
        instance = random_instance(
            num_vertices=7, edge_probability=0.35, capacity=8.0,
            num_requests=10, demand_range=(0.4, 1.0), seed=seed,
        )
        report = audit_ufp_truthfulness(
            partial(bounded_ufp, epsilon=0.5),
            instance,
            misreports_per_agent=0,
            misreport_grid=self.UFP_GRID,
            seed=seed,
        )
        assert report.is_truthful, report.summary()
        # Every agent saw the whole grid plus the structured inflation lie.
        assert report.misreports_tried >= len(self.UFP_GRID) * instance.num_requests

    @pytest.mark.parametrize("seed", [5, 23])
    def test_no_muca_bidder_gains_across_the_grid(self, seed):
        from repro.auctions import random_auction

        auction = random_auction(
            num_items=6, num_bids=12, multiplicity=6.0,
            bundle_size_range=(1, 3), seed=seed,
        )
        report = audit_muca_truthfulness(
            partial(bounded_muca, epsilon=0.5),
            auction,
            misreports_per_agent=0,
            value_grid=self.MUCA_GRID,
            seed=seed,
        )
        assert report.is_truthful, report.summary()
        assert report.misreports_tried >= len(self.MUCA_GRID) * auction.num_bids
