"""Cross-module integration tests.

Each test exercises a full pipeline — instance generation, algorithm, LP
bound, mechanism, audit — the way a downstream user would chain the public
API, asserting the relationships the paper's theory promises between the
pieces (algorithm <= exact <= fractional, truthful payments, consistency of
the two fractional solvers, etc.).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.auctions import partition_instance, random_auction
from repro.baselines import (
    briest_style_ufp,
    exact_ufp,
    greedy_ufp_by_value,
    randomized_rounding_ufp,
)
from repro.core import (
    BoundedUFPPriority,
    ReasonableIterativePathMinimizer,
    bounded_muca,
    bounded_ufp,
    bounded_ufp_repeat,
    staircase_tie_break,
)
from repro.flows import random_instance, staircase_instance
from repro.lp import solve_fractional_muca, solve_fractional_ufp
from repro.mechanism import (
    audit_ufp_truthfulness,
    check_ufp_monotonicity,
    run_truthful_muca_mechanism,
    run_truthful_ufp_mechanism,
)
from repro.types import E_OVER_E_MINUS_1


class TestValueChainOrdering:
    """algorithm value <= exact optimum <= fractional optimum, across solvers."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ufp_value_chain(self, seed):
        instance = random_instance(
            num_vertices=6, edge_probability=0.45, capacity=2.0,
            num_requests=9, demand_range=(0.5, 1.0), seed=seed,
        )
        exact = exact_ufp(instance, max_path_hops=5).value
        fractional = solve_fractional_ufp(instance).objective

        for algorithm in (
            lambda i: bounded_ufp(i, 1.0),
            greedy_ufp_by_value,
            lambda i: briest_style_ufp(i, 1.0),
            lambda i: randomized_rounding_ufp(i, 0.2, seed=seed),
        ):
            allocation = algorithm(instance)
            allocation.validate()
            assert allocation.value <= exact + 1e-6

        assert exact <= fractional + 1e-6

    def test_repetitions_dominate_everything_integral(self):
        instance = random_instance(
            num_vertices=6, edge_probability=0.5, capacity=20.0,
            num_requests=10, demand_range=(0.5, 1.0), seed=5,
        )
        plain = bounded_ufp(instance, 0.4).value
        repeat = bounded_ufp_repeat(instance, 0.4).value
        lp_plain = solve_fractional_ufp(instance).objective
        lp_repeat = solve_fractional_ufp(instance, repetitions=True).objective
        assert plain <= lp_plain + 1e-6
        assert repeat <= lp_repeat + 1e-6
        assert repeat >= plain - 1e-9
        assert lp_repeat >= lp_plain - 1e-9


class TestEndToEndMechanisms:
    def test_truthful_ufp_pipeline_on_isp_style_workload(self):
        instance = random_instance(
            num_vertices=8, edge_probability=0.4, capacity=12.0,
            num_requests=12, demand_range=(0.4, 1.0), seed=11,
        )
        result = run_truthful_ufp_mechanism(instance, epsilon=0.5)
        result.allocation.validate()
        # Individual rationality + no payment for losers.
        for idx, request in enumerate(instance.requests):
            if result.allocation.is_selected(idx):
                assert result.payments[idx] <= request.value + 1e-6
            else:
                assert result.payments[idx] == 0.0
        assert 0.0 <= result.revenue <= result.social_welfare + 1e-9

        audit = audit_ufp_truthfulness(
            partial(bounded_ufp, epsilon=0.5),
            instance,
            agents=list(range(4)),
            misreports_per_agent=3,
            seed=0,
        )
        assert audit.is_truthful

    def test_truthful_muca_pipeline(self):
        auction = random_auction(
            num_items=8, num_bids=25, multiplicity=6.0, bundle_size_range=(1, 3), seed=2
        )
        result = run_truthful_muca_mechanism(auction, epsilon=0.5)
        result.allocation.validate()
        assert result.revenue <= result.social_welfare + 1e-9
        assert np.all(result.payments >= -1e-12)

    def test_monotonicity_audit_of_full_pipeline(self):
        instance = random_instance(
            num_vertices=7, edge_probability=0.4, capacity=10.0,
            num_requests=10, demand_range=(0.4, 1.0), seed=21,
        )
        report = check_ufp_monotonicity(
            partial(bounded_ufp, epsilon=0.5), instance, trials_per_request=3, seed=3
        )
        assert report.is_monotone


class TestPaperHeadlineNumbers:
    def test_headline_ratio_constant(self):
        assert E_OVER_E_MINUS_1 == pytest.approx(1.5819767, abs=1e-6)

    def test_staircase_family_ratio_approaches_e_over_e_minus_1(self):
        """As B grows the adversarial fraction 1 - (B/(B+1))^B approaches
        1 - 1/e from above, so the implied ratio climbs towards e/(e-1)."""
        ratios = []
        for ell, B in [(12, 3), (18, 6), (24, 9)]:
            instance = staircase_instance(ell, B)
            algorithm = ReasonableIterativePathMinimizer(
                BoundedUFPPriority(0.5, float(B)), tie_break=staircase_tie_break
            )
            value = algorithm.run(instance).value
            ratios.append(instance.metadata["known_optimum"] / value)
        assert ratios[0] > ratios[1] > ratios[2]
        assert all(r > E_OVER_E_MINUS_1 - 1e-9 for r in ratios)

    def test_muca_and_ufp_guarantees_consistent(self):
        """Bounded-MUCA inherits Bounded-UFP's analysis (Theorem 4.1 proof):
        on matched workloads in the valid regime both stay within the
        (1 + 6 eps) e/(e-1) factor of their LP bounds."""
        eps = 0.4
        instance = random_instance(
            num_vertices=6, edge_probability=0.5, capacity=22.0,
            num_requests=150, demand_range=(0.6, 1.0), seed=8,
        )
        auction = random_auction(
            num_items=10, num_bids=150, multiplicity=25.0,
            bundle_size_range=(2, 4), seed=8,
        )
        guarantee = (1 + 6 * eps) * E_OVER_E_MINUS_1
        if instance.meets_capacity_assumption(eps):
            ufp_ratio = solve_fractional_ufp(instance).objective / bounded_ufp(instance, eps).value
            assert ufp_ratio <= guarantee + 1e-9
        if auction.meets_capacity_assumption(eps):
            muca_ratio = (
                solve_fractional_muca(auction).objective / bounded_muca(auction, eps).value
            )
            assert muca_ratio <= guarantee + 1e-9

    def test_partition_family_certifies_gap_against_lp(self):
        """The Figure 4 optimum p*B is also the LP optimum, so the 4/3-ish gap
        of the greedy family is a genuine approximation gap, not an artifact
        of a loose bound."""
        instance = partition_instance(5, 4)
        lp = solve_fractional_muca(instance).objective
        assert lp == pytest.approx(instance.metadata["known_optimum"], rel=1e-6)
