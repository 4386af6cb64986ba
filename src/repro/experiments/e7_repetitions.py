"""E7 — Theorem 5.1: unsplittable flow with repetitions is (1+eps)-approximable.

``Bounded-UFP-Repeat(eps)`` is compared against the fractional optimum of the
Figure 5 relaxation (no per-request cap).  Lemma 5.3 gives the guarantee
``OPT/P <= 1 + 6 eps`` for ``B >= ln(m)/eps^2`` — strikingly better than the
``e/(e-1)`` barrier of the no-repetitions problem, which the same experiment
reports side by side for contrast.
"""

from __future__ import annotations

from functools import partial

from repro import parallel
from repro.core.bounded_ufp import bounded_ufp
from repro.core.bounded_ufp_repeat import bounded_ufp_repeat
from repro.experiments.harness import CellOutcome, ExperimentResult, ratio
from repro.flows.generators import random_instance
from repro.lp.fractional_ufp import solve_fractional_ufp
from repro.mechanism.payments import compute_ufp_payments
from repro.types import E_OVER_E_MINUS_1
from repro.utils.prng import spawn_rngs

EXPERIMENT_ID = "E7"
TITLE = "Unsplittable flow with repetitions (Theorem 5.1)"
PAPER_CLAIM = "value(Bounded-UFP-Repeat(eps)) >= OPT_rep / (1 + 6 eps) when B >= ln(m)/eps^2"


def _cell(task) -> CellOutcome:
    """One repetitions-vs-plain cell; ``task`` carries its own RNG."""
    (eps, capacity, num_vertices, num_requests), rng = task
    outcome = CellOutcome()
    instance = random_instance(
        num_vertices=num_vertices,
        edge_probability=0.3,
        capacity=capacity,
        num_requests=num_requests,
        demand_range=(0.3, 1.0),
        seed=rng,
    )
    repeat_allocation = bounded_ufp_repeat(instance, eps)
    repeat_allocation.validate(allow_repetitions=True)
    fractional_rep = solve_fractional_ufp(instance, repetitions=True)
    measured = ratio(fractional_rep.objective, repeat_allocation.value)
    guarantee = 1.0 + 6.0 * eps
    meets = instance.meets_capacity_assumption(eps)

    # Contrast with the no-repetitions problem on the same instance.
    plain_allocation = bounded_ufp(instance, eps)
    fractional_plain = solve_fractional_ufp(instance)
    plain_ratio = ratio(fractional_plain.objective, plain_allocation.value)

    # Revenue of the truthful mechanism induced by the plain (monotone)
    # rule: critical-value payments for every winner, answered from the
    # probe tables of one recorded run.
    replay_stats: dict = {}
    payments = compute_ufp_payments(
        partial(bounded_ufp, epsilon=eps),
        instance,
        plain_allocation,
        replay_stats=replay_stats,
    )
    revenue = float(payments.sum())

    iteration_bound = (
        instance.num_edges * instance.graph.max_capacity / instance.min_demand
    )
    outcome.add_row(
        eps=eps,
        B=instance.capacity_bound(),
        m=instance.num_edges,
        requests=instance.num_requests,
        repeat_value=repeat_allocation.value,
        frac_opt_rep=fractional_rep.objective,
        measured_ratio=measured,
        paper_guarantee=guarantee,
        no_repeat_ratio_vs_its_opt=plain_ratio,
        iteration_bound_m_cmax_over_dmin=iteration_bound,
        iterations=repeat_allocation.stats.iterations,
        truthful_revenue=revenue,
        replay_rounds_recomputed=replay_stats.get("replay_rounds_recomputed", 0.0),
    )
    outcome.claim(
        "critical-value revenue never exceeds the allocated value",
        revenue <= plain_allocation.value + 1e-9,
    )
    outcome.claim("repetition allocation is feasible", repeat_allocation.is_feasible())
    if meets:
        outcome.claim(PAPER_CLAIM, measured <= guarantee + 1e-9)
    outcome.claim(
        "iterations within the m * c_max / d_min running-time bound (Thm. 5.1)",
        repeat_allocation.stats.iterations <= iteration_bound + instance.num_edges,
    )
    outcome.claim(
        "repetition value never exceeds the Figure 5 fractional optimum",
        repeat_allocation.value <= fractional_rep.objective + 1e-6,
    )
    outcome.claim(
        "allowing repetitions never decreases the achievable value",
        repeat_allocation.value >= plain_allocation.value - 1e-9,
    )
    return outcome


def run(
    *,
    quick: bool = True,
    seed: int | None = None,
    jobs: int | None = None,
) -> ExperimentResult:
    """Run the E7 sweep (the revenue payments are answered from probe
    tables, whose work the ``replay_rounds_recomputed`` column counts)."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "eps", "B", "m", "requests", "repeat_value", "frac_opt_rep",
            "measured_ratio", "paper_guarantee", "no_repeat_ratio_vs_its_opt",
            "iteration_bound_m_cmax_over_dmin", "iterations",
            "truthful_revenue", "replay_rounds_recomputed",
        ],
    )
    cells = (
        [(0.30, 40.0, 10, 12), (0.25, 70.0, 10, 14)]
        if quick
        else [(0.35, 35.0, 12, 16), (0.30, 45.0, 12, 16), (0.25, 70.0, 12, 18), (0.20, 110.0, 10, 16)]
    )
    rngs = spawn_rngs(seed, len(cells))
    result.merge(parallel.pmap(_cell, list(zip(cells, rngs)), jobs=jobs))

    result.notes = (
        f"the (1 + 6 eps) guarantee contrasts with the e/(e-1) ~ {E_OVER_E_MINUS_1:.3f} "
        "barrier of the no-repetitions problem (E2)."
    )
    return result
