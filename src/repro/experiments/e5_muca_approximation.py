"""E5 — Theorem 4.1 / Corollary 4.2: the Bounded-MUCA approximation guarantee.

Random multi-unit auctions with ``B >= ln(m)/eps^2``: the value of
``Bounded-MUCA(eps)`` is within ``(1 + 6 eps) e/(e-1)`` of the fractional LP
optimum, the allocation is feasible, and the rule is monotone in the values
(spot-checked here; the full audit is E4's job for UFP and the unit tests'
job for MUCA).
"""

from __future__ import annotations

from functools import partial

from repro import parallel
from repro.auctions.generators import correlated_auction, random_auction
from repro.core.bounded_muca import bounded_muca
from repro.experiments.harness import CellOutcome, ExperimentResult, ratio
from repro.lp.fractional_muca import solve_fractional_muca
from repro.mechanism.monotonicity import check_muca_monotonicity
from repro.types import E_OVER_E_MINUS_1
from repro.utils.prng import spawn_rngs

EXPERIMENT_ID = "E5"
TITLE = "Bounded-MUCA approximation vs fractional optimum (Theorem 4.1)"
PAPER_CLAIM = "value(Bounded-MUCA(eps)) >= OPT / ((1 + 6 eps) e/(e-1)) when B >= ln(m)/eps^2"


def _cell(task) -> CellOutcome:
    """One auction sweep cell, or the monotonicity spot check."""
    outcome = CellOutcome()
    if task[0] == "spot":
        _, rng = task
        # A small monotonicity spot check (value dimension only).
        spot = random_auction(num_items=10, num_bids=25, multiplicity=20.0, seed=rng)
        report = check_muca_monotonicity(
            partial(bounded_muca, epsilon=0.3), spot, trials_per_bid=2, seed=rng
        )
        outcome.claim(
            "Bounded-MUCA passes the value-monotonicity spot check", report.is_monotone
        )
        return outcome

    (kind, eps, multiplicity, num_items, num_bids), rng = task
    if kind == "uniform":
        instance = random_auction(
            num_items=num_items,
            num_bids=num_bids,
            multiplicity=multiplicity,
            bundle_size_range=(1, 4),
            seed=rng,
        )
    else:
        instance = correlated_auction(
            num_items=num_items,
            num_bids=num_bids,
            multiplicity=multiplicity,
            seed=rng,
        )
    allocation = bounded_muca(instance, eps)
    allocation.validate()
    fractional = solve_fractional_muca(instance)
    measured = ratio(fractional.objective, allocation.value)
    guarantee = (1.0 + 6.0 * eps) * E_OVER_E_MINUS_1
    meets = instance.meets_capacity_assumption(eps)
    within = (measured <= guarantee + 1e-9) or not meets

    outcome.add_row(
        workload=kind,
        eps=eps,
        B=instance.capacity_bound(),
        items=instance.num_items,
        bids=instance.num_bids,
        alg_value=allocation.value,
        frac_opt=fractional.objective,
        measured_ratio=measured,
        paper_guarantee=guarantee,
        within_guarantee=within,
    )
    outcome.claim("auction allocation is feasible", allocation.is_feasible())
    if meets:
        outcome.claim(PAPER_CLAIM, measured <= guarantee + 1e-9)
    outcome.claim(
        "algorithm value never exceeds the fractional optimum",
        allocation.value <= fractional.objective + 1e-6,
    )
    return outcome


def run(
    *, quick: bool = True, seed: int | None = None, jobs: int | None = None
) -> ExperimentResult:
    """Run the E5 sweep."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "workload", "eps", "B", "items", "bids", "alg_value", "frac_opt",
            "measured_ratio", "paper_guarantee", "within_guarantee",
        ],
    )
    if quick:
        cells = [
            ("uniform", 0.30, 50.0, 20, 80),
            ("correlated", 0.25, 80.0, 24, 100),
        ]
    else:
        cells = [
            ("uniform", 0.35, 40.0, 24, 120),
            ("uniform", 0.30, 50.0, 24, 120),
            ("uniform", 0.25, 80.0, 30, 150),
            ("correlated", 0.30, 50.0, 24, 120),
            ("correlated", 0.25, 80.0, 30, 150),
            ("correlated", 0.20, 130.0, 30, 150),
        ]
    # One generator per sweep cell plus a dedicated one for the spot check
    # (the historical code reused the consumed rngs[0]; a dedicated child
    # keeps the spot check independent of cell evaluation order).
    rngs = spawn_rngs(seed, len(cells) + 1)
    tasks: list = list(zip(cells, rngs[: len(cells)]))
    tasks.append(("spot", rngs[len(cells)]))
    result.merge(parallel.pmap(_cell, tasks, jobs=jobs))

    result.notes = "ratios measured against the fractional packing LP optimum."
    return result
