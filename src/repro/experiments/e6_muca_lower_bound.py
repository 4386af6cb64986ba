"""E6 — Figure 4 / Theorem 4.5: the 4/3 auction lower bound.

On the partition family, a reasonable iterative bundle minimizing algorithm
(with the proof's tie-breaking towards "row" bids) achieves at most
``(3p + 1)/4 * B`` of the optimum ``p * B``: the measured ratio
``4p / (3p + 1)`` approaches ``4/3`` as ``p`` grows.
"""

from __future__ import annotations

from repro import parallel
from repro.auctions.lower_bounds import partition_instance
from repro.core.reasonable import (
    BundleExponentialPriority,
    ReasonableIterativeBundleMinimizer,
    partition_tie_break,
)
from repro.experiments.harness import CellOutcome, ExperimentResult, ratio
from repro.lp.fractional_muca import solve_fractional_muca

EXPERIMENT_ID = "E6"
TITLE = "Multi-unit auction lower bound (Figure 4, Theorem 4.5)"
PAPER_CLAIM = "reasonable bundle minimizers achieve at most (3p+1)/4 * B out of the optimal p * B"


def _cell(task) -> CellOutcome:
    """One ``(p, B)`` partition-family cell (fully deterministic)."""
    p, B, epsilon = task
    outcome = CellOutcome()
    instance = partition_instance(p, B)
    optimum = instance.metadata["known_optimum"]
    upper = instance.metadata["reasonable_upper_bound"]

    fractional = solve_fractional_muca(instance)
    outcome.claim(
        "the fractional optimum is at least the known optimum p*B",
        fractional.objective >= optimum - 1e-6,
    )

    algorithm = ReasonableIterativeBundleMinimizer(
        BundleExponentialPriority(epsilon, float(B)), tie_break=partition_tie_break
    )
    allocation = algorithm.run(instance)
    allocation.validate()
    measured = ratio(optimum, allocation.value)
    outcome.add_row(
        p=p,
        B=B,
        items=instance.num_items,
        bids=instance.num_bids,
        value=allocation.value,
        optimum=optimum,
        measured_ratio=measured,
        paper_ratio_4p_over_3p1=4.0 * p / (3.0 * p + 1.0),
        limit_4_3=4.0 / 3.0,
    )
    outcome.claim(PAPER_CLAIM, allocation.value <= upper + 1e-9)
    outcome.claim(
        "the measured ratio matches the predicted 4p/(3p+1) exactly",
        abs(measured - 4.0 * p / (3.0 * p + 1.0)) <= 1e-9,
    )
    return outcome


def run(
    *, quick: bool = True, seed: int | None = None, jobs: int | None = None
) -> ExperimentResult:
    """Run the E6 sweep over ``p`` (deterministic; ``seed`` unused)."""
    del seed
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "p", "B", "items", "bids", "value", "optimum", "measured_ratio",
            "paper_ratio_4p_over_3p1", "limit_4_3",
        ],
    )
    cells = [(3, 4), (5, 4)] if quick else [(3, 4), (5, 4), (7, 6), (9, 6), (11, 8)]
    epsilon = 0.5
    result.merge(parallel.pmap(_cell, [(p, B, epsilon) for p, B in cells], jobs=jobs))

    result.notes = "ratios increase towards 4/3 as p grows, independent of B."
    return result
