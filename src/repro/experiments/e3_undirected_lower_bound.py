"""E3 — Figure 3 / Theorem 3.12: the undirected 4/3 lower bound.

On the 7-vertex instance of Figure 3 any reasonable iterative path minimizer
(with the proof's adversarial tie-breaking) achieves at most ``3B`` while the
optimum is ``4B`` — for every capacity ``B``, so even arbitrarily large
capacities do not admit a PTAS within this family (Corollary 3.13).
"""

from __future__ import annotations

from repro import parallel
from repro.core.reasonable import (
    BoundedUFPPriority,
    HopBiasedPriority,
    ReasonableIterativePathMinimizer,
    UnitCapacityPriority,
    ring7_tie_break,
)
from repro.experiments.harness import CellOutcome, ExperimentResult, ratio
from repro.flows.generators import ring7_instance
from repro.lp.fractional_ufp import solve_fractional_ufp

EXPERIMENT_ID = "E3"
TITLE = "Undirected 7-vertex lower bound (Figure 3, Theorem 3.12)"
PAPER_CLAIM = "reasonable path minimizers achieve at most 3B out of the optimal 4B"


def _cell(task) -> CellOutcome:
    """One capacity ``B`` on the Figure 3 ring (fully deterministic)."""
    B, epsilon = task
    outcome = CellOutcome()
    instance = ring7_instance(B)
    optimum = instance.metadata["known_optimum"]
    upper = instance.metadata["reasonable_upper_bound"]
    # The fractional optimum equals the integral optimum 4B here, which
    # certifies the "optimum" used in the ratio.
    fractional = solve_fractional_ufp(instance)
    outcome.claim(
        "the fractional optimum matches the known optimum 4B on Figure 3",
        abs(fractional.objective - optimum) <= 1e-6 * max(1.0, optimum),
    )

    algorithms = {
        "h (Bounded-UFP priority)": ReasonableIterativePathMinimizer(
            BoundedUFPPriority(epsilon, float(B)), tie_break=ring7_tie_break
        ),
        "h1 (hop-biased)": ReasonableIterativePathMinimizer(
            HopBiasedPriority(BoundedUFPPriority(epsilon, float(B))),
            tie_break=ring7_tie_break,
        ),
        "uniform reduced form": ReasonableIterativePathMinimizer(
            UnitCapacityPriority(epsilon, float(B)), tie_break=ring7_tie_break
        ),
    }
    for label, algorithm in algorithms.items():
        allocation = algorithm.run(instance)
        allocation.validate()
        outcome.add_row(
            B=B,
            algorithm=label,
            value=allocation.value,
            optimum=optimum,
            measured_ratio=ratio(optimum, allocation.value),
            paper_ratio_bound=4.0 / 3.0,
            frac_opt=fractional.objective,
        )
        outcome.claim(PAPER_CLAIM, allocation.value <= upper + 1e-9)
        outcome.claim(
            "measured ratio is at least 4/3 under the adversarial schedule",
            ratio(optimum, allocation.value) >= 4.0 / 3.0 - 1e-9,
        )
    return outcome


def run(
    *, quick: bool = True, seed: int | None = None, jobs: int | None = None
) -> ExperimentResult:
    """Run the E3 sweep over capacities (deterministic; ``seed`` unused)."""
    del seed
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "B", "algorithm", "value", "optimum", "measured_ratio",
            "paper_ratio_bound", "frac_opt",
        ],
    )
    capacities = [4, 8] if quick else [4, 8, 16, 32, 64]
    epsilon = 0.5
    result.merge(parallel.pmap(_cell, [(B, epsilon) for B in capacities], jobs=jobs))

    result.notes = (
        "the 4/3 gap is capacity-independent: increasing B does not help any "
        "reasonable iterative path minimizer on this instance."
    )
    return result
