"""E2 — Figure 2 / Theorem 3.11: the directed staircase lower bound.

Running any reasonable iterative path minimizing algorithm on the staircase
with the adversarial tie-breaking of the proof satisfies only a
``1 - (B/(B+1))^B`` fraction of the optimum ``B * ell`` (up to an additive
``B^2`` integrality slack), so its approximation ratio approaches
``e/(e-1) ~ 1.582`` as ``B`` grows.  The experiment measures that fraction
for several members of the family (the Bounded-UFP priority ``h``, the
hop-biased ``h1``, the reduced uniform form) and for the subdivided
tie-elimination variant run under ``Bounded-UFP`` itself.
"""

from __future__ import annotations

from repro import parallel
from repro.core.bounded_ufp import bounded_ufp
from repro.core.reasonable import (
    BoundedUFPPriority,
    HopBiasedPriority,
    ReasonableIterativePathMinimizer,
    UnitCapacityPriority,
    staircase_tie_break,
)
from repro.experiments.harness import CellOutcome, ExperimentResult, ratio
from repro.flows.generators import staircase_instance
from repro.types import E_OVER_E_MINUS_1

EXPERIMENT_ID = "E2"
TITLE = "Directed staircase lower bound (Figure 2, Theorem 3.11)"
PAPER_CLAIM = (
    "on the staircase, reasonable iterative path minimizers satisfy at most "
    "B*ell*(1-(B/(B+1))^B) + B^2, i.e. ratio -> e/(e-1)"
)


def _family_members(epsilon: float, capacity: float) -> dict[str, ReasonableIterativePathMinimizer]:
    base = BoundedUFPPriority(epsilon, capacity)
    return {
        "h (Bounded-UFP priority)": ReasonableIterativePathMinimizer(
            base, tie_break=staircase_tie_break
        ),
        "h1 (hop-biased)": ReasonableIterativePathMinimizer(
            HopBiasedPriority(base), tie_break=staircase_tie_break
        ),
        "uniform reduced form": ReasonableIterativePathMinimizer(
            UnitCapacityPriority(epsilon, capacity), tie_break=staircase_tie_break
        ),
    }


def _cell(task) -> CellOutcome:
    """One ``(ell, B)`` staircase cell (fully deterministic)."""
    ell, B, epsilon = task
    outcome = CellOutcome()
    instance = staircase_instance(ell, B)
    optimum = instance.metadata["known_optimum"]
    bound = instance.metadata["reasonable_upper_bound"]
    paper_fraction = 1.0 - (B / (B + 1.0)) ** B

    for label, algorithm in _family_members(epsilon, float(B)).items():
        allocation = algorithm.run(instance)
        allocation.validate()
        fraction = allocation.value / optimum
        outcome.add_row(
            ell=ell,
            B=B,
            algorithm=label,
            value=allocation.value,
            optimum=optimum,
            fraction=fraction,
            paper_fraction_bound=paper_fraction,
            implied_ratio=ratio(optimum, allocation.value),
            **{"e/(e-1)": E_OVER_E_MINUS_1},
        )
        outcome.claim(PAPER_CLAIM, allocation.value <= bound + 1e-9)
        outcome.claim(
            "the adversarial schedule leaves value on the table "
            "(strictly below the optimum)",
            allocation.value < optimum - 1e-9,
        )

    # The tie-elimination variant: Bounded-UFP itself on the subdivided
    # staircase (no adversarial tie-break involved).  Use eps = 1 and a
    # capacity large enough that the budget stopping rule
    # (e^{eps (B-1)} >= m) does not fire before the instance is exhausted
    # on the much larger subdivided graph; the fraction is measured
    # against that instance's own optimum B' * ell.
    sub_B = max(B, 12)
    subdivided = staircase_instance(ell, sub_B, subdivide=True)
    sub_optimum = subdivided.metadata["known_optimum"]
    sub_bound = subdivided.metadata["reasonable_upper_bound"]
    allocation = bounded_ufp(subdivided, 1.0)
    allocation.validate()
    outcome.add_row(
        ell=ell,
        B=sub_B,
        algorithm="Bounded-UFP on subdivided staircase",
        value=allocation.value,
        optimum=sub_optimum,
        fraction=allocation.value / sub_optimum,
        paper_fraction_bound=1.0 - (sub_B / (sub_B + 1.0)) ** sub_B,
        implied_ratio=ratio(sub_optimum, allocation.value),
        **{"e/(e-1)": E_OVER_E_MINUS_1},
    )
    outcome.claim(
        "Bounded-UFP on the subdivided staircase also stays below the optimum "
        "(Theorem 3.11 tie-elimination argument)",
        allocation.value <= sub_bound + 1e-9,
    )
    return outcome


def run(
    *, quick: bool = True, seed: int | None = None, jobs: int | None = None
) -> ExperimentResult:
    """Run the E2 staircase sweep (``seed`` is unused — fully deterministic)."""
    del seed
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "ell", "B", "algorithm", "value", "optimum", "fraction",
            "paper_fraction_bound", "implied_ratio", "e/(e-1)",
        ],
    )
    epsilon = 0.5
    cells = [(10, 4), (16, 6)] if quick else [(10, 4), (16, 6), (24, 8), (32, 10)]
    result.merge(
        parallel.pmap(_cell, [(ell, B, epsilon) for ell, B in cells], jobs=jobs)
    )

    result.notes = (
        "fractions converge to 1 - 1/e ~ 0.632 from above as B grows; the implied "
        "ratio therefore converges to e/(e-1) ~ 1.582 from below."
    )
    return result
