"""E1 — Theorem 3.1 / Corollary 3.2: the Bounded-UFP approximation guarantee.

For random large-capacity instances, run ``Bounded-UFP(eps)`` and compare its
value against the fractional LP optimum (an upper bound on the integral
optimum).  Lemma 3.8 states that for ``B >= ln(m)/eps^2`` the ratio is at
most ``(1 + 6 eps) * e/(e-1)``; the experiment sweeps ``eps`` and ``B`` and
checks that bound (plus feasibility, exactness and the ``<= |R|`` iteration
bound) cell by cell.
"""

from __future__ import annotations

import math

from repro import parallel
from repro.core.bounded_ufp import bounded_ufp
from repro.experiments.harness import CellOutcome, ExperimentResult, ratio
from repro.flows.generators import random_instance
from repro.lp.fractional_ufp import solve_fractional_ufp
from repro.mechanism.monotonicity import check_exactness
from repro.types import E_OVER_E_MINUS_1
from repro.utils.prng import spawn_rngs

EXPERIMENT_ID = "E1"
TITLE = "Bounded-UFP approximation vs fractional optimum (Theorem 3.1)"
PAPER_CLAIM = "value(Bounded-UFP(eps)) >= OPT / ((1 + 6 eps) e/(e-1)) when B >= ln(m)/eps^2"


def _cell(task) -> CellOutcome:
    """One (cell, repeat) measurement; ``task`` carries its own RNG."""
    (eps, capacity, num_vertices, edge_probability, num_requests, demand_low), rng = task
    outcome = CellOutcome()
    instance = random_instance(
        num_vertices=num_vertices,
        edge_probability=edge_probability,
        capacity=capacity,
        num_requests=num_requests,
        demand_range=(demand_low, 1.0),
        seed=rng,
    )
    allocation = bounded_ufp(instance, eps)
    allocation.validate()
    fractional = solve_fractional_ufp(instance)
    measured = ratio(fractional.objective, allocation.value)
    guarantee = (1.0 + 6.0 * eps) * E_OVER_E_MINUS_1
    meets_assumption = instance.meets_capacity_assumption(eps)
    within = (measured <= guarantee + 1e-9) or not meets_assumption

    outcome.add_row(
        eps=eps,
        B=instance.capacity_bound(),
        n=instance.num_vertices,
        m=instance.num_edges,
        requests=instance.num_requests,
        alg_value=allocation.value,
        frac_opt=fractional.objective,
        measured_ratio=measured,
        paper_guarantee=guarantee,
        within_guarantee=within,
        iterations=allocation.stats.iterations,
    )
    outcome.claim("allocation is feasible (Lemma 3.3)", allocation.is_feasible())
    outcome.claim("allocation is exact (Definition 2.2)", check_exactness(allocation))
    outcome.claim(
        "iterations bounded by |R| (Theorem 3.1 running time)",
        allocation.stats.iterations <= instance.num_requests,
    )
    if meets_assumption:
        outcome.claim(PAPER_CLAIM, measured <= guarantee + 1e-9)
    outcome.claim(
        "algorithm value never exceeds the fractional optimum (weak duality)",
        allocation.value <= fractional.objective + 1e-6,
    )
    return outcome


def run(
    *, quick: bool = True, seed: int | None = None, jobs: int | None = None
) -> ExperimentResult:
    """Run the E1 sweep.

    Parameters
    ----------
    quick:
        Use the reduced sweep (3 cells) suitable for CI / benchmarks; the
        full sweep covers more ``eps``/``B``/size combinations.
    seed:
        Root seed of the sweep (deterministic default).
    jobs:
        Worker processes for the cell fan-out (results are bit-identical at
        any ``jobs``; see :func:`repro.parallel.pmap`).
    """
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "eps", "B", "n", "m", "requests", "alg_value", "frac_opt",
            "measured_ratio", "paper_guarantee", "within_guarantee", "iterations",
        ],
    )

    # Cells are (eps, capacity, num_vertices, edge_probability, num_requests,
    # demand_low).  The small dense graphs with many near-unit demands are the
    # *contended* cells, where the algorithm actually has to reject requests;
    # the larger sparse graphs are the easy cells where it should be
    # near-optimal.
    if quick:
        cells = [
            (0.30, 60.0, 14, 0.25, 40, 0.1),
            (0.40, 22.0, 6, 0.50, 260, 0.6),
            (0.25, 90.0, 14, 0.25, 60, 0.1),
        ]
        repeats = 1
    else:
        cells = [
            (0.35, 50.0, 16, 0.25, 60, 0.1),
            (0.30, 60.0, 16, 0.25, 80, 0.1),
            (0.25, 90.0, 16, 0.25, 80, 0.1),
            (0.20, 130.0, 16, 0.25, 80, 0.1),
            (0.16667, 180.0, 14, 0.25, 70, 0.1),
            (0.40, 22.0, 6, 0.50, 300, 0.6),
            (0.45, 18.0, 6, 0.50, 260, 0.7),
        ]
        repeats = 3

    rngs = spawn_rngs(seed, len(cells) * repeats)
    tasks = [
        (cell, rngs[position * repeats + repeat])
        for position, cell in enumerate(cells)
        for repeat in range(repeats)
    ]
    result.merge(parallel.pmap(_cell, tasks, jobs=jobs))

    result.notes = (
        "Random directed G(n, p) workloads; ratios are against the fractional LP "
        "optimum, which upper-bounds the integral optimum, so measured ratios "
        "over-estimate the true approximation factor."
    )
    if not any(math.isfinite(row["measured_ratio"]) for row in result.rows):
        result.claim("at least one cell produced a finite ratio", False)
    return result
