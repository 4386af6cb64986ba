"""E9 — the running-time claims of Theorems 3.1 and 5.1.

Theorem 3.1: ``Bounded-UFP`` performs at most ``|R|`` iterations, each costing
``O(|R|)`` shortest-path computations.  Theorem 5.1: ``Bounded-UFP-Repeat``
performs at most ``m * c_max / d_min`` iterations.  The experiment measures
iterations, shortest-path calls and wall-clock time across a size sweep and
checks the bounds cell by cell; the wall-clock column documents the empirical
scaling trend (it is not a theorem, so no claim is attached to it).
"""

from __future__ import annotations

from repro import parallel
from repro.core.bounded_ufp import bounded_ufp
from repro.core.bounded_ufp_repeat import bounded_ufp_repeat
from repro.experiments.harness import CellOutcome, ExperimentResult
from repro.flows.generators import random_instance
from repro.utils.prng import spawn_rngs

EXPERIMENT_ID = "E9"
TITLE = "Running-time scaling (Theorems 3.1 and 5.1)"
PAPER_CLAIM = (
    "Bounded-UFP uses <= |R| iterations and <= |R|^2 shortest-path calls; "
    "Bounded-UFP-Repeat uses <= m * c_max / d_min iterations"
)


def _cell(task) -> CellOutcome:
    """One size cell (both algorithms); ``task`` carries its own RNG."""
    (num_vertices, num_requests), rng, epsilon = task
    outcome = CellOutcome()
    instance = random_instance(
        num_vertices=num_vertices,
        edge_probability=0.25,
        capacity=50.0,
        num_requests=num_requests,
        demand_range=(0.2, 1.0),
        seed=rng,
    )
    allocation = bounded_ufp(instance, epsilon)
    sp_bound = instance.num_requests * instance.num_requests
    extra = allocation.stats.extra
    outcome.add_row(
        algorithm="Bounded-UFP",
        n=instance.num_vertices,
        m=instance.num_edges,
        requests=instance.num_requests,
        iterations=allocation.stats.iterations,
        sp_calls=allocation.stats.shortest_path_calls,
        iteration_bound=instance.num_requests,
        sp_call_bound=sp_bound,
        wall_time_s=allocation.stats.wall_time_s,
        lazy_pops=extra.get("pricing_lazy_pops", 0.0),
        tree_reuses=extra.get("pricing_tree_reuses", 0.0),
        sp_calls_saved=extra.get("pricing_dijkstra_calls_saved", 0.0),
    )
    outcome.claim(
        "Bounded-UFP iterations <= |R|",
        allocation.stats.iterations <= instance.num_requests,
    )
    outcome.claim(
        "Bounded-UFP shortest-path calls <= |R|^2",
        allocation.stats.shortest_path_calls <= sp_bound,
    )

    if instance.num_requests > 120:
        # The repetitions algorithm's iteration count is governed by
        # m * c_max / d_min rather than |R|; on the largest cells it would
        # dominate the sweep's wall-clock without adding information, so
        # it is measured on the smaller cells only.
        return outcome
    repeat = bounded_ufp_repeat(instance, epsilon)
    repeat_bound = (
        instance.num_edges * instance.graph.max_capacity / instance.min_demand
        + instance.num_edges
    )
    repeat_extra = repeat.stats.extra
    outcome.add_row(
        algorithm="Bounded-UFP-Repeat",
        n=instance.num_vertices,
        m=instance.num_edges,
        requests=instance.num_requests,
        iterations=repeat.stats.iterations,
        sp_calls=repeat.stats.shortest_path_calls,
        iteration_bound=repeat_bound,
        sp_call_bound=float("nan"),
        wall_time_s=repeat.stats.wall_time_s,
        lazy_pops=repeat_extra.get("pricing_lazy_pops", 0.0),
        tree_reuses=repeat_extra.get("pricing_tree_reuses", 0.0),
        sp_calls_saved=repeat_extra.get("pricing_dijkstra_calls_saved", 0.0),
    )
    outcome.claim(
        "Bounded-UFP-Repeat iterations <= m * c_max / d_min (+ slack m)",
        repeat.stats.iterations <= repeat_bound,
    )
    return outcome


def run(
    *, quick: bool = True, seed: int | None = None, jobs: int | None = None
) -> ExperimentResult:
    """Run the E9 size sweep (cells fan out; the iteration/SP-call counts
    and bounds are scheduling-independent, only ``wall_time_s`` is noise)."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "algorithm", "n", "m", "requests", "iterations", "sp_calls",
            "iteration_bound", "sp_call_bound", "wall_time_s",
            "lazy_pops", "tree_reuses", "sp_calls_saved",
        ],
    )
    sizes = [(10, 30), (14, 60)] if quick else [(10, 30), (14, 60), (18, 100), (24, 160), (30, 240)]
    rngs = spawn_rngs(seed, len(sizes))
    epsilon = 0.3
    tasks = [(size, rng, epsilon) for size, rng in zip(sizes, rngs)]
    result.merge(parallel.pmap(_cell, tasks, jobs=jobs))

    result.notes = "wall-clock times are informational; the claims are the iteration bounds."
    return result
