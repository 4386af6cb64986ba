"""E8 — the head-to-head comparison behind the paper's §1.1 claims.

"Who wins, by roughly what factor": ``Bounded-UFP`` against the BKV-style
primal-dual it improves on (guarantee ``e`` vs ``e/(e-1)``), the greedy
heuristics, randomized LP rounding (near-optimal but non-monotone), the
exact optimum (on small cells) and the fractional upper bound — across the
uniform, hotspot, ISP and adversarial workloads.  The same sweep doubles as
a stopping-rule ablation: the BKV-style baseline *is* ``Bounded-UFP`` with a
more conservative stopping threshold (see :mod:`repro.baselines.briest`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro import parallel
from repro.baselines.briest import briest_style_ufp
from repro.baselines.exact import exact_ufp
from repro.baselines.greedy import greedy_ufp_by_density, greedy_ufp_by_value
from repro.baselines.randomized_rounding import randomized_rounding_ufp
from repro.core.bounded_ufp import bounded_ufp
from repro.experiments.harness import CellOutcome, ExperimentResult, ratio
from repro.mechanism.payments import compute_ufp_payments
from repro.flows.generators import (
    hotspot_instance,
    isp_instance,
    random_instance,
    staircase_instance,
)
from repro.flows.instance import UFPInstance
from repro.lp.fractional_ufp import solve_fractional_ufp
from repro.utils.prng import spawn_rngs

EXPERIMENT_ID = "E8"
TITLE = "Algorithm comparison across workloads (Section 1.1 claims)"
PAPER_CLAIM = (
    "Bounded-UFP never does worse than the BKV-style baseline and both are within "
    "their respective guarantees of the fractional optimum"
)

EPSILON = 0.25


def _algorithms() -> dict[str, Callable[[UFPInstance], object]]:
    return {
        "Bounded-UFP": lambda inst: bounded_ufp(inst, EPSILON),
        "BKV-style (e-approx)": lambda inst: briest_style_ufp(inst, EPSILON),
        "Greedy[value]": greedy_ufp_by_value,
        "Greedy[density]": greedy_ufp_by_density,
        "RandRounding": lambda inst: randomized_rounding_ufp(inst, 0.15, seed=20070609),
    }


def _workloads(quick: bool, seed: int | None) -> dict[str, UFPInstance]:
    rngs = spawn_rngs(seed, 3)
    # Capacities are chosen so that B also satisfies the BKV-style baseline's
    # (more conservative) stopping rule: that baseline needs roughly
    # B >= ln(m) / (0.459 * eps) + 1 before it admits anything at all.
    workloads: dict[str, UFPInstance] = {
        "uniform-contended": random_instance(
            num_vertices=6,
            edge_probability=0.5,
            capacity=40.0,
            num_requests=380 if quick else 600,
            demand_range=(0.7, 1.0),
            seed=rngs[0],
        ),
        "hotspot": hotspot_instance(
            num_vertices=10,
            edge_probability=0.3,
            capacity=40.0,
            num_requests=220 if quick else 400,
            seed=rngs[1],
        ),
        # B = 20 copies per source keeps the staircase inside the capacity
        # regime where the primal-dual algorithms are allowed to act.
        "staircase(10,20)": staircase_instance(10, 20),
    }
    if not quick:
        workloads["isp"] = isp_instance(
            core_capacity=120.0, access_capacity=60.0, num_requests=160, seed=rngs[2]
        )
        workloads["staircase(14,24)"] = staircase_instance(14, 24)
    return workloads


#: How many winners per workload get a critical-value payment in the
#: revenue sample (full payments on the big E8 workloads would dwarf the
#: comparison itself; the sample demonstrates the mechanism and exercises
#: the trace-replay path on every workload).
_REVENUE_SAMPLE = 8


def _cell(task) -> CellOutcome:
    """One workload cell (full algorithm grid), or the small exact cell."""
    outcome = CellOutcome()
    if task[0] == "small-exact":
        _, small = task
        exact = exact_ufp(small, max_paths_per_request=40, max_path_hops=6)
        primal_dual = bounded_ufp(small, 1.0)
        frac_small = solve_fractional_ufp(small)
        outcome.add_row(
            workload="small-exact",
            algorithm="Exact-UFP",
            value=exact.value,
            frac_opt=frac_small.objective,
            ratio_vs_frac=ratio(frac_small.objective, exact.value),
            feasible=exact.is_feasible(),
        )
        outcome.add_row(
            workload="small-exact",
            algorithm="Bounded-UFP",
            value=primal_dual.value,
            frac_opt=frac_small.objective,
            ratio_vs_frac=ratio(frac_small.objective, primal_dual.value),
            feasible=primal_dual.is_feasible(),
        )
        outcome.claim(
            "the exact optimum lies between Bounded-UFP's value and the fractional bound",
            primal_dual.value - 1e-9 <= exact.value <= frac_small.objective + 1e-6,
        )
        return outcome

    workload_name, instance = task
    fractional = solve_fractional_ufp(instance)
    values: dict[str, float] = {}
    bounded_allocation = None
    for algorithm_name, algorithm in _algorithms().items():
        allocation = algorithm(instance)
        feasible = allocation.is_feasible()
        values[algorithm_name] = allocation.value
        if algorithm_name == "Bounded-UFP":
            bounded_allocation = allocation
        outcome.add_row(
            workload=workload_name,
            algorithm=algorithm_name,
            value=allocation.value,
            frac_opt=fractional.objective,
            ratio_vs_frac=ratio(fractional.objective, allocation.value),
            feasible=feasible,
        )
        outcome.claim("every algorithm outputs a feasible allocation", feasible)

    # Truthful-mechanism revenue sample for the monotone rule: critical
    # values of the first winners, answered from probe tables.
    sample = sorted(bounded_allocation.selected_indices())[:_REVENUE_SAMPLE]
    payments = compute_ufp_payments(
        partial(bounded_ufp, epsilon=EPSILON),
        instance,
        bounded_allocation,
        winners=sample,
    )
    sampled_value = sum(instance.requests[i].value for i in sample)
    outcome.add_row(
        workload=workload_name,
        algorithm=f"Bounded-UFP payments[{len(sample)} winners]",
        value=float(payments.sum()),
        frac_opt=fractional.objective,
        ratio_vs_frac=float("nan"),
        feasible=True,
    )
    outcome.claim(
        "sampled critical values never exceed the sampled declared values",
        float(payments.sum()) <= sampled_value + 1e-9,
    )

    outcome.claim(
        PAPER_CLAIM,
        values["Bounded-UFP"] >= values["BKV-style (e-approx)"] - 1e-9,
    )
    return outcome


def run(
    *,
    quick: bool = True,
    seed: int | None = None,
    jobs: int | None = None,
) -> ExperimentResult:
    """Run the E8 comparison grid."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["workload", "algorithm", "value", "frac_opt", "ratio_vs_frac", "feasible"],
    )
    workloads = _workloads(quick, seed)
    small = random_instance(
        num_vertices=7,
        edge_probability=0.4,
        capacity=4.0,
        num_requests=10,
        seed=spawn_rngs(seed, 4)[3],
    )
    # Exact optimum as ground truth on a small extra cell.
    tasks = [*workloads.items(), ("small-exact", small)]
    result.merge(parallel.pmap(_cell, tasks, jobs=jobs))

    result.notes = (
        "ratios are against the fractional optimum; randomized rounding is included "
        "as the non-truthful near-optimal reference point."
    )
    return result
