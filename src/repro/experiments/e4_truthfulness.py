"""E4 — Theorem 2.3 + Lemma 3.4: monotonicity, exactness and truthfulness.

Three measurements on the same declared instance:

* a monotonicity audit of ``Bounded-UFP`` (must pass) and of randomized LP
  rounding (expected to fail — that failure is the paper's motivation);
* an exactness check of the produced allocations;
* a full truthfulness audit of the critical-value mechanism built on
  ``Bounded-UFP``: no sampled misreport may yield positive utility gain.

The four audits are independent given their instances and RNGs, so they run
as separate cells through the harness fan-out (each stage draws from its own
pre-spawned generator).
"""

from __future__ import annotations

from functools import partial

from repro import parallel
from repro.baselines.randomized_rounding import randomized_rounding_ufp
from repro.core.bounded_ufp import bounded_ufp
from repro.experiments.harness import CellOutcome, ExperimentResult
from repro.flows.generators import random_instance
from repro.mechanism.monotonicity import check_exactness, check_ufp_monotonicity
from repro.mechanism.verification import audit_ufp_truthfulness
from repro.utils.prng import spawn_rngs

EXPERIMENT_ID = "E4"
TITLE = "Monotonicity, exactness and truthfulness (Theorem 2.3, Lemma 3.4)"
PAPER_CLAIM = "Bounded-UFP is monotone and exact; with critical-value payments no misreport is profitable"

EPSILON = 0.3


def _cell(task) -> CellOutcome:
    """One audit stage; ``task = (stage, instance, quick, rng)``."""
    stage, instance, quick, rng = task
    outcome = CellOutcome()
    monotone_rule = partial(bounded_ufp, epsilon=EPSILON)

    if stage == "monotonicity":
        report = check_ufp_monotonicity(
            monotone_rule,
            instance,
            trials_per_request=2 if quick else 5,
            seed=rng,
        )
        outcome.add_row(
            algorithm="Bounded-UFP",
            check="monotonicity (Def. 2.1)",
            trials=report.trials,
            violations=len(report.violations),
            passes=report.is_monotone,
        )
        outcome.claim(
            "Bounded-UFP passes the monotonicity audit (Lemma 3.4)", report.is_monotone
        )
    elif stage == "exactness":
        allocation = monotone_rule(instance)
        exact = check_exactness(allocation)
        outcome.add_row(
            algorithm="Bounded-UFP",
            check="exactness (Def. 2.2)",
            trials=allocation.num_selected,
            violations=0 if exact else 1,
            passes=exact,
        )
        outcome.claim("Bounded-UFP is exact", exact)
    elif stage == "rounding":
        # Randomized rounding is a *randomized* mechanism: Theorem 2.3 needs
        # the monotonicity to hold for the realized allocation, i.e. for
        # every coin outcome, and it does not — a winner that improves its
        # declaration can lose simply because the LP solution and the coin
        # draws move.  The audit therefore runs the algorithm as deployed
        # (fresh coins on every declaration profile) on a congested instance
        # where the LP actually has to choose, which is where the violations
        # show up.
        coin_counter = iter(range(10**9))
        rounding_rule = lambda declared: randomized_rounding_ufp(  # noqa: E731
            declared, 0.15, seed=1009 + next(coin_counter)
        )
        rr_report = check_ufp_monotonicity(
            rounding_rule,
            instance,
            trials_per_request=2 if quick else 4,
            seed=rng,
        )
        outcome.add_row(
            algorithm="RandomizedRounding",
            check="monotonicity (Def. 2.1)",
            trials=rr_report.trials,
            violations=len(rr_report.violations),
            passes=rr_report.is_monotone,
        )
        outcome.claim(
            "randomized rounding exhibits monotonicity violations (motivation, Section 1)",
            not rr_report.is_monotone,
        )
    else:  # truthfulness
        audited_agents = list(range(min(instance.num_requests, 6 if quick else 15)))
        audit = audit_ufp_truthfulness(
            monotone_rule,
            instance,
            agents=audited_agents,
            misreports_per_agent=3 if quick else 8,
            seed=rng,
        )
        outcome.add_row(
            algorithm="Bounded-UFP + critical payments",
            check="truthfulness (Thm. 2.3)",
            trials=audit.misreports_tried,
            violations=len(audit.profitable_deviations),
            passes=audit.is_truthful,
        )
        outcome.claim(PAPER_CLAIM, audit.is_truthful)
    return outcome


def run(
    *,
    quick: bool = True,
    seed: int | None = None,
    jobs: int | None = None,
) -> ExperimentResult:
    """Run the E4 audits.

    The truthfulness audit answers its thousands of single-declaration
    probes from the probe tables of one recorded run
    (:mod:`repro.core.trace`); the monotonicity audits re-run their rules,
    since they test the rules themselves."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "algorithm", "check", "trials", "violations", "passes",
        ],
    )
    # rngs[0:2] build the two instances; rngs[2:5] drive the three
    # randomized audits (each stage owns its generator, so the stages are
    # independent tasks and the sweep is jobs-invariant).
    rngs = spawn_rngs(seed, 5)
    instance = random_instance(
        num_vertices=10,
        edge_probability=0.3,
        capacity=25.0,
        num_requests=18 if quick else 40,
        seed=rngs[0],
    )
    congested = random_instance(
        num_vertices=8,
        edge_probability=0.3,
        capacity=3.0,
        num_requests=20 if quick else 35,
        demand_range=(0.5, 1.0),
        seed=rngs[1],
    )
    tasks = [
        ("monotonicity", instance, quick, rngs[2]),
        ("exactness", instance, quick, None),
        ("rounding", congested, quick, rngs[3]),
        ("truthfulness", instance, quick, rngs[4]),
    ]
    result.merge(parallel.pmap(_cell, tasks, jobs=jobs))

    result.notes = (
        f"instance: n={instance.num_vertices}, m={instance.num_edges}, "
        f"|R|={instance.num_requests}, B={instance.capacity_bound():.0f}; "
        "randomized rounding audited as deployed (fresh coins per declaration "
        "profile) on a separate congested instance."
    )
    return result
