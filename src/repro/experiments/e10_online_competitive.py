"""E10 — online streaming admission vs the offline one-shot auction.

The paper's mechanisms are offline: all declarations are on the table before
the first selection.  The motivating workloads (ISP bandwidth, ad-style
request streams) are online.  This experiment streams the *same* workload
through :class:`repro.online.OnlineAuction` under several arrival processes
(Poisson singletons/batches, synchronized bursts, adversarial orderings) and
compares against running ``Bounded-UFP`` offline on the full instance:

* the **value ratio** ``online value / offline value`` — an empirical
  competitive ratio of irrevocable streaming admission;
* the **revenue ratio** of online batch-critical-value payments vs offline
  critical-value payments (on the payment-enabled cells);
* the pricing-engine counters, verifying that streaming admission reuses
  cached shortest-path trees across batches instead of re-pricing untouched
  sources.

There is no competitive-ratio theorem in the paper to check, so the claims
attached here are the structural guarantees that do carry over: feasibility
of the running allocation (Lemma 3.3 applies verbatim to the streamed dual
updates), individual rationality of the online payments, and cache reuse
across batches.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable

import numpy as np

from repro import parallel
from repro.core.bounded_ufp import bounded_ufp
from repro.experiments.harness import CellOutcome, ExperimentResult
from repro.flows.generators import isp_instance, random_instance
from repro.flows.instance import UFPInstance
from repro.flows.request import Request
from repro.mechanism.payments import compute_ufp_payments
from repro.online.arrivals import (
    Batch,
    adversarial_arrivals,
    bursty_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from repro.online.auction import OnlineAuction
from repro.utils.prng import spawn_rngs

EXPERIMENT_ID = "E10"
TITLE = "Online streaming admission vs offline Bounded-UFP"
PAPER_CLAIM = (
    "Streaming admission with the same exponential dual prices stays feasible "
    "(Lemma 3.3), charges individually-rational batch critical values, and an "
    "empirical online/offline competitive ratio is reported per arrival process"
)

EPSILON = 0.5


def _arrival_streams(
    instance: UFPInstance, rng: np.random.Generator
) -> dict[str, Iterable[Batch]]:
    """The arrival processes each workload is streamed under.  Lazy
    generators: the shared ``rng`` is consumed in iteration order, which the
    run loop keeps fixed (dict insertion order)."""
    requests: list[Request] = list(instance.requests)
    return {
        "poisson": poisson_arrivals(requests, rate=2.0, batch_window=1.0, seed=rng),
        "bursty": bursty_arrivals(requests, burst_size=8, shuffle=True, seed=rng),
        "adversarial": adversarial_arrivals(requests, order="density_ascending"),
        "trace": trace_arrivals(instance, batch_size=5),
    }


def _workloads(quick: bool, rngs) -> list[tuple[str, UFPInstance]]:
    """Contended workloads: capacities tight enough for the budget rule and
    the arrival order to matter, i.e. for online and offline to separate."""
    cells = [
        (
            "isp",
            isp_instance(
                num_core=4,
                leaves_per_core=3,
                core_capacity=16.0,
                access_capacity=8.0,
                num_requests=100 if quick else 200,
                seed=rngs[0],
            ),
        ),
        (
            "random",
            random_instance(
                num_vertices=12,
                edge_probability=0.2,
                capacity=12.0,
                num_requests=150 if quick else 300,
                demand_range=(0.4, 1.0),
                seed=rngs[1],
            ),
        ),
    ]
    return cells


def _workload_cell(task) -> CellOutcome:
    """One workload streamed under every arrival process."""
    workload_name, instance, workload_rng = task
    outcome = CellOutcome()
    offline = bounded_ufp(instance, EPSILON)
    for arrival_name, stream in _arrival_streams(instance, workload_rng).items():
        auction = OnlineAuction(
            instance.graph, EPSILON, admission="greedy", name=instance.name
        )
        online = auction.run(stream)
        online.validate()
        outcome.claim(
            "online allocations are feasible (Lemma 3.3 carries over)",
            online.is_feasible(),
        )
        value_ratio = (
            online.value / offline.value if offline.value > 0 else math.inf
        )
        outcome.claim(
            "online/offline value ratio is positive and finite",
            0.0 < value_ratio < math.inf,
        )
        extra = online.stats.extra
        outcome.add_row(
            workload=workload_name,
            arrival=arrival_name,
            policy="greedy",
            requests=instance.num_requests,
            batches=online.num_batches,
            admitted=online.num_selected,
            online_value=online.value,
            offline_value=offline.value,
            value_ratio=value_ratio,
            online_revenue=float("nan"),
            offline_revenue=float("nan"),
            sp_calls=online.stats.shortest_path_calls,
            tree_reuses=extra.get("pricing_tree_reuses", 0.0),
        )
    return outcome


def _payment_cell(task) -> CellOutcome:
    """The payment-enabled cell: batch critical values vs offline critical
    values.  Capacities are tight enough that both mechanisms actually
    charge (offline critical values are 0 on uncontended instances)."""
    quick, rng = task
    outcome = CellOutcome()
    payment_instance = isp_instance(
        num_core=3,
        leaves_per_core=2,
        core_capacity=10.0,
        access_capacity=7.0,
        num_requests=25 if quick else 50,
        seed=rng,
    )
    offline = bounded_ufp(payment_instance, EPSILON)
    offline_payments = compute_ufp_payments(
        partial(bounded_ufp, epsilon=EPSILON), payment_instance, offline
    )
    auction = OnlineAuction(
        payment_instance.graph,
        EPSILON,
        admission="threshold",
        score_threshold=1.0,
        compute_payments=True,
        name=payment_instance.name,
    )
    online = auction.run(
        bursty_arrivals(list(payment_instance.requests), burst_size=4)
    )
    online.validate()
    declared = online.instance.values_array()
    outcome.claim(
        "online payments are individually rational (payment <= declared value)",
        bool(np.all(online.payments <= declared + 1e-9)),
    )
    outcome.claim(
        "online allocations are feasible (Lemma 3.3 carries over)",
        online.is_feasible(),
    )
    outcome.add_row(
        workload="isp-small",
        arrival="bursty",
        policy="threshold+pay",
        requests=payment_instance.num_requests,
        batches=online.num_batches,
        admitted=online.num_selected,
        online_value=online.value,
        offline_value=offline.value,
        value_ratio=online.value / offline.value if offline.value > 0 else math.inf,
        online_revenue=online.revenue,
        offline_revenue=float(offline_payments.sum()),
        sp_calls=online.stats.shortest_path_calls,
        tree_reuses=online.stats.extra.get("pricing_tree_reuses", 0.0),
    )
    return outcome


def _cell(task) -> CellOutcome:
    return _payment_cell(task[1:]) if task[0] == "payments" else _workload_cell(task[1:])


def run(
    *, quick: bool = True, seed: int | None = None, jobs: int | None = None
) -> ExperimentResult:
    """Run the E10 online-vs-offline sweep (the payment cell's offline and
    online payments are answered from probe tables)."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "workload", "arrival", "policy", "requests", "batches", "admitted",
            "online_value", "offline_value", "value_ratio",
            "online_revenue", "offline_revenue",
            "sp_calls", "tree_reuses",
        ],
    )
    # Seeding layout: rngs[0:2] build the two workloads, rngs[2:4] drive
    # their arrival processes, rngs[4] builds the payment cell.
    rngs = spawn_rngs(seed, 5)
    tasks: list[tuple] = [
        ("workload", workload_name, instance, workload_rng)
        for (workload_name, instance), workload_rng in zip(
            _workloads(quick, rngs[:2]), rngs[2:4]
        )
    ]
    tasks.append(("payments", quick, rngs[4]))
    result.merge(parallel.pmap(_cell, tasks, jobs=jobs))

    total_tree_reuses = sum(
        row["tree_reuses"] for row in result.rows if not math.isnan(row["tree_reuses"])
    )
    result.claim(
        "streaming admission reuses cached shortest-path trees across batches",
        total_tree_reuses > 0,
    )
    result.notes = (
        "value_ratio is the empirical competitive ratio of irrevocable streaming "
        "admission; no theorem of the paper bounds it, so it is reported, not claimed."
    )
    return result
