"""Micro-benchmarks of trace-replay probes (per-agent tables).

Every row runs twice: ``tables`` hands in the solver, which accepts
``trace=``, so each probe is answered from the probed agent's table;
``reruns`` hands in a plain callable (the online row patches
``supports_trace`` instead, since its drain is built inside), so each probe
re-runs the algorithm.  A/B them with::

    PYTHONPATH=src python -m pytest benchmarks/bench_trace_replay.py -q -k tables
    PYTHONPATH=src python -m pytest benchmarks/bench_trace_replay.py -q -k reruns

Every benchmarked call is bit-identical under both oracles (the differential
suite :mod:`tests.test_trace_replay` enforces it across the fuzz corpus);
only wall-clock changes.  With tables, each probed agent's questions are
answered from one table: its excluded run, resumed from the recorded
checkpoint at its first winning round.  The headline rows:

* ``payments_contended`` — critical-value payments for every winner of a
  congested medium instance: one excluded run per winner;
* ``audit_truthfulness`` — the E4-style audit on the same instance family,
  whose score-lowering misreports also read the base run's prefix;
* ``online_threshold_payments`` — per-batch critical values under the
  posted-price policy: one excluded drain per admitted request;
* ``trace_overhead`` — one solver run with recording on (``tables``) vs off
  (``reruns``): the price of producing a trace nobody replays.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core import TraceRecorder, bounded_ufp
from repro.flows import random_instance
from repro.mechanism import compute_ufp_payments
from repro.mechanism import payments as payments_module
from repro.mechanism.verification import audit_ufp_truthfulness
from repro.online import OnlineAuction, bursty_arrivals

EPSILON = 0.3

#: Every row runs under both probe oracles.
pytestmark = pytest.mark.parametrize("tables", [True, False], ids=["tables", "reruns"])


def _rule(tables: bool):
    """``Bounded-UFP(EPSILON)``, or the same rule as a plain callable that
    takes no ``trace=`` and so is re-run per probe."""
    rule = partial(bounded_ufp, epsilon=EPSILON)
    return rule if tables else (lambda instance: rule(instance))


@pytest.fixture(scope="module")
def contended_instance():
    # Congested enough that the dual budget fires mid-run: every winner has
    # a genuinely positive critical value, so each payment is a real
    # bisection (the regime the replay engine is built for).
    return random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=120, demand_range=(0.5, 1.0), seed=13,
    )


def test_payments_contended(benchmark, contended_instance, jobs, tables):
    rule = _rule(tables)
    allocation = bounded_ufp(contended_instance, EPSILON)
    assert allocation.stats.stopped_by_budget

    payments = benchmark.pedantic(
        lambda: compute_ufp_payments(rule, contended_instance, allocation, jobs=jobs),
        rounds=3,
        iterations=1,
    )
    assert (payments > 0).sum() == allocation.num_selected


def test_audit_truthfulness(benchmark, contended_instance, jobs, tables):
    rule = _rule(tables)
    report = benchmark.pedantic(
        lambda: audit_ufp_truthfulness(
            rule, contended_instance,
            agents=list(range(12)), misreports_per_agent=4, seed=7, jobs=jobs,
        ),
        rounds=3,
        iterations=1,
    )
    assert report.is_truthful


def test_online_threshold_payments(benchmark, contended_instance, tables, monkeypatch):
    if not tables:
        monkeypatch.setattr(payments_module, "supports_trace", lambda algorithm: False)

    def run():
        auction = OnlineAuction(
            contended_instance.graph, 0.4,
            admission="threshold", score_threshold=1.5, compute_payments=True,
        )
        return auction.run(
            bursty_arrivals(list(contended_instance.requests), burst_size=10, seed=4)
        )

    online = benchmark.pedantic(run, rounds=3, iterations=1)
    assert online.is_feasible()
    assert np.all(online.payments >= 0.0)


def test_trace_overhead(benchmark, contended_instance, tables):
    """One solver run, recording a trace nobody replays (with ``tables``)."""

    def run():
        if not tables:
            return bounded_ufp(contended_instance, EPSILON)
        recorder = TraceRecorder()
        return bounded_ufp(contended_instance, EPSILON, trace=recorder)

    allocation = benchmark(run)
    assert allocation.num_selected > 0
