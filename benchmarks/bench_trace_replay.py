"""Micro-benchmarks of trace-replay probes (per-agent tables).

A/B the table-answered probe path against from-scratch probe runs::

    PYTHONPATH=src python -m pytest benchmarks/bench_trace_replay.py -q
    PYTHONPATH=src python -m pytest benchmarks/bench_trace_replay.py -q --no-trace

Every benchmarked call is bit-identical under both flags (the differential
suite :mod:`tests.test_trace_replay` enforces it across the fuzz corpus);
only wall-clock changes.  With tracing on, each probed agent's questions
are answered from one table: its excluded run, resumed from the recorded
checkpoint at its first winning round.  The headline rows:

* ``payments_contended`` — critical-value payments for every winner of a
  congested medium instance: one excluded run per winner;
* ``audit_truthfulness`` — the E4-style audit on the same instance family,
  whose score-lowering misreports also read the base run's prefix;
* ``online_threshold_payments`` — per-batch critical values under the
  posted-price policy: one excluded drain per admitted request;
* ``trace_overhead`` — one solver run with recording on vs off (the price
  of producing a trace nobody replays).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core import TraceRecorder, bounded_ufp
from repro.flows import random_instance
from repro.mechanism import compute_ufp_payments
from repro.mechanism.verification import audit_ufp_truthfulness
from repro.online import OnlineAuction, bursty_arrivals

EPSILON = 0.3


@pytest.fixture(scope="module")
def contended_instance():
    # Congested enough that the dual budget fires mid-run: every winner has
    # a genuinely positive critical value, so each payment is a real
    # bisection (the regime the replay engine is built for).
    return random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=120, demand_range=(0.5, 1.0), seed=13,
    )


def test_payments_contended(benchmark, contended_instance, jobs, use_trace):
    algorithm = partial(bounded_ufp, epsilon=EPSILON)
    allocation = bounded_ufp(contended_instance, EPSILON)
    assert allocation.stats.stopped_by_budget

    payments = benchmark.pedantic(
        lambda: compute_ufp_payments(
            algorithm, contended_instance, allocation,
            jobs=jobs, use_trace=use_trace,
        ),
        rounds=3,
        iterations=1,
    )
    assert (payments > 0).sum() == allocation.num_selected


def test_audit_truthfulness(benchmark, contended_instance, jobs, use_trace):
    rule = partial(bounded_ufp, epsilon=EPSILON)
    report = benchmark.pedantic(
        lambda: audit_ufp_truthfulness(
            rule, contended_instance,
            agents=list(range(12)), misreports_per_agent=4, seed=7,
            jobs=jobs, use_trace=use_trace,
        ),
        rounds=3,
        iterations=1,
    )
    assert report.is_truthful


def test_online_threshold_payments(benchmark, contended_instance, use_trace):
    def run():
        auction = OnlineAuction(
            contended_instance.graph, 0.4,
            admission="threshold", score_threshold=1.5,
            compute_payments=True, use_trace=use_trace,
        )
        return auction.run(
            bursty_arrivals(list(contended_instance.requests), burst_size=10, seed=4)
        )

    online = benchmark.pedantic(run, rounds=3, iterations=1)
    assert online.is_feasible()
    assert np.all(online.payments >= 0.0)


def test_trace_overhead(benchmark, contended_instance, use_trace):
    """One solver run, recording a trace nobody replays (when tracing)."""

    def run():
        if not use_trace:
            return bounded_ufp(contended_instance, EPSILON)
        recorder = TraceRecorder()
        return bounded_ufp(contended_instance, EPSILON, trace=recorder)

    allocation = benchmark(run)
    assert allocation.num_selected > 0
