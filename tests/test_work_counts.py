"""Exact work counts of the payment, audit, experiment and online paths.

The paper measures Algorithm 1's cost in shortest-path computations
(Theorem 3.1), and every regression of the tree memo, the tree cache or the
probe tables changes an exact count: trees built through the tree hook
(:meth:`repro.kernels.Kernel.dijkstra`), Bounded-UFP runs, or recorded
rounds the tables re-apply.  Each test below counts one path on a fixed
instance and bounds the count between today's value and the value a known
regression reads (in each comment: the mutation and what it reads):

* *memo off*: ``PathPricingEngine._memo_get`` always misses;
* *evict-all*: every commit evicts every cached tree;
* *checkpoint 0*: ``_ReplayerBase._walk_to`` always forks checkpoint 0;
* *re-run*: ``_record_base_run`` never records a trace.

A bound sees more work, never a slower loop doing the same work; that
shows only in alternating perfbench pairs (``benchmarks/ab_pairs.py``).
Every instance is built inside its test: the per-graph tree memo carries
trees between calls on one graph, so a count depends on what ran on the
graph before.
"""

from __future__ import annotations

import pytest

import repro.kernels
from repro.core import bounded_ufp
from repro.core.trace import TraceReplayer
from repro.experiments import e4_truthfulness, e10_online_competitive, run_experiment
from repro.flows import random_instance
from repro.mechanism import compute_ufp_payments
from repro.mechanism.verification import audit_ufp_truthfulness
from repro.online import OnlineAuction, bursty_arrivals


@pytest.fixture(autouse=True)
def serial(monkeypatch):
    """Counts are taken in this process, so nothing may fan out."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)


@pytest.fixture
def trees(monkeypatch) -> list:
    """Grows by one entry per tree built through the tree hook."""
    built = []
    hook = repro.kernels.Kernel.dijkstra

    def spy(self, graph, weights, source, *args, **kwargs):
        built.append(source)
        return hook(self, graph, weights, source, *args, **kwargs)

    monkeypatch.setattr(repro.kernels.Kernel, "dijkstra", spy)
    return built


def _counting(monkeypatch, module) -> list:
    """Count the Bounded-UFP runs ``module`` makes: its ``bounded_ufp`` is
    replaced by a wrapper that still accepts ``trace=``."""
    runs = []

    def counted(*args, **kwargs):
        runs.append(None)
        return bounded_ufp(*args, **kwargs)

    monkeypatch.setattr(module, "bounded_ufp", counted)
    return runs


def test_rerun_payments_on_the_medium_instance(trees):
    instance = random_instance(
        num_vertices=20, edge_probability=0.2, capacity=50.0,
        num_requests=80, demand_range=(0.3, 1.0), seed=13,
    )
    allocation = bounded_ufp(instance, 0.3)
    runs = []

    def rule(declared):
        runs.append(None)
        return bounded_ufp(declared, 0.3)

    del trees[:]
    payments = compute_ufp_payments(rule, instance, allocation, jobs=1)
    # Every request wins and pays 0 through the quick-exit probe: one base
    # run, then one probe per winner.
    assert allocation.num_selected == len(instance.requests) == 80
    assert not payments.any()
    assert len(runs) == 81
    # 5,223 today; evict-all 5,916, memo off 11,006.
    assert 0 < len(trees) <= 5_550


def test_quick_e4(trees, monkeypatch):
    runs = _counting(monkeypatch, e4_truthfulness)
    result = run_experiment("E4", quick=True, seed=7, jobs=1)
    assert result.all_claims_hold
    # 581 today; evict-all 651, memo off 996.
    assert 0 < len(trees) <= 615
    # 39 today; re-run 98.
    assert 0 < len(runs) <= 60


def test_contended_audit(monkeypatch):
    # The contended instance of benchmarks/bench_trace_replay.py: the budget
    # rule stops the run, so the tables' rows past a winner's first win are
    # read, as quick E4's uncontended audit never does.
    instance = random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=120, demand_range=(0.5, 1.0), seed=13,
    )
    runs = []

    def rule(declared, trace=None):
        runs.append(None)
        return bounded_ufp(declared, 0.3, trace=trace)

    replayed = []
    replay = TraceReplayer._replay

    def spy(self, round_):
        replayed.append(None)
        return replay(self, round_)

    monkeypatch.setattr(TraceReplayer, "_replay", spy)
    report = audit_ufp_truthfulness(
        rule, instance, agents=list(range(12)), misreports_per_agent=4,
        seed=7, jobs=1,
    )
    assert report.is_truthful
    # One traced base run answers every probe; re-run 1,655.
    assert len(runs) == 1
    # 535 today; checkpoint 0 1,010.
    assert 0 < len(replayed) <= 770


def test_quick_e9():
    result = run_experiment("E9", quick=True, seed=7, jobs=1)
    assert result.all_claims_hold
    # 9,650 today; evict-all 11,244.
    assert 0 < sum(row["sp_calls"] for row in result.rows) <= 10_400


def test_online_stream_then_again_on_the_same_graph(trees):
    instance = random_instance(
        num_vertices=12, edge_probability=0.2, capacity=12.0,
        num_requests=150, demand_range=(0.4, 1.0), seed=29,
    )

    def stream():
        auction = OnlineAuction(instance.graph, 0.5, admission="greedy")
        return auction.run(
            bursty_arrivals(list(instance.requests), burst_size=8, seed=4)
        )

    first = stream()
    built_first = len(trees)
    del trees[:]
    second = stream()
    assert second.routed == first.routed
    # 125 today; evict-all 138.
    assert 0 < built_first <= 131
    # The memo answers every tree of the same stream again; memo off 125.
    assert len(trees) <= 60


def test_quick_e10(trees, monkeypatch):
    runs = _counting(monkeypatch, e10_online_competitive)
    result = run_experiment("E10", quick=True, seed=7, jobs=1)
    assert result.all_claims_hold
    # 1,203 today; evict-all 1,312, memo off 1,336.
    assert 0 < len(trees) <= 1_255
    # 4 today (three offline runs and the payments' traced base run);
    # re-run 244.
    assert 0 < len(runs) <= 20
