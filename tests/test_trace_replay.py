"""Trace-replay equivalence: checkpointed probes vs from-scratch runs.

The contract of :mod:`repro.core.trace` is *bit-identity*: a probe answered
by suffix-resume replay (divergence-round computation, checkpoint restore,
excluded-run sub-traces, certificates) must equal the from-scratch run of
the solver on the perturbed instance — same selections, same paths, same
floats.  This suite replays the pinned differential-fuzz corpus (the same
seed derivation as ``test_differential_fuzz``) through the replayers:

* single-probe allocations for ``bounded_ufp`` / ``bounded_ufp_repeat`` /
  ``bounded_muca`` vs the solvers run from scratch on the perturbed input;
* critical-value payments with ``use_trace=True`` vs ``use_trace=False``,
  on loop trees and on C trees;
* truthfulness audits with and without tracing;
* online batch payments (greedy and threshold policies) with and without
  tracing, plus ``jobs=4 == jobs=1`` with tracing on.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from compute_paths import TREE_PATHS, tree_path
from test_differential_fuzz import (  # noqa: E402  (corpus shared with the fuzz suite)
    MUCA_SEEDS,
    ONLINE_SEEDS,
    REPEAT_SEEDS,
    UFP_SEEDS,
    _assert_same_allocation,
    _ufp_instance,
)

from repro.auctions import correlated_auction, random_auction
from repro.core import (
    TraceRecorder,
    bounded_muca,
    bounded_ufp,
    bounded_ufp_repeat,
    make_replayer,
)
from repro.flows import random_instance
from repro.mechanism import compute_muca_payments, compute_ufp_payments
from repro.mechanism.verification import (
    audit_muca_truthfulness,
    audit_ufp_truthfulness,
)
from repro.online import OnlineAuction, bursty_arrivals
from repro.utils.prng import ensure_rng

pytestmark = pytest.mark.fuzz

#: Value multipliers probed per request: deep-low (trivially-inert region),
#: bisection-like mids, the declaration itself, and a raise.
PROBE_FACTORS = (0.03, 0.4, 1.0, 2.5)


def _muca_auction(seed: int):
    rng = ensure_rng(seed)
    num_items = int(rng.integers(4, 16))
    build = random_auction if seed % 2 else correlated_auction
    kwargs = dict(
        num_items=num_items,
        num_bids=int(rng.integers(3, 40)),
        multiplicity=float(rng.uniform(4.0, 20.0)),
        bundle_size_range=(1, min(4, num_items)),
        seed=rng,
    )
    if build is correlated_auction:
        kwargs["num_popular"] = min(3, num_items)
    return build(**kwargs)


def _probe_indices(instance_size: int, seed: int) -> list[int]:
    rng = ensure_rng(seed ^ 0x5EED)
    count = min(3, instance_size)
    return sorted(int(i) for i in rng.choice(instance_size, size=count, replace=False))


@pytest.mark.parametrize("seed", UFP_SEEDS)
def test_ufp_probe_replay_matches_scratch(seed):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    recorder = TraceRecorder()
    bounded_ufp(instance, epsilon, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(instance.num_requests, seed):
        request = instance.requests[idx]
        for factor in PROBE_FACTORS:
            probe = request.with_value(request.value * factor)
            expected = bounded_ufp(instance.replace_request(idx, probe), epsilon)
            _assert_same_allocation(replayer.probe(idx, probe), expected)
            assert replayer.probe_selected(idx, probe) == expected.is_selected(idx)


@pytest.mark.parametrize("seed", REPEAT_SEEDS)
def test_repeat_probe_replay_matches_scratch(seed):
    instance = _ufp_instance(seed, max_requests=10)
    epsilon = [0.5, 1.0][seed % 2]
    recorder = TraceRecorder()
    bounded_ufp_repeat(instance, epsilon, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(instance.num_requests, seed):
        request = instance.requests[idx]
        for factor in PROBE_FACTORS:
            probe = request.with_value(request.value * factor)
            expected = bounded_ufp_repeat(instance.replace_request(idx, probe), epsilon)
            _assert_same_allocation(replayer.probe(idx, probe), expected)
            assert replayer.probe_selected(idx, probe) == expected.is_selected(idx)


@pytest.mark.parametrize("seed", MUCA_SEEDS)
def test_muca_probe_replay_matches_scratch(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    recorder = TraceRecorder()
    bounded_muca(auction, epsilon, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(auction.num_bids, seed):
        bid = auction.bids[idx]
        for factor in PROBE_FACTORS:
            value = bid.value * factor
            expected = bounded_muca(auction.replace_bid(idx, bid.with_value(value)), epsilon)
            assert replayer.probe_winners(idx, value) == expected.winners
            assert replayer.probe_selected(idx, value) == expected.is_winner(idx)


# --------------------------------------------------------------------- #
# Payments: trace vs from-scratch, loop trees and C trees
# --------------------------------------------------------------------- #
PAYMENT_SEEDS = UFP_SEEDS[::6]  # every 6th corpus case: payments cost ~|R| runs each


@pytest.mark.parametrize("trees", TREE_PATHS)
@pytest.mark.parametrize("seed", PAYMENT_SEEDS)
def test_ufp_payments_bit_identical(seed, trees):
    with tree_path(trees):
        instance = _ufp_instance(seed)
        epsilon = [0.3, 0.5, 1.0][seed % 3]
        algorithm = partial(bounded_ufp, epsilon=epsilon)
        allocation = bounded_ufp(instance, epsilon)
        plain = compute_ufp_payments(algorithm, instance, allocation)
        stats: dict = {}
        traced = compute_ufp_payments(
            algorithm, instance, allocation, use_trace=True, replay_stats=stats
        )
    np.testing.assert_array_equal(plain, traced)
    if allocation.num_selected:
        assert stats["replay_probes"] >= 0


@pytest.mark.parametrize("seed", MUCA_SEEDS[::6])
def test_muca_payments_bit_identical(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    algorithm = partial(bounded_muca, epsilon=epsilon)
    allocation = bounded_muca(auction, epsilon)
    plain = compute_muca_payments(algorithm, auction, allocation)
    traced = compute_muca_payments(algorithm, auction, allocation, use_trace=True)
    np.testing.assert_array_equal(plain, traced)


def test_payments_jobs_invariant_with_trace():
    instance = random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=60, demand_range=(0.5, 1.0), seed=13,
    )
    algorithm = partial(bounded_ufp, epsilon=0.3)
    allocation = bounded_ufp(instance, 0.3)
    serial = compute_ufp_payments(algorithm, instance, allocation, use_trace=True, jobs=1)
    fanned = compute_ufp_payments(algorithm, instance, allocation, use_trace=True, jobs=4)
    np.testing.assert_array_equal(serial, fanned)


# --------------------------------------------------------------------- #
# Audits: trace vs from-scratch
# --------------------------------------------------------------------- #
def _report_key(report):
    return (
        report.agents_audited,
        report.misreports_tried,
        report.max_gain,
        [
            (d.agent_index, d.true_type, d.misreported_type,
             d.truthful_utility, d.deviating_utility)
            for d in report.profitable_deviations
        ],
    )


@pytest.mark.parametrize("seed", UFP_SEEDS[::12])
def test_ufp_audit_bit_identical(seed):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    rule = partial(bounded_ufp, epsilon=epsilon)
    agents = _probe_indices(instance.num_requests, seed)
    plain = audit_ufp_truthfulness(
        rule, instance, agents=agents, misreports_per_agent=4, seed=seed
    )
    traced = audit_ufp_truthfulness(
        rule, instance, agents=agents, misreports_per_agent=4, seed=seed,
        use_trace=True,
    )
    assert _report_key(plain) == _report_key(traced)


@pytest.mark.parametrize("seed", MUCA_SEEDS[::12])
def test_muca_audit_bit_identical(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    rule = partial(bounded_muca, epsilon=epsilon)
    agents = _probe_indices(auction.num_bids, seed)
    plain = audit_muca_truthfulness(
        rule, auction, agents=agents, misreports_per_agent=4, seed=seed
    )
    traced = audit_muca_truthfulness(
        rule, auction, agents=agents, misreports_per_agent=4, seed=seed,
        use_trace=True,
    )
    assert _report_key(plain) == _report_key(traced)


def test_audit_jobs_invariant_with_trace():
    instance = random_instance(
        num_vertices=10, edge_probability=0.3, capacity=25.0,
        num_requests=18, seed=42,
    )
    rule = partial(bounded_ufp, epsilon=0.3)
    serial = audit_ufp_truthfulness(
        rule, instance, agents=list(range(10)), misreports_per_agent=4,
        seed=7, use_trace=True, jobs=1,
    )
    fanned = audit_ufp_truthfulness(
        rule, instance, agents=list(range(10)), misreports_per_agent=4,
        seed=7, use_trace=True, jobs=4,
    )
    assert _report_key(serial) == _report_key(fanned)


# --------------------------------------------------------------------- #
# Online batch payments: trace vs from-scratch drains
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("admission,threshold", [("greedy", 1.0), ("threshold", 1.5)])
@pytest.mark.parametrize("seed", ONLINE_SEEDS)
def test_online_payments_bit_identical(seed, admission, threshold):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]

    def stream(use_trace):
        auction = OnlineAuction(
            instance.graph, epsilon,
            admission=admission, score_threshold=threshold,
            compute_payments=True, use_trace=use_trace,
        )
        return auction.run(
            bursty_arrivals(list(instance.requests), burst_size=5, seed=seed % 97)
        )

    plain = stream(False)
    traced = stream(True)
    np.testing.assert_array_equal(plain.payments, traced.payments)
    assert [r.request_index for r in plain.routed] == [
        r.request_index for r in traced.routed
    ]


# --------------------------------------------------------------------- #
# Trace bookkeeping
# --------------------------------------------------------------------- #
def test_traced_run_reports_stats_and_matches_untraced():
    instance = random_instance(
        num_vertices=12, edge_probability=0.3, capacity=20.0,
        num_requests=30, demand_range=(0.4, 1.0), seed=3,
    )
    recorder = TraceRecorder()
    traced = bounded_ufp(instance, 0.4, trace=recorder)
    plain = bounded_ufp(instance, 0.4)
    _assert_same_allocation(traced, plain)
    assert traced.stats.extra["trace_rounds"] == recorder.trace.num_rounds
    assert traced.stats.extra["trace_checkpoints"] == recorder.trace.num_checkpoints
    assert recorder.trace.completed
    # Checkpoint 0 plus at least one more on a 30-round run.
    assert recorder.trace.num_checkpoints >= 2


def test_checkpoint_count_stays_bounded_on_long_runs():
    instance = random_instance(
        num_vertices=8, edge_probability=0.5, capacity=60.0,
        num_requests=12, demand_range=(0.3, 0.6), seed=11,
    )
    recorder = TraceRecorder()
    bounded_ufp_repeat(instance, 0.5, trace=recorder, max_iterations=2000)
    trace = recorder.trace
    assert trace.num_rounds > 100  # repetitions make this a long run
    assert trace.num_checkpoints <= 17 + 1  # max_checkpoints plus the final one
