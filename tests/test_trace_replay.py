"""Trace-replay equivalence: probe tables vs from-scratch runs.

The contract of :mod:`repro.core.trace` is *bit-identity*: a probe answered
from an agent's table (its excluded run, the lazy prefix of the base run,
the path-tracked distance) must equal the from-scratch run of the solver on
the perturbed instance, and payments computed from tables must equal the
from-scratch bisections float for float.  This suite replays the pinned
differential-fuzz corpus (the same seed derivation as
``test_differential_fuzz``) through the replayers:

* single probes for ``bounded_ufp`` / ``bounded_ufp_repeat`` /
  ``bounded_muca`` vs the solvers run from scratch on the perturbed input,
  including score-decreasing misreports that read the lazy prefix;
* single probes of recorded online batch drains vs from-scratch drains;
* critical-value payments from tables vs re-runs, on loop trees and on C
  trees, over the corpus and the contended family whose winners pay
  positive critical values;
* truthfulness audits from tables vs re-runs;
* online batch payments (greedy and threshold policies) from tables vs
  re-run drains, plus ``jobs=4 == jobs=1`` from tables.

The tables answer whenever the algorithm accepts ``trace=``.  The re-run
side gets a plain callable (:func:`_rerun`), or, for online auctions, whose
drain is built inside, ``supports_trace`` patched to say no.
"""

from __future__ import annotations

import inspect
from functools import partial

import numpy as np
import pytest

from compute_paths import TREE_PATHS, tree_path
from test_differential_fuzz import (  # noqa: E402  (corpus shared with the fuzz suite)
    MUCA_SEEDS,
    ONLINE_SEEDS,
    REPEAT_SEEDS,
    UFP_SEEDS,
    _assert_budget_stop,
    _assert_same_allocation,
    _ufp_case,
    _ufp_cases,
    _ufp_instance,
)

from repro.auctions import correlated_auction, random_auction
from repro.core import (
    PathPricingEngine,
    TraceRecorder,
    TraceReplayer,
    bounded_muca,
    bounded_ufp,
    bounded_ufp_repeat,
    make_replayer,
)
from repro.core.trace import MAX_CHECKPOINTS
from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.mechanism import compute_muca_payments, compute_ufp_payments
from repro.mechanism import payments as payments_module
from repro.mechanism.payments import _record_base_run
from repro.mechanism.verification import (
    audit_muca_truthfulness,
    audit_ufp_truthfulness,
)
from repro.online import OnlineAuction, bursty_arrivals
from repro.online import auction as online_auction
from repro.online.auction import _BatchDrain, drain_engine
from repro.utils.prng import ensure_rng

pytestmark = pytest.mark.fuzz

#: Value multipliers probed per request: deep-low, bisection-like mids, the
#: declaration itself, and a raise.
PROBE_FACTORS = (0.03, 0.4, 1.0, 2.5)

#: Demand multipliers of path probes (clipped to 1): a halved demand scores
#: below the declaration and reads the lazy prefix, 1.7 scores above it.
DEMAND_FACTORS = (0.5, 1.0, 1.7)

#: Bid value multipliers: every ``PROBE_FACTOR`` plus one part in 1e7 on
#: either side of the declaration.
MUCA_VALUE_FACTORS = PROBE_FACTORS + (1.0 - 1e-7, 1.0 + 1e-7)


def _rerun(algorithm):
    """``algorithm`` as a plain callable: it takes no ``trace=``, so every
    probe re-runs it."""
    return lambda declared: algorithm(declared)


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


def _with_binding_cap(seeds) -> list:
    """``(seed, max_iterations)`` inputs: every corpus seed uncapped, plus
    every 5th seed again under ``max_iterations=3``, a cap that stops most
    runs early (the replays' remaining-rounds arithmetic is otherwise never
    exercised)."""
    return [pytest.param(seed, None, id=str(seed)) for seed in seeds] + [
        pytest.param(seed, 3, id=f"{seed}-cap3") for seed in seeds[::5]
    ]


def _path_probes(request):
    """Misreports of ``request``: every demand factor times every value
    factor, at the request's terminals."""
    for demand_factor in DEMAND_FACTORS:
        demand = min(1.0, request.demand * demand_factor)
        for factor in PROBE_FACTORS:
            yield request.with_type(demand=demand, value=request.value * factor)


def _assert_path_probes_match_scratch(run, instance, seed) -> None:
    recorder = TraceRecorder()
    run(instance, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(instance.num_requests, seed):
        for probe in _path_probes(instance.requests[idx]):
            expected = run(instance.replace_request(idx, probe))
            assert replayer.probe_selected(idx, probe) == expected.is_selected(idx), (
                idx, probe.demand, probe.value,
            )


@pytest.mark.parametrize("seed,max_iterations", _with_binding_cap(UFP_SEEDS))
def test_ufp_probe_replay_matches_scratch(seed, max_iterations):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    run = partial(bounded_ufp, epsilon=epsilon, max_iterations=max_iterations)
    _assert_path_probes_match_scratch(run, instance, seed)


@pytest.mark.parametrize("seed,max_iterations", _with_binding_cap(REPEAT_SEEDS))
def test_repeat_probe_replay_matches_scratch(seed, max_iterations):
    instance = _ufp_instance(seed, max_requests=10)
    epsilon = [0.5, 1.0][seed % 2]
    run = partial(bounded_ufp_repeat, epsilon=epsilon, max_iterations=max_iterations)
    _assert_path_probes_match_scratch(run, instance, seed)


@pytest.mark.parametrize("seed,max_iterations", _with_binding_cap(MUCA_SEEDS))
def test_muca_probe_replay_matches_scratch(seed, max_iterations):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    run = partial(bounded_muca, epsilon=epsilon, max_iterations=max_iterations)
    recorder = TraceRecorder()
    run(auction, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(auction.num_bids, seed):
        bid = auction.bids[idx]
        for factor in MUCA_VALUE_FACTORS:
            probe = bid.with_value(bid.value * factor)
            expected = run(auction.replace_bid(idx, probe))
            assert replayer.probe_selected(idx, probe) == expected.is_winner(idx), (
                idx, probe.value,
            )


def test_exact_tie_goes_to_the_lower_index():
    """Two requests on one arc, and the budget stops the run after one
    commit.  Each request probed at the other's value ties it exactly, in
    the base run's prefix (request 0) or in the excluded run (request 1):
    only the index breaks the tie."""
    graph = CapacitatedGraph(2, [(0, 1, 1.5)], directed=True)
    instance = UFPInstance(graph, [Request(0, 1, 1.0, 1.0), Request(0, 1, 1.0, 2.0)])
    run = partial(bounded_ufp, epsilon=1.0)
    recorder = TraceRecorder()
    allocation = run(instance, trace=recorder)
    assert allocation.selected_indices() == {1}
    replayer = make_replayer(recorder.trace)
    for idx in (0, 1):
        request = instance.requests[idx]
        probes = [request.with_value(1.0), request.with_value(2.0)]
        probes.extend(_path_probes(request))
        for probe in probes:
            expected = run(instance.replace_request(idx, probe)).is_selected(idx)
            assert replayer.probe_selected(idx, probe) == expected
    assert replayer.probe_selected(0, instance.requests[0].with_value(2.0))
    assert not replayer.probe_selected(1, instance.requests[1].with_value(1.0))
    plain = compute_ufp_payments(run, instance, allocation, use_trace=False)
    traced = compute_ufp_payments(run, instance, allocation)
    np.testing.assert_array_equal(plain, traced)


# --------------------------------------------------------------------- #
# Payments: trace vs from-scratch, loop trees and C trees
# --------------------------------------------------------------------- #
PAYMENT_SEEDS = UFP_SEEDS[::6]  # every 6th corpus case: payments cost ~|R| runs each


@pytest.mark.parametrize("trees", TREE_PATHS)
@pytest.mark.parametrize("seed,contended", _ufp_cases(PAYMENT_SEEDS))
def test_ufp_payments_bit_identical(seed, contended, trees):
    with tree_path(trees):
        instance, epsilon = _ufp_case(seed, contended)
        algorithm = partial(bounded_ufp, epsilon=epsilon)
        allocation = bounded_ufp(instance, epsilon)
        plain = compute_ufp_payments(algorithm, instance, allocation, use_trace=False)
        stats: dict = {}
        traced = compute_ufp_payments(
            algorithm, instance, allocation, replay_stats=stats
        )
    np.testing.assert_array_equal(plain, traced)
    if allocation.num_selected:
        assert stats["replay_probes"] >= 0
    if contended:
        _assert_budget_stop(allocation)
        assert traced.max() > 0.0


@pytest.mark.parametrize("seed", MUCA_SEEDS[::6])
def test_muca_payments_bit_identical(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    algorithm = partial(bounded_muca, epsilon=epsilon)
    allocation = bounded_muca(auction, epsilon)
    plain = compute_muca_payments(_rerun(algorithm), auction, allocation)
    traced = compute_muca_payments(algorithm, auction, allocation)
    np.testing.assert_array_equal(plain, traced)


def test_payments_jobs_invariant_with_trace():
    """Payments *and* the replay counters read the same at any ``jobs``:
    every task returns its own table's counters."""
    instance = random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=60, demand_range=(0.5, 1.0), seed=13,
    )
    auction = correlated_auction(
        num_items=8, num_bids=40, multiplicity=12.0, bundle_size_range=(1, 4),
        num_popular=3, seed=13,
    )
    for solver, pay, declared in (
        (bounded_ufp, compute_ufp_payments, instance),
        (bounded_muca, compute_muca_payments, auction),
    ):
        algorithm = partial(solver, epsilon=0.3)
        allocation = solver(declared, 0.3)
        serial_stats: dict = {}
        fanned_stats: dict = {}
        serial = pay(algorithm, declared, allocation, jobs=1,
                     replay_stats=serial_stats)
        fanned = pay(algorithm, declared, allocation, jobs=4,
                     replay_stats=fanned_stats)
        np.testing.assert_array_equal(serial, fanned)
        assert serial_stats["replay_probes"] > 0
        assert fanned_stats == serial_stats


def test_kwargs_wrapper_that_drops_trace_falls_back_to_reruns():
    """A ``**kwargs`` wrapper accepts ``trace=`` but never forwards it: its
    payments and audit equal the re-run oracle's (an opaque lambda), and
    the warning names the caller's file and line."""
    instance = random_instance(
        num_vertices=12, edge_probability=0.3, capacity=9.0,
        num_requests=30, demand_range=(0.4, 1.0), seed=0,
    )
    auction = correlated_auction(
        num_items=8, num_bids=24, multiplicity=12.0, bundle_size_range=(1, 4),
        num_popular=3, seed=13,
    )

    def ufp_wrapper(instance, **kw):
        return bounded_ufp(instance, 0.5)

    def muca_wrapper(auction, **kw):
        return bounded_muca(auction, 0.5)

    def wrapped(entry, *args, **kwargs):
        with pytest.warns(UserWarning) as caught:
            line = inspect.currentframe().f_lineno + 1
            result = entry(*args, **kwargs)
        (warning,) = [w for w in caught if "did not forward the trace=" in str(w.message)]
        assert (warning.filename, warning.lineno) == (__file__, line)
        return result

    ufp_allocation = bounded_ufp(instance, 0.5)
    muca_allocation = bounded_muca(auction, 0.5)
    ufp_payments = wrapped(compute_ufp_payments, ufp_wrapper, instance, ufp_allocation)
    assert ufp_payments.any()
    np.testing.assert_array_equal(
        ufp_payments,
        compute_ufp_payments(lambda i: bounded_ufp(i, 0.5), instance, ufp_allocation),
    )
    muca_payments = wrapped(compute_muca_payments, muca_wrapper, auction, muca_allocation)
    assert muca_payments.any()
    np.testing.assert_array_equal(
        muca_payments,
        compute_muca_payments(lambda a: bounded_muca(a, 0.5), auction, muca_allocation),
    )
    audit = dict(agents=[0, 7, 14, 21], misreports_per_agent=2, seed=3)
    assert _report_key(wrapped(audit_ufp_truthfulness, ufp_wrapper, instance, **audit)) == (
        _report_key(audit_ufp_truthfulness(lambda i: bounded_ufp(i, 0.5), instance, **audit))
    )


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


@pytest.mark.parametrize("seed,contended", _ufp_cases(UFP_SEEDS[::12]))
def test_ufp_audit_bit_identical(seed, contended):
    instance, epsilon = _ufp_case(seed, contended)
    rule = partial(bounded_ufp, epsilon=epsilon)
    agents = _probe_indices(instance.num_requests, seed)
    plain = audit_ufp_truthfulness(
        _rerun(rule), instance, agents=agents, misreports_per_agent=4, seed=seed
    )
    traced = audit_ufp_truthfulness(
        rule, instance, agents=agents, misreports_per_agent=4, seed=seed
    )
    assert _report_key(plain) == _report_key(traced)
    if contended:
        _assert_budget_stop(rule(instance))


@pytest.mark.parametrize("seed", MUCA_SEEDS[::12])
def test_muca_audit_bit_identical(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    rule = partial(bounded_muca, epsilon=epsilon)
    agents = _probe_indices(auction.num_bids, seed)
    plain = audit_muca_truthfulness(
        _rerun(rule), auction, agents=agents, misreports_per_agent=4, seed=seed
    )
    traced = audit_muca_truthfulness(
        rule, auction, agents=agents, misreports_per_agent=4, seed=seed
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
        seed=7, jobs=1,
    )
    fanned = audit_ufp_truthfulness(
        rule, instance, agents=list(range(10)), misreports_per_agent=4,
        seed=7, jobs=4,
    )
    assert _report_key(serial) == _report_key(fanned)


# --------------------------------------------------------------------- #
# Online batch payments: trace vs from-scratch drains
# --------------------------------------------------------------------- #
def _check_checkpoint_heaps(monkeypatch) -> list:
    """Wrap ``TraceRecorder.finish`` so that every finished trace asserts
    that each checkpoint heap has an entry for every live request (neither
    selected nor dropped).  Excluded runs resume from these heaps, and a
    live request without an entry could never win one of their rounds.
    Returns the list of checked traces."""
    finish = TraceRecorder.finish
    checked: list = []

    def checked_finish(self, *args, **kwargs):
        finish(self, *args, **kwargs)
        for checkpoint in self.trace.checkpoints:
            state = checkpoint.engine
            in_heap = {entry[1] for entry in state.heap}
            missing = [
                i
                for i in range(state.num_requests)
                if not (state.selected[i] or state.dropped[i]) and i not in in_heap
            ]
            assert not missing, (checkpoint.round_index, missing)
        checked.append(self.trace)

    monkeypatch.setattr(TraceRecorder, "finish", checked_finish)
    return checked


@pytest.mark.parametrize("admission,threshold", [("greedy", 1.0), ("threshold", 1.5)])
@pytest.mark.parametrize("seed", ONLINE_SEEDS)
def test_online_payments_bit_identical(seed, admission, threshold, monkeypatch):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    checked = _check_checkpoint_heaps(monkeypatch) if admission == "threshold" else None

    def stream():
        auction = OnlineAuction(
            instance.graph, epsilon,
            admission=admission, score_threshold=threshold,
            compute_payments=True,
        )
        return auction.run(
            bursty_arrivals(list(instance.requests), burst_size=5, seed=seed % 97)
        )

    with monkeypatch.context() as patch:
        patch.setattr(payments_module, "supports_trace", lambda algorithm: False)
        plain = stream()
    traced = stream()
    np.testing.assert_array_equal(plain.payments, traced.payments)
    assert [r.request_index for r in plain.routed] == [
        r.request_index for r in traced.routed
    ]
    if checked is not None:
        assert checked or not traced.routed


def _record_batches(monkeypatch) -> list:
    """Capture the arguments of every ``batch_critical_values`` call an
    online auction makes (the batch pool, the snapshot and the policy)."""
    batches: list = []
    original = online_auction.batch_critical_values

    def capture(graph, snapshot, pool, admitted, **kwargs):
        batches.append((graph, snapshot.copy(), list(pool), list(admitted), kwargs))
        return original(graph, snapshot, pool, admitted, **kwargs)

    monkeypatch.setattr(online_auction, "batch_critical_values", capture)
    return batches


@pytest.mark.parametrize(
    "admission,threshold",
    [("greedy", 1.0), ("threshold", 1.5), ("threshold", 0.4)],
)
@pytest.mark.parametrize("seed", ONLINE_SEEDS)
def test_online_drain_probes_match_scratch(seed, admission, threshold, monkeypatch):
    """Each recorded batch drain answers demand and value misreports of
    every pool member exactly as a from-scratch drain from the same
    snapshot does."""
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    batches = _record_batches(monkeypatch)
    OnlineAuction(
        instance.graph, epsilon, admission=admission, score_threshold=threshold,
        compute_payments=True,
    ).run(bursty_arrivals(list(instance.requests), burst_size=5, seed=seed % 97))
    for graph, snapshot, pool, admitted, kwargs in batches:
        requests = [request for _, request in pool]
        local_of = {index: position for position, (index, _) in enumerate(pool)}
        policy = dict(admission=kwargs["admission"],
                      score_threshold=kwargs["score_threshold"])
        replayer = _record_base_run(
            _BatchDrain(snapshot, **policy), UFPInstance(graph, requests),
            {local_of[index] for index in admitted},
        )
        assert isinstance(replayer, TraceReplayer)
        for local, request in enumerate(requests):
            for probe in _path_probes(request):
                probe_requests = list(requests)
                probe_requests[local] = probe
                engine = PathPricingEngine(graph, probe_requests, snapshot.copy())
                expected = any(
                    selection.index == local
                    for selection in drain_engine(engine, **policy)
                )
                assert replayer.probe_selected(local, probe) == expected, (
                    local, probe.demand, probe.value,
                )


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
    assert traced.stats.extra["trace_checkpoints"] == len(recorder.trace.checkpoints)
    assert recorder.trace.completed
    # Checkpoint 0 plus at least one more on a 30-round run.
    assert len(recorder.trace.checkpoints) >= 2


def test_checkpoint_count_stays_bounded_on_long_runs():
    instance = random_instance(
        num_vertices=8, edge_probability=0.5, capacity=60.0,
        num_requests=12, demand_range=(0.3, 0.6), seed=11,
    )
    recorder = TraceRecorder()
    bounded_ufp_repeat(instance, 0.5, trace=recorder, max_iterations=2000)
    trace = recorder.trace
    assert trace.num_rounds > 100  # repetitions make this a long run
    assert len(trace.checkpoints) <= MAX_CHECKPOINTS + 1  # plus the final one
