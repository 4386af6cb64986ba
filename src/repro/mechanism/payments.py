"""Critical-value payments.

For a monotone allocation rule the selection of agent ``r`` is, with every
other declaration fixed, monotone in ``r``'s declared value: there is a
threshold (the *critical value*) above which ``r`` is selected and below
which it is not.  Charging every winner its critical value — and losers
nothing — yields the truthful mechanism of Theorem 2.3.

The critical value is found by bisection over the declared value, re-running
the allocation algorithm with the single declaration changed.  The number of
algorithm runs per winner is ``O(log((v_hi - v_lo) / tol))``; experiments
that only need allocations (not payments) should not compute payments.

Every probe instance produced by :meth:`UFPInstance.replace_request` shares
the original (immutable) graph object, so the probe runs all share one
pricing-engine substrate: the shortest-path trees under the initial dual
weights ``y = 1/c`` — the most expensive pricing sweep of each run — are
memoized on :attr:`CapacitatedGraph.substrate_cache
<repro.graphs.graph.CapacitatedGraph.substrate_cache>` by the
:mod:`~repro.core.pricing_engine` and computed exactly once across the whole
bisection, not once per probe.  (They depend only on the graph, never on the
declarations being probed, so reuse is sound and bit-exact.)
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import parallel
from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import MUCAInstance
from repro.core.trace import ReplayStats, TraceRecorder, make_replayer, supports_trace
from repro.exceptions import MechanismError
from repro.flows.allocation import Allocation
from repro.flows.instance import UFPInstance

__all__ = [
    "critical_value_ufp",
    "critical_value_muca",
    "compute_ufp_payments",
    "compute_muca_payments",
]

UFPAlgorithm = Callable[[UFPInstance], Allocation]
MUCAAlgorithm = Callable[[MUCAInstance], MUCAAllocation]

#: Bisection iteration cap shared by every critical-value entry point.
_MAX_BISECTIONS = 60


def _bisect_critical_value(
    is_selected_at: Callable[[float], bool],
    declared_value: float,
    *,
    relative_tolerance: float,
    absolute_tolerance: float,
    max_iterations: int,
    known_selected: bool = False,
) -> float:
    """Find the selection threshold of a monotone-in-value selection predicate.

    ``is_selected_at(v)`` must be monotone non-decreasing in ``v`` and true at
    ``declared_value``.  The returned value ``c`` satisfies: the agent is
    selected at ``c + tol`` and (unless ``c`` is effectively zero) not
    selected at ``c - tol``.

    ``known_selected=True`` asserts the caller has already observed the agent
    selected at its declaration (e.g. it is iterating the winners of the
    allocation the same deterministic algorithm produced, or a trace
    replayer answered the declaration's probe), so the redundant confirming
    run is skipped — one full mechanism re-run saved per winner.
    This is a *contract*, not a hint: with a predicate that is false at the
    declaration the bisection silently returns a meaningless bound instead
    of raising :class:`~repro.exceptions.MechanismError`.

    Probes are memoized on the exact probed value, so the ``tiny``
    quick-exit probe, the confirming probe and any midpoint that lands on a
    previously-probed value never run the mechanism twice.  The probe
    *sequence* depends only on the answers, and trace replays answer every
    probe exactly as a from-scratch run would, so the returned float is
    bit-identical across the from-scratch, trace-replay and any-``jobs``
    paths.
    """
    cache: dict[float, bool] = {}

    def probe(value: float) -> bool:
        hit = cache.get(value)
        if hit is None:
            hit = cache[value] = bool(is_selected_at(value))
        return hit

    if not known_selected and not probe(declared_value):
        raise MechanismError(
            "critical value requested for a declaration that is not selected"
        )
    low = 0.0
    high = float(declared_value)
    # Quick exit: selected even at a negligible positive value -> payment ~ 0.
    tiny = max(absolute_tolerance, relative_tolerance * high) * 0.5
    if probe(tiny):
        return 0.0
    for _ in range(max_iterations):
        if high - low <= max(absolute_tolerance, relative_tolerance * high):
            break
        mid = 0.5 * (low + high)
        if probe(mid):
            high = mid
        else:
            low = mid
    return high


def critical_value_ufp(
    algorithm: UFPAlgorithm,
    instance: UFPInstance,
    request_index: int,
    *,
    relative_tolerance: float = 1e-6,
    absolute_tolerance: float = 1e-9,
    max_iterations: int = 60,
    assume_selected: bool = False,
) -> float:
    """Critical value of one *winning* request under ``algorithm``.

    The declared demand is held fixed; only the declared value is varied.
    Raises :class:`~repro.exceptions.MechanismError` when the request is not
    selected under its declaration (losers pay nothing — do not call this).

    All probe instances share ``instance.graph``, so when ``algorithm`` is an
    engine-backed solver (:func:`repro.core.bounded_ufp`, ...) the bisection
    re-runs reuse the warm per-graph initial-weight tree cache — see the
    module docstring.
    """
    request_index = int(request_index)
    declared = instance.requests[request_index]

    def is_selected_at(value: float) -> bool:
        if value <= 0.0:
            return False
        trial = instance.replace_request(request_index, declared.with_value(value))
        return algorithm(trial).is_selected(request_index)

    return _bisect_critical_value(
        is_selected_at,
        declared.value,
        relative_tolerance=relative_tolerance,
        absolute_tolerance=absolute_tolerance,
        max_iterations=max_iterations,
        known_selected=assume_selected,
    )


def critical_value_muca(
    algorithm: MUCAAlgorithm,
    instance: MUCAInstance,
    bid_index: int,
    *,
    relative_tolerance: float = 1e-6,
    absolute_tolerance: float = 1e-9,
    max_iterations: int = 60,
    assume_selected: bool = False,
) -> float:
    """Critical value of one *winning* bid under ``algorithm``."""
    bid_index = int(bid_index)
    declared = instance.bids[bid_index]

    def is_selected_at(value: float) -> bool:
        if value <= 0.0:
            return False
        trial = instance.replace_bid(bid_index, declared.with_value(value))
        return algorithm(trial).is_winner(bid_index)

    return _bisect_critical_value(
        is_selected_at,
        declared.value,
        relative_tolerance=relative_tolerance,
        absolute_tolerance=absolute_tolerance,
        max_iterations=max_iterations,
        known_selected=assume_selected,
    )


def _trace_critical_value_ufp(
    replayer,
    index: int,
    *,
    relative_tolerance: float,
    absolute_tolerance: float,
    max_iterations: int = _MAX_BISECTIONS,
    declared=None,
) -> float:
    """Critical value of a (known-selected) declaration, every bisection
    probe answered by the replayer's table for ``index``.

    ``declared`` defaults to the base run's declaration at ``index``; audit
    callers pass the misreported request instead (probes then vary its
    value at its declared demand).  The probe sequence is the from-scratch
    bisection's, so the returned float is bit-identical.
    """
    declared = replayer.declared(index) if declared is None else declared

    def is_selected_at(value: float) -> bool:
        if value <= 0.0:
            return False
        return replayer.probe_selected(index, declared.with_value(value))

    return _bisect_critical_value(
        is_selected_at,
        declared.value,
        relative_tolerance=relative_tolerance,
        absolute_tolerance=absolute_tolerance,
        max_iterations=max_iterations,
        known_selected=True,
    )


def _trace_critical_value_muca(
    replayer,
    index: int,
    *,
    relative_tolerance: float,
    absolute_tolerance: float,
    max_iterations: int = _MAX_BISECTIONS,
    declared_value: float | None = None,
) -> float:
    """MUCA twin of :func:`_trace_critical_value_ufp` (value-only probes)."""
    declared = (
        replayer.declared(index).value if declared_value is None else declared_value
    )
    return _bisect_critical_value(
        partial(replayer.probe_selected, index),
        declared,
        relative_tolerance=relative_tolerance,
        absolute_tolerance=absolute_tolerance,
        max_iterations=max_iterations,
        known_selected=True,
    )


def _record_base_run(algorithm, instance, expected_winners: set[int] | None):
    """Run ``algorithm`` once with trace recording and build a replayer.

    Returns ``None`` when ``algorithm`` does not accept a ``trace=`` keyword
    (opaque wrappers fall back to from-scratch probe runs).  When the caller
    knows the winner set of the allocation it holds, the traced base run is
    checked against it — a free, loud version of ``verify_winners``.
    """
    if not supports_trace(algorithm):
        return None
    recorder = TraceRecorder()
    base = algorithm(instance, trace=recorder)
    if recorder.trace is None:
        # A **kwargs wrapper that swallowed trace= — the base run above was
        # wasted work and every probe will run from scratch; tell the user
        # rather than being silently slower than use_trace=False.
        warnings.warn(
            "use_trace=True had no effect: the algorithm accepted but did "
            "not forward the trace= keyword; falling back to from-scratch "
            "probe runs",
            stacklevel=3,
        )
        return None
    if expected_winners is not None:
        winners = (
            set(base.winners)
            if isinstance(base, MUCAAllocation)
            else base.selected_indices()
        )
        if winners != expected_winners:
            raise MechanismError(
                "algorithm/allocation mismatch: the traced base run produced "
                "a different winner set than the allocation being paid"
            )
    return make_replayer(recorder.trace)


def _ufp_payment_task(idx: int) -> float:
    """One winner's critical value, with the shared state read from the
    :mod:`repro.parallel` worker payload (shipped once per worker)."""
    algorithm, instance, kwargs = parallel.worker_payload()
    return critical_value_ufp(algorithm, instance, idx, **kwargs)


def _muca_payment_task(idx: int) -> float:
    algorithm, instance, kwargs = parallel.worker_payload()
    return critical_value_muca(algorithm, instance, idx, **kwargs)


def _ufp_payment_task_trace(idx: int) -> tuple[float, ReplayStats]:
    """Trace-replay twin of :func:`_ufp_payment_task`: the replayer (and its
    checkpoints) ships once per worker, each task builds its winner's table
    and returns the critical value with that table's work counters."""
    replayer, kwargs = parallel.worker_payload()
    value = _trace_critical_value_ufp(replayer, idx, **kwargs)
    return value, replayer.agent_stats(idx)


def _muca_payment_task_trace(idx: int) -> tuple[float, ReplayStats]:
    replayer, kwargs = parallel.worker_payload()
    value = _trace_critical_value_muca(replayer, idx, **kwargs)
    return value, replayer.agent_stats(idx)


def _traced_payments(
    task, replayer, kwargs, ordered, payments, *, jobs, replay_stats
) -> None:
    """Fan the traced bisections out and sum the tasks' work counters, so
    ``replay_stats`` reads the same at any ``jobs``."""
    results = parallel.pmap(task, ordered, jobs=jobs, payload=(replayer, kwargs))
    counters = ReplayStats()
    for idx, (value, stats) in zip(ordered, results):
        payments[idx] = value
        counters += stats
    if replay_stats is not None:
        replay_stats.update(counters.as_extra())


def compute_ufp_payments(
    algorithm: UFPAlgorithm,
    instance: UFPInstance,
    allocation: Allocation,
    *,
    winners: Iterable[int] | None = None,
    relative_tolerance: float = 1e-6,
    absolute_tolerance: float = 1e-9,
    verify_winners: bool = False,
    jobs: int | None = None,
    use_trace: bool = False,
    replay_stats: dict | None = None,
) -> np.ndarray:
    """Critical-value payments for every request (losers pay zero).

    Parameters
    ----------
    algorithm:
        The (monotone, exact) allocation rule; **must** be the same
        deterministic callable that produced ``allocation``.  This
        precondition is relied on, not just documented: each winner is known
        to be selected at its declaration, so the confirming mechanism
        re-run is skipped (``assume_selected=True``).  Passing a mismatched
        algorithm/allocation pair yields meaningless payments rather than
        the :class:`~repro.exceptions.MechanismError` that
        :func:`critical_value_ufp` raises for non-winners.
    allocation:
        The allocation under the declared types.
    winners:
        Restrict payment computation to these winning request indices
        (default: all winners).
    verify_winners:
        Re-enable the confirming mechanism run per winner (one extra
        ``algorithm`` call each), restoring the loud
        :class:`~repro.exceptions.MechanismError` on an algorithm/allocation
        mismatch at the cost of the saved run.
    jobs:
        Worker processes for the per-winner bisections (``None`` → the
        ``REPRO_JOBS`` environment default → serial).  Every winner's
        bisection is an independent deterministic function of ``(algorithm,
        instance, winner)``, so fan-out changes wall-clock only: the payment
        vector is byte-identical at any ``jobs``.  The instance and
        algorithm ship once per worker (inherited copy-on-write under
        ``fork``, together with the warm per-graph tree memo), not once per
        winner.
    use_trace:
        Record the base run's acceptance trace once (one extra
        ``algorithm`` call), then answer every bisection probe of a winner
        from that winner's table: one run with the winner excluded,
        resumed from the recorded checkpoint at its winning round — see
        :mod:`repro.core.trace`.  The payment vector is bit-identical with
        or without tracing (and at any ``jobs``); only wall-clock changes.
        Requires ``algorithm`` to accept a ``trace=`` keyword (the
        ``repro.core`` solvers do).  Opaque wrappers without one fall back
        to the from-scratch path silently; a ``**kwargs`` wrapper that
        accepts but drops ``trace=`` falls back with a warning.  The traced
        base run's winner set is checked against ``allocation`` for free,
        so a mismatched pair raises loudly even without ``verify_winners``.
    replay_stats:
        Optional dict that receives the tables' work counters
        (``replay_probes``, ``replay_rounds_skipped``,
        ``replay_rounds_replayed``, ``replay_rounds_recomputed``) after a
        traced run — experiment cells surface these in
        ``RunStats.extra``-style rows.  Every task returns its own
        counters and they are summed here, so they read the same at any
        ``jobs``.  Left untouched when tracing is off or unavailable.
    """
    payments = np.zeros(instance.num_requests, dtype=np.float64)
    winner_set = allocation.selected_indices()
    targets = winner_set if winners is None else (set(int(w) for w in winners) & winner_set)
    ordered = sorted(targets)
    if use_trace and ordered:
        replayer = _record_base_run(algorithm, instance, winner_set)
        if replayer is not None:
            kwargs = dict(
                relative_tolerance=relative_tolerance,
                absolute_tolerance=absolute_tolerance,
            )
            _traced_payments(
                _ufp_payment_task_trace, replayer, kwargs, ordered, payments,
                jobs=jobs, replay_stats=replay_stats,
            )
            return payments
    # Each ``idx`` is a winner of the allocation this same (deterministic)
    # algorithm produced, so it is selected at its declared value by
    # construction — skip the confirming re-run unless the caller asked
    # for the guard back.
    kwargs = dict(
        relative_tolerance=relative_tolerance,
        absolute_tolerance=absolute_tolerance,
        assume_selected=not verify_winners,
    )
    values = parallel.pmap(
        _ufp_payment_task, ordered, jobs=jobs, payload=(algorithm, instance, kwargs)
    )
    for idx, value in zip(ordered, values):
        payments[idx] = value
    return payments


def compute_muca_payments(
    algorithm: MUCAAlgorithm,
    instance: MUCAInstance,
    allocation: MUCAAllocation,
    *,
    winners: Iterable[int] | None = None,
    relative_tolerance: float = 1e-6,
    absolute_tolerance: float = 1e-9,
    verify_winners: bool = False,
    jobs: int | None = None,
    use_trace: bool = False,
    replay_stats: dict | None = None,
) -> np.ndarray:
    """Critical-value payments for every bid (losers pay zero).

    ``algorithm`` must be the deterministic callable that produced
    ``allocation``; see :func:`compute_ufp_payments` for the
    ``verify_winners`` escape hatch, the ``jobs`` fan-out contract, the
    ``use_trace`` path (one excluded run per winner answers its bisection:
    bit-identical payments, only wall-clock changes) and ``replay_stats``.
    """
    payments = np.zeros(instance.num_bids, dtype=np.float64)
    winner_set = set(allocation.winners)
    targets = winner_set if winners is None else (set(int(w) for w in winners) & winner_set)
    ordered = sorted(targets)
    if use_trace and ordered:
        replayer = _record_base_run(algorithm, instance, winner_set)
        if replayer is not None:
            kwargs = dict(
                relative_tolerance=relative_tolerance,
                absolute_tolerance=absolute_tolerance,
            )
            _traced_payments(
                _muca_payment_task_trace, replayer, kwargs, ordered, payments,
                jobs=jobs, replay_stats=replay_stats,
            )
            return payments
    kwargs = dict(
        relative_tolerance=relative_tolerance,
        absolute_tolerance=absolute_tolerance,
        assume_selected=not verify_winners,
    )
    values = parallel.pmap(
        _muca_payment_task, ordered, jobs=jobs, payload=(algorithm, instance, kwargs)
    )
    for idx, value in zip(ordered, values):
        payments[idx] = value
    return payments
