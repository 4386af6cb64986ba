"""Critical-value payments.

For a monotone allocation rule the selection of agent ``r`` is, with every
other declaration fixed, monotone in ``r``'s declared value: there is a
threshold (the *critical value*) above which ``r`` is selected and below
which it is not.  Charging every winner its critical value — and losers
nothing — yields the truthful mechanism of Theorem 2.3.

The critical value is found by bisection over the declared value, each
probe asking a **selection oracle**: *is agent ``i`` selected when it
declares ``x``, all else fixed?*  An oracle is any object with
``declared(index)`` (the base ``Request`` or ``Bid``) and
``probe_selected(index, declaration) -> bool``.  :class:`_RerunOracle`
re-runs the algorithm; the trace replayers of :mod:`repro.core.trace` answer
from the agent's probe table (``use_trace=True``).  Their answers are
identical and :func:`_critical_value` is the one bisection over them, with
fixed tolerances, so a payment is the same float whichever answers.  The
audits and monotonicity checks of this package ask the same oracles, and an
online batch (:func:`repro.online.auction.batch_critical_values`) is paid
through the same body as :func:`compute_ufp_payments`, its algorithm being
the batch drain.  A winner costs ``O(log((v_hi - v_lo) / tol))`` probes;
experiments that only need allocations should not compute payments.

Every probe instance produced by :meth:`UFPInstance.replace_request` shares
the original (immutable) graph object, so the re-run oracle's probe runs all
share one pricing-engine substrate: the shortest-path trees under the
initial dual weights ``y = 1/c`` — the most expensive pricing sweep of each
run — are memoized on :attr:`CapacitatedGraph.substrate_cache
<repro.graphs.graph.CapacitatedGraph.substrate_cache>` by the
:mod:`~repro.core.pricing_engine` and computed exactly once across the whole
bisection, not once per probe.  (They depend only on the graph, never on the
declarations being probed, so reuse is sound and bit-exact.)
"""

from __future__ import annotations

import warnings
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

#: The bisection stops once its bracket is at most ``max(_ABSOLUTE_TOLERANCE,
#: _RELATIVE_TOLERANCE * high)`` wide, or after ``_MAX_BISECTIONS`` halvings.
_RELATIVE_TOLERANCE = 1e-6
_ABSOLUTE_TOLERANCE = 1e-9
_MAX_BISECTIONS = 60


def _declarations(instance: UFPInstance | MUCAInstance) -> Sequence:
    """The agents' declarations: an instance's requests, or an auction's bids."""
    return instance.bids if isinstance(instance, MUCAInstance) else instance.requests


def _winner_set(allocation: Allocation | MUCAAllocation) -> set[int]:
    if isinstance(allocation, MUCAAllocation):
        return set(allocation.winners)
    return allocation.selected_indices()


class _RerunOracle:
    """Selection oracle that re-runs ``algorithm`` on ``instance`` with the
    probed declaration in place (the from-scratch path)."""

    def __init__(self, algorithm, instance: UFPInstance | MUCAInstance) -> None:
        self._algorithm = algorithm
        self._instance = instance

    def declared(self, index: int):
        return _declarations(self._instance)[index]

    def probe_selected(self, index: int, declaration) -> bool:
        if isinstance(self._instance, MUCAInstance):
            trial = self._instance.replace_bid(index, declaration)
            return self._algorithm(trial).is_winner(index)
        trial = self._instance.replace_request(index, declaration)
        return self._algorithm(trial).is_selected(index)

    def agent_stats(self, index: int) -> ReplayStats:
        """Re-runs build no tables, so they count no table work."""
        return ReplayStats()


def _critical_value(
    oracle, index: int, declared=None, *, known_selected: bool = True
) -> float:
    """Critical value of agent ``index`` declaring ``declared`` (default:
    its base declaration), probing values at its demand or bundle through
    ``oracle``.

    Selection is monotone non-decreasing in the probed value, so the
    bisection brackets the threshold: the returned ``c`` is selected, and
    (unless ``c`` is effectively zero) ``c`` minus the tolerance is not.

    ``known_selected=True`` asserts the caller has already observed the
    agent selected at ``declared``: payments, audits and online batches
    only price declarations they have seen selected, so the confirming
    probe is skipped.  This is a *contract*, not a hint: a declaration that
    is not selected yields a meaningless bound instead of a
    :class:`~repro.exceptions.MechanismError`.  The public entry points pass
    false so that a loser raises.

    Probes are memoized on the exact probed value, so the ``tiny``
    quick-exit probe, the confirming probe and any midpoint that lands on a
    previously-probed value never ask the oracle twice.  The probe
    *sequence* depends only on the answers, and every oracle answers every
    probe exactly as a from-scratch run would, so the returned float is
    bit-identical across the from-scratch, trace-replay and any-``jobs``
    paths.
    """
    index = int(index)
    declared = oracle.declared(index) if declared is None else declared
    cache: dict[float, bool] = {}

    def probe(value: float) -> bool:
        hit = cache.get(value)
        if hit is None:
            # Declarations must have positive values; none can win below that.
            hit = cache[value] = value > 0.0 and bool(
                oracle.probe_selected(index, declared.with_value(value))
            )
        return hit

    if not known_selected and not probe(declared.value):
        raise MechanismError(
            "critical value requested for a declaration that is not selected"
        )
    low = 0.0
    high = float(declared.value)
    # Quick exit: selected even at a negligible positive value -> payment ~ 0.
    tiny = max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * high) * 0.5
    if probe(tiny):
        return 0.0
    for _ in range(_MAX_BISECTIONS):
        if high - low <= max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * high):
            break
        mid = 0.5 * (low + high)
        if probe(mid):
            high = mid
        else:
            low = mid
    return high


def critical_value_ufp(
    algorithm: UFPAlgorithm, instance: UFPInstance, request_index: int
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
    return _critical_value(
        _RerunOracle(algorithm, instance), request_index, known_selected=False
    )


def critical_value_muca(
    algorithm: MUCAAlgorithm, instance: MUCAInstance, bid_index: int
) -> float:
    """Critical value of one *winning* bid under ``algorithm``."""
    return _critical_value(
        _RerunOracle(algorithm, instance), bid_index, known_selected=False
    )


def _record_base_run(
    algorithm, instance, expected_winners: set[int] | None = None, *, use_trace: bool
):
    """The selection oracle for probes around ``instance``: the replayer
    of a traced base run under ``use_trace`` when ``algorithm`` accepts
    ``trace=``, else the :class:`_RerunOracle`.  A caller that holds an
    allocation passes its ``expected_winners``; the base run (traced, or
    one plain run) must reproduce them or
    :class:`~repro.exceptions.MechanismError` is raised, which is what lets
    every payment bisection skip its confirming probe."""
    base = oracle = None
    if use_trace and supports_trace(algorithm):
        recorder = TraceRecorder()
        base = algorithm(instance, trace=recorder)
        if recorder.trace is None:
            # A **kwargs wrapper that swallowed trace=: every probe will run
            # from scratch; tell the user rather than being silently slower
            # than use_trace=False.
            warnings.warn(
                "use_trace=True had no effect: the algorithm accepted but did "
                "not forward the trace= keyword; falling back to from-scratch "
                "probe runs",
                stacklevel=4,
            )
        else:
            oracle = make_replayer(recorder.trace)
    if expected_winners is not None:
        if base is None:
            base = algorithm(instance)
        if _winner_set(base) != expected_winners:
            raise MechanismError(
                "algorithm/allocation mismatch: the base run produced a "
                "different winner set than the allocation being paid"
            )
    return _RerunOracle(algorithm, instance) if oracle is None else oracle


def _payment_task(index: int) -> tuple[float, ReplayStats]:
    """One winner's critical value and the work counters of its table
    (empty for the re-run oracle); the oracle is read from the
    :mod:`repro.parallel` worker payload, shipped once per worker."""
    oracle = parallel.worker_payload()
    return _critical_value(oracle, index), oracle.agent_stats(index)


def _payments(
    algorithm, instance, winner_set: set[int], *, winners=None, jobs, use_trace,
    replay_stats=None,
) -> np.ndarray:
    """The body of both ``compute_*_payments`` and of online batch payments:
    critical values of ``winners`` (default: all of ``winner_set``), zero
    elsewhere.  The base run must reproduce ``winner_set``."""
    payments = np.zeros(len(_declarations(instance)), dtype=np.float64)
    targets = winner_set if winners is None else {int(w) for w in winners} & winner_set
    ordered = sorted(targets)
    if not ordered:
        return payments
    oracle = _record_base_run(algorithm, instance, winner_set, use_trace=use_trace)
    results = parallel.pmap(_payment_task, ordered, jobs=jobs, payload=oracle)
    counters = ReplayStats()
    for index, (value, stats) in zip(ordered, results):
        payments[index] = value
        counters += stats
    if replay_stats is not None and not isinstance(oracle, _RerunOracle):
        replay_stats.update(counters.as_extra())
    return payments


def compute_ufp_payments(
    algorithm: UFPAlgorithm,
    instance: UFPInstance,
    allocation: Allocation,
    *,
    winners: Iterable[int] | None = None,
    jobs: int | None = None,
    use_trace: bool = False,
    replay_stats: dict | None = None,
) -> np.ndarray:
    """Critical-value payments for every request (losers pay zero).

    Parameters
    ----------
    algorithm:
        The (monotone, exact) allocation rule; **must** be the same
        deterministic callable that produced ``allocation``.  One base run
        (the traced one under ``use_trace``) must reproduce its winner set
        or :class:`~repro.exceptions.MechanismError` is raised; no bisection
        then spends a probe confirming that its winner is selected.
    allocation:
        The allocation under the declared types.
    winners:
        Restrict payment computation to these winning request indices
        (default: all winners).
    jobs:
        Worker processes for the per-winner bisections (``None`` → the
        ``REPRO_JOBS`` environment default → serial).  Every winner's
        bisection is an independent deterministic function of ``(algorithm,
        instance, winner)``, so the payment vector is byte-identical at any
        ``jobs``.  The selection oracle ships once per worker (inherited
        copy-on-write under ``fork``, with the warm per-graph tree memo).
    use_trace:
        Record the base run's trace and answer a winner's probes from its
        table, one run with the winner excluded (:mod:`repro.core.trace`),
        instead of re-running ``algorithm`` per probe.  Payments are
        bit-identical either way.  Needs an ``algorithm`` that accepts
        ``trace=`` (the ``repro.core`` solvers do): opaque wrappers fall
        back to re-runs silently, a ``**kwargs`` wrapper that drops
        ``trace=`` with a warning.
    replay_stats:
        Optional dict that receives the tables' work counters
        (``replay_probes``, ``replay_rounds_skipped``,
        ``replay_rounds_replayed``, ``replay_rounds_recomputed``) of a
        traced run, summed over per-task counters so they read the same at
        any ``jobs``.  Left untouched when tracing is off or unavailable.
    """
    return _payments(
        algorithm, instance, _winner_set(allocation), winners=winners,
        jobs=jobs, use_trace=use_trace, replay_stats=replay_stats,
    )


def compute_muca_payments(
    algorithm: MUCAAlgorithm,
    instance: MUCAInstance,
    allocation: MUCAAllocation,
    *,
    winners: Iterable[int] | None = None,
    jobs: int | None = None,
    use_trace: bool = False,
    replay_stats: dict | None = None,
) -> np.ndarray:
    """Critical-value payments for every bid (losers pay zero); the
    parameters are those of :func:`compute_ufp_payments`."""
    return _payments(
        algorithm, instance, _winner_set(allocation), winners=winners,
        jobs=jobs, use_trace=use_trace, replay_stats=replay_stats,
    )
