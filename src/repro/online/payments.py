"""Online critical-value payments: VCG-style charging per admitted batch.

Offline, a winner pays the smallest declared value at which it would still
win (:mod:`repro.mechanism.payments`).  Online, decisions are irrevocable
and made per batch, so the right analogue holds the *history* fixed: an
admitted request pays the smallest declared value at which **its batch,
replayed from the dual state at the batch's start, would still have
admitted it**.  The batch admission rule inherits value-monotonicity from
``Bounded-UFP`` (raising a request's value only lowers its normalized
score), so the threshold exists and the offline bisection,
:func:`repro.mechanism.payments._critical_value`, applies to a selection
oracle whose probe is one batch replay: the recorded drain's probe tables
(:class:`~repro.core.trace.TraceReplayer`) or :class:`_DrainOracle`, one
drain per probe.

Each :class:`_DrainOracle` drain builds a throwaway engine on a scratch
copy of the snapshot duals.  All probes of all winners of a batch start from
the *same* snapshot weight vector, so the per-graph shortest-path-tree memo
(keyed by exact weight bytes) converts every probe's initial pricing sweep
into warm cache hits — the same trick that makes offline payment bisection
cheap.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import PathPricingEngine
from repro.core.trace import TraceRecorder, TraceReplayer
from repro.flows.request import Request
from repro.graphs.graph import CapacitatedGraph
from repro.mechanism.payments import _critical_value

__all__ = ["batch_critical_values"]


class _DrainOracle:
    """Selection oracle that drains the batch from the snapshot with the
    probed request in place (the from-scratch path)."""

    def __init__(self, graph, snapshot, scratch, requests, **policy) -> None:
        self._graph = graph
        self._snapshot = snapshot
        self._scratch = scratch
        self._requests = requests
        self._policy = policy  # the live run's admission and score_threshold

    def declared(self, index: int) -> Request:
        return self._requests[index]

    def probe_selected(self, index: int, request: Request) -> bool:
        from repro.online.auction import drain_engine

        requests = list(self._requests)
        requests[index] = request
        self._scratch.restore_from(self._snapshot)
        engine = PathPricingEngine(self._graph, requests, self._scratch)
        selections = drain_engine(engine, **self._policy)
        return any(selection.index == index for selection in selections)


def batch_critical_values(
    graph: CapacitatedGraph,
    snapshot: DualWeights,
    pool: Sequence[tuple[int, Request]],
    admitted: Sequence[int],
    *,
    admission: str,
    score_threshold: float,
    relative_tolerance: float = 1e-6,
    absolute_tolerance: float = 1e-9,
    max_iterations: int = 60,
    use_trace: bool = True,
) -> dict[int, float]:
    """Critical values for the winners of one online batch.

    Parameters
    ----------
    graph:
        The substrate graph (shared with the live run, so replays hit its
        tree memo).
    snapshot:
        The dual state at the batch's start (as captured by
        ``DualWeights.copy()``); never mutated here — every replay restores
        one shared scratch state from it in place
        (:meth:`DualWeights.restore_from`), avoiding a weight-vector
        allocation per bisection probe.
    pool:
        The batch's decision pool: ``(global_index, request)`` pairs in
        ascending global-index order, so local replay order reproduces the
        live engine's index tie-breaking.  The caller passes exactly the
        batch's arrivals: pre-existing leftovers are permanently
        unadmittable under both policies and never influence a drain (see
        :meth:`repro.online.auction.OnlineAuction.submit`), so including
        them would only change the local index space the replay relies on.
    admitted:
        Global indices the live run admitted in this batch.  The live run
        admitted each at its declaration and the replay reproduces the live
        decisions exactly, so no bisection spends a confirming probe.
    admission / score_threshold:
        The live run's admission policy, forwarded to the replay.
    use_trace:
        Replay the batch once with trace recording (one extra drain), then
        answer each winner's bisection probes from its table — one drain
        with the winner excluded, resumed from the recorded checkpoint at
        its admission round — instead of a full drain per probe; see
        :mod:`repro.core.trace`.  Payments are bit-identical either way.

    Returns
    -------
    dict
        ``global_index -> critical value`` for every admitted request.
    """
    requests = [request for _, request in pool]
    local_of = {index: position for position, (index, _) in enumerate(pool)}
    # One scratch dual state reused by every drain of every winner: each
    # restores it to the snapshot in place (np.copyto into the existing
    # buffer) instead of allocating a fresh weight copy.
    scratch = snapshot.copy()
    policy = dict(admission=admission, score_threshold=score_threshold)
    oracle = None
    if use_trace:
        oracle = _record_batch(
            graph, snapshot, scratch, requests,
            [local_of[index] for index in admitted], **policy,
        )
    if oracle is None:
        oracle = _DrainOracle(graph, snapshot, scratch, requests, **policy)
    return {
        index: _critical_value(
            oracle, local_of[index], relative_tolerance=relative_tolerance,
            absolute_tolerance=absolute_tolerance, max_iterations=max_iterations,
        )
        for index in admitted
    }


def _record_batch(
    graph: CapacitatedGraph,
    snapshot: DualWeights,
    scratch: DualWeights,
    requests: Sequence[Request],
    admitted_local: Sequence[int],
    *,
    admission: str,
    score_threshold: float,
) -> TraceReplayer | None:
    """Replay the batch once from the snapshot with trace recording.

    The recorded drain must reproduce the live run's admissions (same
    deterministic loop from the same state); the admitted local indices are
    checked and ``None`` is returned on any mismatch so the caller falls
    back to from-scratch probe drains instead of mispricing.
    """
    scratch.restore_from(snapshot)
    engine = PathPricingEngine(graph, requests, scratch)
    recorder = TraceRecorder()
    recorder.begin_path_run(
        mode="drain",
        engine=engine,
        duals=scratch,
        epsilon=scratch.epsilon,
        iteration_cap=None,
        requests=requests,
        admission=admission,
        score_threshold=score_threshold,
    )
    from repro.online.auction import drain_engine

    selections = drain_engine(
        engine,
        admission=admission,  # type: ignore[arg-type]
        score_threshold=score_threshold,
        trace=recorder,
    )
    recorder.finish(engine, scratch, stopped_by_budget=not scratch.within_budget)
    if [selection.index for selection in selections] != list(admitted_local):
        return None  # pragma: no cover - deterministic replay reproduces live
    return TraceReplayer(recorder.trace)
