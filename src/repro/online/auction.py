"""The online streaming auction driver.

``Bounded-UFP`` is stated as a one-shot offline auction, but its primal-dual
structure is natively online: the dual weights ``y_e`` are exponential
*prices* that only ever grow, and the selection rule "take the request whose
normalized price is lowest" needs only the requests seen so far.
:class:`OnlineAuction` runs exactly that loop over a stream of arrivals:

* one :class:`~repro.core.dual_state.DualWeights` instance carries the price
  state across the whole stream (the budget stopping rule of line 5 /
  Lemma 3.3 applies verbatim, so the running allocation is always feasible);
* one :class:`~repro.core.pricing_engine.PathPricingEngine` carries the
  request pool and the shortest-path-tree caches across batches.  A new
  arrival is priced against the cached tree of its source whenever that tree
  is untouched (no admitted path intersected its parent-edge set) — the
  incremental-friendliness built in PR 1 is what makes per-arrival admission
  cheap, a couple of list indexings instead of a Dijkstra run per request.

Two admission policies are provided:

* ``"greedy"`` — per batch, keep admitting the globally cheapest pending
  request until the dual budget fires or nothing routable remains.  This is
  the direct online analogue of the offline loop.  Note that it leaves a
  request pending only when the budget has fired, and the budget only ever
  grows, so in practice every admission happens in its arrival batch — the
  pool exists to order admissions *within* a batch, not to defer them.
* ``"threshold"`` — admit only while the winner's normalized score
  ``(d_r / v_r) |p_r|_y`` is at most ``score_threshold``.  Since scores are
  monotone non-decreasing over the run, a request priced out once is priced
  out forever; this is the classic online-packing posted-price rule (admit
  iff the declared value covers the current path price when the threshold
  is 1).

Online payments charge each admitted request its *batch critical value*:
the smallest declared value at which the same batch, drained from the dual
state at the batch's start, would still have admitted it.  That drain is an
allocation rule like any other (:class:`_BatchDrain`; monotone, since it is
``Bounded-UFP``'s loop run from a snapshot), so
:func:`batch_critical_values` pays its winners through the body of
:func:`~repro.mechanism.payments.compute_ufp_payments`: one recorded drain
and the winners' probe tables, since the drain accepts ``trace=``.  Every
drain starts from the same snapshot weights, so the per-graph tree memo
makes the drains warm-start on cached shortest-path trees.
"""

from __future__ import annotations

import dataclasses
import math
import time as _time
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import (
    PathPricingEngine,
    PricingStats,
    Selection,
    greedy_rounds,
)
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.flows.request import Request
from repro.flows.streaming import (
    AdmissionEvent,
    RevocationEvent,
    StreamingAllocation,
)
from repro.graphs.graph import CapacitatedGraph
from repro.mechanism.payments import _payments
from repro.online.arrivals import Batch
from repro.types import RunStats

__all__ = ["OnlineAuction", "drain_engine", "batch_critical_values"]

AdmissionPolicy = Literal["greedy", "threshold"]


def drain_engine(
    engine: PathPricingEngine,
    *,
    admission: AdmissionPolicy,
    score_threshold: float,
    trace=None,
    capacity_guard=None,
) -> list[Selection]:
    """Run one batch's admission loop to quiescence and return the admitted
    selections in admission order.

    This single function defines the admission semantics, as one call of
    :func:`~repro.core.pricing_engine.greedy_rounds` with no iteration cap:
    the threshold is ``score_threshold`` under the ``"threshold"`` policy and
    ``inf`` under ``"greedy"``.  The live driver and the from-scratch payment
    probes call it, and trace replays run the same ``greedy_rounds``, so
    probe runs replicate the real decisions exactly (same tie-breaking,
    same budget rule, same threshold comparison).

    ``trace`` optionally records the drain as a
    :class:`repro.core.trace.TraceRecorder` run (the caller is responsible
    for ``begin_run``/``finish`` around this call — see
    :class:`_BatchDrain`).

    ``capacity_guard`` is the fault-mode feasibility backstop: a callable
    given the winning :class:`Selection` before commit, returning whether
    its path physically fits the current (possibly shrunken) substrate.
    Lemma 3.3 makes the dual prices alone guarantee feasibility only while
    every ``c_e >= B``; capacity churn can shrink an edge below that, where
    prices lag one admission behind.  A guard-rejected winner is dropped
    from the pool permanently (not requeued — its score would re-select it
    immediately, livelocking the drain), exactly like an arrival that is
    unroutable on the degraded substrate.  ``None`` (the fault-free path)
    changes nothing.
    """
    threshold = score_threshold if admission == "threshold" else math.inf
    return list(
        greedy_rounds(engine, threshold=threshold, trace=trace, guard=capacity_guard)
    )


class _BatchDrain:
    """One online batch as an offline allocation rule.

    ``drain(instance, *, trace=None)`` drains ``instance.requests`` (the
    batch's pool) from the dual state ``snapshot`` under the live run's
    policy and returns the admissions as an :class:`Allocation`.  Each call
    drains on its own ``snapshot.copy()``, so the snapshot itself is never
    mutated.
    """

    def __init__(
        self,
        snapshot: DualWeights,
        *,
        admission: AdmissionPolicy,
        score_threshold: float,
    ) -> None:
        self._snapshot = snapshot
        self._admission = admission
        self._threshold = score_threshold

    def __call__(self, instance: UFPInstance, *, trace=None) -> Allocation:
        engine = PathPricingEngine(
            instance.graph, instance.requests, self._snapshot.copy()
        )
        if trace is not None:
            trace.begin_run(
                engine=engine,
                iteration_cap=None,
                requests=instance.requests,
                admission=self._admission,
                score_threshold=self._threshold,
            )
        selections = drain_engine(
            engine,
            admission=self._admission,
            score_threshold=self._threshold,
            trace=trace,
        )
        if trace is not None:
            trace.finish(engine)
        routed = [
            RoutedRequest(
                request_index=selection.index,
                request=instance.requests[selection.index],
                vertices=selection.vertices,
                edge_ids=selection.edge_ids,
            )
            for selection in selections
        ]
        return Allocation(instance=instance, routed=routed)


def batch_critical_values(
    graph: CapacitatedGraph,
    snapshot: DualWeights,
    pool: Sequence[tuple[int, Request]],
    admitted: Sequence[int],
    *,
    admission: AdmissionPolicy,
    score_threshold: float,
) -> dict[int, float]:
    """Critical values for the winners of one online batch.

    The base drain is recorded and each winner's probes are answered from
    its table, one drain with the winner excluded (see
    :mod:`repro.core.trace`).

    Parameters
    ----------
    graph:
        The substrate graph (shared with the live run, so drains hit its
        tree memo).
    snapshot:
        The dual state at the batch's start (as captured by
        ``DualWeights.copy()``); never mutated here.
    pool:
        The batch's decision pool: ``(global_index, request)`` pairs in
        ascending global-index order, so local drain order reproduces the
        live engine's index tie-breaking.  The caller passes exactly the
        batch's arrivals: pre-existing leftovers are permanently
        unadmittable under both policies and never influence a drain (see
        :meth:`OnlineAuction.submit`), so including them would only change
        the local index space the drain relies on.
    admitted:
        Global indices the live run admitted in this batch.  The base drain
        must admit exactly these, else
        :class:`~repro.exceptions.MechanismError`.
    admission / score_threshold:
        The live run's admission policy, forwarded to every drain.

    Returns
    -------
    dict
        ``global_index -> critical value`` for every admitted request.
    """
    instance = UFPInstance(graph, [request for _, request in pool])
    local_of = {index: position for position, (index, _) in enumerate(pool)}
    drain = _BatchDrain(snapshot, admission=admission, score_threshold=score_threshold)
    payments = _payments(
        drain, instance, {local_of[index] for index in admitted}, jobs=1
    )
    return {index: float(payments[local_of[index]]) for index in admitted}


class OnlineAuction:
    """Incremental ``Bounded-UFP`` over a stream of request arrivals.

    Parameters
    ----------
    graph:
        The capacitated substrate the whole stream is routed on; its least
        capacity is ``B``, the paper's choice for normalized demands.
    epsilon:
        The accuracy parameter of the exponential price update, in
        ``(0, 1]`` (same role as in :func:`repro.core.bounded_ufp`).
    admission:
        ``"greedy"`` or ``"threshold"`` — see the module docstring.
    score_threshold:
        The admission price cap for the ``"threshold"`` policy (ignored by
        ``"greedy"``).  The natural unit-free choice is 1.0: admit while the
        declared value covers the current normalized path price.
    compute_payments:
        Charge every admitted request its batch critical value (bisection
        probes per winner, answered from the tables of one recorded drain
        per admitting batch — see :func:`batch_critical_values`; leave off
        when only the allocation matters).
    max_requeues:
        Fault-injection knob: how many times a fault-revoked winner may
        re-enter the live pool for possible re-admission.  Bounded so
        capacity churn cannot livelock the drain loop (a victim revoked,
        re-admitted and revoked again forever); once exhausted the victim
        stays rejected.  Irrelevant (and unused) on fault-free streams.
    compensation_rate:
        Fault-injection knob: damages paid by the operator on top of the
        payment refund when revoking an allocation, as a multiple of the
        refunded payment.
    name:
        Label for the finalized instance / allocation.
    """

    def __init__(
        self,
        graph: CapacitatedGraph,
        epsilon: float,
        *,
        admission: AdmissionPolicy = "greedy",
        score_threshold: float = 1.0,
        compute_payments: bool = False,
        max_requeues: int = 2,
        compensation_rate: float = 0.0,
        name: str = "online",
    ) -> None:
        if admission not in ("greedy", "threshold"):
            raise InvalidInstanceError(
                f"unknown admission policy {admission!r}; use 'greedy' or 'threshold'"
            )
        if admission == "threshold" and score_threshold <= 0.0:
            raise InvalidInstanceError("score_threshold must be positive")
        self._graph = graph
        self._epsilon = float(epsilon)
        self._admission: AdmissionPolicy = admission
        self._threshold = float(score_threshold)
        self._compute_payments = bool(compute_payments)
        self._name = str(name)

        self._duals = DualWeights(graph.capacities, self._epsilon)
        self._engine = PathPricingEngine(graph, (), self._duals)
        # The engine owns the request pool (arrival order == engine-global
        # index order); the auction only keeps per-index arrival metadata.
        self._arrival_batch: list[int] = []
        self._arrival_time: list[float] = []
        self._events: list[AdmissionEvent] = []
        self._routed: list[RoutedRequest] = []
        self._payments: dict[int, float] = {}
        self._num_batches = 0
        self._wall_time = 0.0
        # Fault-injection state.  _faults_active flips on the first substrate
        # mutation and never back: the fault-free fast paths (batch-local
        # payment replay pools, cached snapshot reuse) stay bit-identical to
        # the pre-fault implementation as long as it is False.
        self._faults_active = False
        self._max_requeues = int(max_requeues)
        self._compensation_rate = float(compensation_rate)
        self._requeue_count: dict[int, int] = {}
        self._revocations: list[RevocationEvent] = []
        self._original_capacities = graph.capacities.copy()
        # Dual-state snapshot for payment replays, refreshed only after a
        # batch that admitted someone (non-admitting batches leave the
        # duals untouched, so the cached copy stays valid) — one O(m) copy
        # per admitting batch instead of one per arriving batch.
        self._snapshot = self._duals.copy() if self._compute_payments else None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def duals(self) -> DualWeights:
        """The live price state (shared with the pricing engine)."""
        return self._duals

    @property
    def pricing_stats(self) -> PricingStats:
        """Cache/laziness counters of the underlying pricing engine."""
        return self._engine.stats

    @property
    def num_arrived(self) -> int:
        return self._engine.num_requests

    @property
    def num_admitted(self) -> int:
        return len(self._routed)

    @property
    def num_pending(self) -> int:
        """Requests neither admitted nor dropped as unroutable."""
        return self._engine.num_pending

    @property
    def within_budget(self) -> bool:
        """Whether the dual budget still allows admissions."""
        return self._duals.within_budget

    @property
    def graph(self) -> CapacitatedGraph:
        """The current substrate (replaced in place by fault events)."""
        return self._graph

    @property
    def revocations(self) -> list[RevocationEvent]:
        """Fault revocations so far, in occurrence order."""
        return list(self._revocations)

    # ------------------------------------------------------------------ #
    # Fault injection (graceful degradation hooks)
    # ------------------------------------------------------------------ #
    def fail_edges(self, edge_ids: Sequence[int]) -> list[RevocationEvent]:
        """Fail edges: their arcs leave the substrate until repaired.

        Allocations routed over a failed edge are revoked (payment
        refunded, compensation paid, victim requeued while its requeue
        budget lasts), every cached shortest-path structure touching the
        old substrate is invalidated, and future admissions route around
        the failure.  Dual weights are untouched — a failed edge remembers
        its congestion price and resumes at it when repaired.
        """
        disabled = self._graph.disabled_edges | {int(e) for e in edge_ids}
        return self._mutate_substrate(disabled, self._graph.capacities)

    def repair_edges(self, edge_ids: Sequence[int]) -> list[RevocationEvent]:
        """Bring failed edges back (at their pre-failure dual weights)."""
        disabled = self._graph.disabled_edges - {int(e) for e in edge_ids}
        return self._mutate_substrate(disabled, self._graph.capacities)

    def resize_edges(
        self, edge_ids: Sequence[int], factor: float
    ) -> list[RevocationEvent]:
        """Multiply the capacities of ``edge_ids`` by ``factor`` (> 0).

        Shrinking below the current load revokes the newest allocations
        crossing the shrunk edges (LIFO) until the new capacities hold;
        dual weights carry their accumulated multiplier across the resize
        (see :meth:`DualWeights.with_capacities`).
        """
        if not factor > 0.0:
            raise InvalidInstanceError("capacity resize factor must be positive")
        capacities = self._graph.capacities.copy()
        ids = np.asarray(sorted({int(e) for e in edge_ids}), dtype=np.int64)
        capacities[ids] *= float(factor)
        return self._mutate_substrate(self._graph.disabled_edges, capacities)

    def revert_edges(self, edge_ids: Sequence[int]) -> list[RevocationEvent]:
        """Restore the *original* capacities of ``edge_ids`` exactly.

        Bit-exact undo for capacity churn: multiplying by ``factor`` and
        later by ``1 / factor`` is not an exact float round-trip, so the
        auction keeps the construction-time capacity vector and reverts
        to it directly.
        """
        capacities = self._graph.capacities.copy()
        ids = np.asarray(sorted({int(e) for e in edge_ids}), dtype=np.int64)
        capacities[ids] = self._original_capacities[ids]
        return self._mutate_substrate(self._graph.disabled_edges, capacities)

    def _mutate_substrate(
        self, disabled: frozenset[int] | set[int], capacities: np.ndarray
    ) -> list[RevocationEvent]:
        """Apply one substrate mutation: revoke stranded allocations, rescale
        the dual state, rebind the pricing engine, refresh the payment
        snapshot.  No-op (and no ``_faults_active`` flip) when the mutation
        changes nothing."""
        old_graph = self._graph
        disabled = frozenset(disabled)
        caps_changed = not np.array_equal(capacities, old_graph.capacities)
        if disabled == old_graph.disabled_edges and not caps_changed:
            return []
        self._faults_active = True
        new_graph = old_graph.with_capacities(capacities, disabled_edges=disabled)

        # --- find the stranded allocations -----------------------------
        newly_failed = disabled - old_graph.disabled_edges
        revoked: list[tuple[RoutedRequest, str]] = []
        keep: list[RoutedRequest] = []
        for item in self._routed:
            if newly_failed and not newly_failed.isdisjoint(item.edge_ids):
                revoked.append((item, "edge_failure"))
            else:
                keep.append(item)
        if caps_changed:
            shrunk = set(
                np.flatnonzero(capacities < old_graph.capacities).tolist()
            )
            if shrunk:
                load = np.zeros(old_graph.num_edges, dtype=np.float64)
                for item in keep:
                    load[list(item.edge_ids)] += item.request.demand
                overloaded = {
                    e for e in shrunk if load[e] > capacities[e] + 1e-12
                }
                if overloaded:
                    survivors: list[RoutedRequest] = []
                    # LIFO: the newest allocations crossing an overloaded
                    # edge go first — earlier winners keep their routes.
                    for item in reversed(keep):
                        if overloaded and not overloaded.isdisjoint(
                            item.edge_ids
                        ):
                            revoked.append((item, "capacity_shrink"))
                            load[list(item.edge_ids)] -= item.request.demand
                            overloaded = {
                                e
                                for e in overloaded
                                if load[e] > capacities[e] + 1e-12
                            }
                        else:
                            survivors.append(item)
                    keep = list(reversed(survivors))

        # --- revocation bookkeeping -------------------------------------
        events: list[RevocationEvent] = []
        requeue_ids: list[int] = []
        for item, reason in revoked:
            idx = item.request_index
            refunded = self._payments.pop(idx, 0.0)
            used = self._requeue_count.get(idx, 0)
            requeue = used < self._max_requeues
            if requeue:
                self._requeue_count[idx] = used + 1
                requeue_ids.append(idx)
            events.append(
                RevocationEvent(
                    request_index=idx,
                    batch=self._num_batches,
                    reason=reason,
                    edge_ids=item.edge_ids,
                    value=item.request.value,
                    refunded=refunded,
                    compensation=self._compensation_rate * refunded,
                    requeued=requeue,
                )
            )
        self._routed = keep
        self._revocations.extend(events)

        # --- rebind the price state and the engine ----------------------
        if caps_changed:
            self._duals = self._duals.with_capacities(capacities)
        for idx in requeue_ids:
            self._engine.reinstate(idx)
        self._engine.rebind_substrate(new_graph, self._duals)
        self._graph = new_graph
        if self._compute_payments:
            # The replay snapshot must describe the *current* substrate.
            self._snapshot = self._duals.copy()
        return events

    # ------------------------------------------------------------------ #
    # Stream consumption
    # ------------------------------------------------------------------ #
    def submit(
        self, requests: Sequence[Request], *, time: float = 0.0
    ) -> list[AdmissionEvent]:
        """Process one arrival batch and return the admissions it caused.

        Arrivals are recorded, priced incrementally (cached trees of
        untouched sources are reused, not recomputed), and the admission
        loop runs to quiescence: the batch's arrivals are admitted in
        global cheapest-first order, interleaved with any still-pending
        earlier requests in the pool.
        """
        start = _time.perf_counter()
        batch_index = self._num_batches
        self._num_batches += 1

        new_requests = tuple(requests)
        for request in new_requests:
            self._arrival_batch.append(batch_index)
            self._arrival_time.append(float(time))

        new_indices = self._engine.add_requests(new_requests)
        if self._compute_payments and self._faults_active:
            # Fault mode: requeued revocation victims are leftovers that CAN
            # be admitted, so the batch-local replay-pool optimization below
            # is unsound — replay over every live request instead.
            pool_indices = [
                i
                for i in range(self._engine.num_requests)
                if self._engine.is_live(i)
            ]
        else:
            pool_indices = new_indices
        guard = None
        guard_dropped: list[int] = []
        if self._faults_active:
            # Feasibility backstop on a degraded substrate: a churn-shrunk
            # edge can sit below B, where dual prices no longer rule out an
            # overloading admission (see drain_engine).  Never active
            # fault-free, so the zero-intensity path stays bit-identical.
            load = np.zeros(self._graph.num_edges, dtype=np.float64)
            for item in self._routed:
                load[list(item.edge_ids)] += item.request.demand
            capacities = self._graph.capacities

            def guard(selection: Selection) -> bool:
                demand = self._engine.request_at(selection.index).demand
                edges = list(selection.edge_ids)
                if np.any(load[edges] + demand > capacities[edges] + 1e-12):
                    guard_dropped.append(selection.index)
                    return False
                load[edges] += demand
                return True

        admitted = drain_engine(
            self._engine,
            admission=self._admission,
            score_threshold=self._threshold,
            capacity_guard=guard,
        )
        if guard_dropped:
            # A guard-dropped request is out of the pool for good; the
            # payment replays below must not resurrect it (without it, the
            # replayed drain makes exactly the live decisions: the drop
            # touched no dual state).
            dropped_set = set(guard_dropped)
            pool_indices = [i for i in pool_indices if i not in dropped_set]

        events: list[AdmissionEvent] = []
        for selection in admitted:
            request = self._engine.request_at(selection.index)
            self._routed.append(
                RoutedRequest(
                    request_index=selection.index,
                    request=request,
                    vertices=selection.vertices,
                    edge_ids=selection.edge_ids,
                    copies=1,
                )
            )
            events.append(
                AdmissionEvent(
                    request_index=selection.index,
                    batch=batch_index,
                    arrival_batch=self._arrival_batch[selection.index],
                    arrival_time=self._arrival_time[selection.index],
                    score=selection.score,
                )
            )

        if self._compute_payments and admitted:
            # Fault-free, the replay pool is exactly this batch's arrivals.
            # Leftovers from earlier batches can never be admitted (greedy
            # leaves the pool non-empty only once the budget has fired,
            # which is final; threshold prices out against monotone scores)
            # and, never being the argmin below the threshold, never
            # influence which other requests a drain admits — so excluding
            # them is behavior-identical and keeps replay cost O(batch),
            # not O(stream).  Under faults both premises break (weights can
            # drop, victims requeue), so pool_indices is the full live pool.
            payments = batch_critical_values(
                self._graph,
                self._snapshot,
                [(i, self._engine.request_at(i)) for i in pool_indices],
                [selection.index for selection in admitted],
                admission=self._admission,
                score_threshold=self._threshold,
            )
            self._payments.update(payments)
            events = [
                dataclasses.replace(
                    event, payment=payments.get(event.request_index, 0.0)
                )
                for event in events
            ]

        self._events.extend(events)
        if self._compute_payments and admitted:
            self._snapshot = self._duals.copy()
        self._wall_time += _time.perf_counter() - start
        return events

    def run(self, stream: Iterable[Batch]) -> StreamingAllocation:
        """Consume a whole arrival stream and return the finalized result."""
        for batch in stream:
            self.submit(batch.requests, time=batch.time)
        return self.finalize()

    def finalize(self) -> StreamingAllocation:
        """Snapshot the run as a :class:`StreamingAllocation`.

        Requests still pending (greedy policy, budget never fired) and
        requests priced out or unroutable are reported as rejected; the
        embedded instance holds every request that arrived, in arrival
        order, so offline algorithms can be run on it for competitive-ratio
        comparisons.
        """
        num_arrived = self._engine.num_requests
        instance = UFPInstance(
            self._graph,
            [self._engine.request_at(i) for i in range(num_arrived)],
            name=self._name,
            metadata={
                "kind": "online-stream",
                "admission": self._admission,
                "score_threshold": self._threshold,
                "epsilon": self._epsilon,
                "num_batches": self._num_batches,
            },
        )
        admitted_set = {item.request_index for item in self._routed}
        rejected = tuple(i for i in range(num_arrived) if i not in admitted_set)
        payments = np.zeros(num_arrived, dtype=np.float64)
        for index, payment in self._payments.items():
            payments[index] = payment
        extra = {
            "final_dual_budget": self._duals.budget,
            "dual_budget_limit": self._duals.budget_limit,
            "epsilon": self._epsilon,
            "capacity_bound": self._duals.capacity_bound,
            "num_batches": float(self._num_batches),
            **self._engine.stats.as_extra(),
        }
        if self._faults_active:
            extra["fault_revocations"] = float(len(self._revocations))
            extra["fault_refunded"] = sum(
                event.refunded for event in self._revocations
            )
            extra["fault_compensation"] = sum(
                event.compensation for event in self._revocations
            )
        stats = RunStats(
            iterations=len(self._routed),
            shortest_path_calls=self._engine.stats.dijkstra_calls,
            stopped_by_budget=not self._duals.within_budget,
            wall_time_s=self._wall_time,
            extra=extra,
        )
        policy = (
            f"threshold={self._threshold:g}"
            if self._admission == "threshold"
            else "greedy"
        )
        return StreamingAllocation(
            instance=instance,
            routed=list(self._routed),
            stats=stats,
            algorithm=f"Online-Bounded-UFP(eps={self._epsilon:g}, {policy})",
            events=list(self._events),
            rejected=rejected,
            num_batches=self._num_batches,
            payments=payments,
            revocations=list(self._revocations),
        )
