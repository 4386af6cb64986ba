"""Seeded per-batch fault event streams.

A :class:`FaultSchedule` is consumed by :func:`repro.faults.run_with_faults`
one batch at a time: before batch ``t`` of the arrival stream is submitted,
``events_before_batch(t, graph)`` returns the :class:`FaultEvent` list to
apply, in order.  All randomness comes from one generator owned by the
schedule, drawn in a fixed order per batch (failures, then churn, then
jamming), so a schedule is a pure function of ``(spec, seed)`` — two runs
over the same stream see byte-identical faults.

Determinism contract
--------------------
``events_before_batch`` must be called exactly once per batch index, in
increasing order starting at 0 (the injector does this).  The only graph
state it reads is which edges are currently disabled and which capacities
are currently resized — both of which are consequences of this schedule's
own earlier events, so the draw sequence never depends on auction decisions
and the schedule stays replayable.

Zero intensity
--------------
A spec with all rates zero (the default for every knob) and no scripted
events draws **nothing** from the generator and returns no events; the
differential tests assert such runs are bit-identical to fault-free runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError
from repro.flows.request import Request
from repro.graphs.graph import CapacitatedGraph
from repro.utils.prng import ensure_rng

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "JAM_NAME_PREFIX",
    "is_jam_request",
    "normalize_fault_spec",
]

#: Jam (griefing) requests are tagged through their ``name`` so that the
#: degradation accounting can split admitted value into honest vs. jam.
JAM_NAME_PREFIX = "jam:"

_KINDS = ("fail", "repair", "resize", "revert", "jam")

_DEFAULT_SPEC: dict[str, Any] = {
    # Expected edge failures per batch (Poisson); each failed edge comes
    # back after failure_duration batches (0 = permanent outage).
    "edge_failure_rate": 0.0,
    "failure_duration": 0,
    # Expected resize events per batch (Poisson); each picks churn_edges
    # distinct live edges and multiplies their capacities by a factor drawn
    # uniformly from churn_factor_range.  After churn_duration batches the
    # affected edges revert to their exact original capacities (0 = never).
    "churn_rate": 0.0,
    "churn_factor_range": (0.5, 1.5),
    "churn_edges": 1,
    "churn_duration": 0,
    # Expected jam (griefing) requests per batch (Poisson), with demands
    # and values drawn uniformly from the given ranges — high demand, low
    # value: traffic that crowds out honest requests while contributing
    # almost nothing.
    "jam_rate": 0.0,
    "jam_demand_range": (0.5, 1.0),
    "jam_value_range": (0.01, 0.05),
    # Flat fee charged per arriving request (honest and jam alike) and kept
    # by the operator regardless of admission — the Lightning-jamming
    # deterrent.  Accounted by the injector, not by the mechanism.
    "upfront_fee": 0.0,
    # Scripted events: a list of {"batch", "kind", "edges"?, "factor"?}
    # dicts applied verbatim at their batch (before any random events of
    # that batch).  The deterministic escape hatch used by tests.
    "events": (),
}


def is_jam_request(request: Request) -> bool:
    """Whether ``request`` was generated by a jamming stream."""
    return request.name.startswith(JAM_NAME_PREFIX)


def normalize_fault_spec(spec: dict[str, Any] | None) -> dict[str, Any]:
    """Fill defaults and validate a fault spec; returns a fresh dict."""
    spec = dict(spec or {})
    unknown = set(spec) - set(_DEFAULT_SPEC)
    if unknown:
        raise InvalidInstanceError(
            f"unknown fault spec keys {sorted(unknown)}; "
            f"known: {sorted(_DEFAULT_SPEC)}"
        )
    out = dict(_DEFAULT_SPEC)
    out.update(spec)
    for key in ("edge_failure_rate", "churn_rate", "jam_rate", "upfront_fee"):
        out[key] = float(out[key])
        if out[key] < 0.0:
            raise InvalidInstanceError(f"fault spec {key} must be >= 0")
    for key in ("failure_duration", "churn_duration", "churn_edges"):
        out[key] = int(out[key])
        if out[key] < 0:
            raise InvalidInstanceError(f"fault spec {key} must be >= 0")
    if out["churn_edges"] < 1:
        raise InvalidInstanceError("fault spec churn_edges must be >= 1")
    for key in ("churn_factor_range", "jam_demand_range", "jam_value_range"):
        lo, hi = (float(out[key][0]), float(out[key][1]))
        if not (0.0 < lo <= hi):
            raise InvalidInstanceError(
                f"fault spec {key} must satisfy 0 < lo <= hi"
            )
        out[key] = (lo, hi)
    events = []
    for raw in out["events"]:
        raw = dict(raw)
        kind = raw.get("kind")
        if kind not in _KINDS:
            raise InvalidInstanceError(
                f"scripted fault event kind {kind!r} not in {_KINDS}"
            )
        events.append(
            FaultEvent(
                batch=int(raw["batch"]),
                kind=kind,
                edge_ids=tuple(int(e) for e in raw.get("edges", ())),
                factor=float(raw.get("factor", 1.0)),
            )
        )
    out["events"] = tuple(events)
    return out


def _is_zero_intensity(spec: dict[str, Any]) -> bool:
    return (
        spec["edge_failure_rate"] == 0.0
        and spec["churn_rate"] == 0.0
        and spec["jam_rate"] == 0.0
        and not spec["events"]
    )


@dataclass(frozen=True)
class FaultEvent:
    """One substrate/workload fault, applied before a given batch.

    ``kind`` is one of ``"fail"``, ``"repair"``, ``"resize"`` (multiply the
    capacities of ``edge_ids`` by ``factor``), ``"revert"`` (restore the
    exact original capacities of ``edge_ids``) or ``"jam"`` (inject
    ``requests`` into the batch's arrivals).
    """

    batch: int
    kind: str
    edge_ids: tuple[int, ...] = ()
    factor: float = 1.0
    requests: tuple[Request, ...] = field(default=(), compare=False)


class FaultSchedule:
    """Stateful generator of per-batch fault events (see module docstring).

    Parameters
    ----------
    spec:
        Plain-dict fault intensities — see ``normalize_fault_spec`` for the
        knobs and their defaults (all zero).
    seed:
        Seed / generator for the event draws; schedules are pure functions
        of ``(spec, seed)``.
    """

    def __init__(
        self,
        spec: dict[str, Any] | None = None,
        *,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._spec = normalize_fault_spec(spec)
        self._rng = ensure_rng(seed)
        self._zero = _is_zero_intensity(self._spec)
        # (due_batch, sequence, event) — sequence breaks heap ties stably.
        self._pending: list[tuple[int, int, FaultEvent]] = []
        self._seq = 0
        self._next_jam_id = 0
        self._scripted: dict[int, list[FaultEvent]] = {}
        for event in self._spec["events"]:
            self._scripted.setdefault(event.batch, []).append(event)
        self.history: list[FaultEvent] = []

    @property
    def spec(self) -> dict[str, Any]:
        """The normalized spec (copy)."""
        return dict(self._spec)

    @property
    def zero_intensity(self) -> bool:
        """Whether this schedule can never emit an event."""
        return self._zero

    def _defer(self, due: int, event: FaultEvent) -> None:
        heapq.heappush(self._pending, (due, self._seq, event))
        self._seq += 1

    def _jam_requests(self, count: int, graph: CapacitatedGraph) -> tuple:
        spec = self._spec
        n = graph.num_vertices
        rng = self._rng
        d_lo, d_hi = spec["jam_demand_range"]
        v_lo, v_hi = spec["jam_value_range"]
        requests = []
        for _ in range(count):
            source = int(rng.integers(0, n))
            target = int(rng.integers(0, n - 1))
            if target >= source:
                target += 1
            requests.append(
                Request(
                    source=source,
                    target=target,
                    demand=float(rng.uniform(d_lo, d_hi)),
                    value=float(rng.uniform(v_lo, v_hi)),
                    name=f"{JAM_NAME_PREFIX}{self._next_jam_id}",
                )
            )
            self._next_jam_id += 1
        return tuple(requests)

    def events_before_batch(
        self, batch_index: int, graph: CapacitatedGraph
    ) -> list[FaultEvent]:
        """The fault events to apply before submitting batch ``batch_index``.

        Must be called once per batch in increasing order; ``graph`` is the
        auction's *current* substrate (used to pick live edges and vertex
        count — never to read allocation state).
        """
        if self._zero:
            return []
        events: list[FaultEvent] = []
        # 1. Scheduled repairs/reverts that fell due.
        while self._pending and self._pending[0][0] <= batch_index:
            events.append(heapq.heappop(self._pending)[2])
        # 2. Scripted events pinned to this batch.
        events.extend(self._scripted.pop(batch_index, ()))
        # 3. Random events, drawn in a fixed order.
        spec = self._spec
        rng = self._rng
        disabled = graph.disabled_edges
        if spec["edge_failure_rate"] > 0.0:
            live = [e for e in range(graph.num_edges) if e not in disabled]
            count = min(int(rng.poisson(spec["edge_failure_rate"])), len(live))
            if count:
                picked = rng.choice(len(live), size=count, replace=False)
                edges = tuple(sorted(live[int(i)] for i in picked))
                events.append(
                    FaultEvent(batch=batch_index, kind="fail", edge_ids=edges)
                )
                if spec["failure_duration"] > 0:
                    self._defer(
                        batch_index + spec["failure_duration"],
                        FaultEvent(
                            batch=batch_index + spec["failure_duration"],
                            kind="repair",
                            edge_ids=edges,
                        ),
                    )
        if spec["churn_rate"] > 0.0:
            hits = int(rng.poisson(spec["churn_rate"]))
            lo, hi = spec["churn_factor_range"]
            for _ in range(hits):
                live = [e for e in range(graph.num_edges) if e not in disabled]
                if not live:
                    break
                size = min(spec["churn_edges"], len(live))
                picked = rng.choice(len(live), size=size, replace=False)
                edges = tuple(sorted(live[int(i)] for i in picked))
                factor = float(rng.uniform(lo, hi))
                events.append(
                    FaultEvent(
                        batch=batch_index,
                        kind="resize",
                        edge_ids=edges,
                        factor=factor,
                    )
                )
                if spec["churn_duration"] > 0:
                    self._defer(
                        batch_index + spec["churn_duration"],
                        FaultEvent(
                            batch=batch_index + spec["churn_duration"],
                            kind="revert",
                            edge_ids=edges,
                        ),
                    )
        if spec["jam_rate"] > 0.0:
            count = int(rng.poisson(spec["jam_rate"]))
            if count:
                events.append(
                    FaultEvent(
                        batch=batch_index,
                        kind="jam",
                        requests=self._jam_requests(count, graph),
                    )
                )
        self.history.extend(events)
        return events


def _scripted_only(events: Sequence[FaultEvent]) -> "FaultSchedule":
    """Internal helper for tests: a schedule replaying exactly ``events``."""
    schedule = FaultSchedule({}, seed=0)
    schedule._zero = False
    for event in events:
        schedule._scripted.setdefault(event.batch, []).append(event)
    return schedule
