"""Streaming allocations: the output of an *online* unsplittable-flow auction.

An offline :class:`~repro.flows.allocation.Allocation` is a set of (request,
path) pairs; a streaming run additionally has a *history* — when each request
arrived, in which batch it was admitted, what its normalized price was at
admission time, and what it was charged.  :class:`StreamingAllocation`
extends :class:`Allocation` with that history, so everything that consumes
allocations (feasibility validation, edge loads, value accounting, the
experiment harness) works on online results unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flows.allocation import Allocation

__all__ = ["AdmissionEvent", "RevocationEvent", "StreamingAllocation"]


@dataclass(frozen=True)
class AdmissionEvent:
    """One irrevocable admission decision of an online auction.

    Attributes
    ----------
    request_index:
        Index of the request in arrival order (the index space of the
        finalized instance).
    batch:
        Index of the arrival batch whose processing admitted the request.
        For the built-in policies this always equals ``arrival_batch``
        (greedy defers only past budget exhaustion, which is final, and
        threshold prices out monotonically); the field exists so future
        policies that genuinely defer admissions stay representable.
    arrival_batch:
        Index of the batch the request arrived in.
    arrival_time:
        Timestamp attached to the arrival batch by the arrival process.
    score:
        The exact normalized score ``(d_r / v_r) * dist_y(s_r, t_r)`` at the
        moment of admission.
    payment:
        The online critical-value payment charged (0 when payments were not
        computed).
    """

    request_index: int
    batch: int
    arrival_batch: int
    arrival_time: float
    score: float
    payment: float = 0.0


@dataclass(frozen=True)
class RevocationEvent:
    """One allocation revoked by a substrate fault (never by the mechanism).

    Admissions are irrevocable under the paper's model; revocations exist
    only in the fault-injection extension, where an edge failing or
    shrinking mid-stream can physically strand an already-routed request.

    Attributes
    ----------
    request_index:
        Index of the victim in arrival order.
    batch:
        Index of the batch *about to be processed* when the fault fired
        (faults apply between batches).
    reason:
        ``"edge_failure"`` or ``"capacity_shrink"``.
    edge_ids:
        The path the victim was routed on when revoked.
    value:
        The victim's declared value (the welfare lost if it never re-routes).
    refunded:
        The online payment returned to the victim (0 when payments were off
        or the victim had not been charged).
    compensation:
        Extra damages paid by the operator on top of the refund
        (``compensation_rate * refunded``).
    requeued:
        Whether the victim re-entered the live pool for possible
        re-admission (false once its requeue budget is exhausted).
    """

    request_index: int
    batch: int
    reason: str
    edge_ids: tuple[int, ...]
    value: float
    refunded: float
    compensation: float
    requeued: bool


@dataclass
class StreamingAllocation(Allocation):
    """An :class:`Allocation` plus the admission history that produced it.

    Attributes
    ----------
    events:
        One :class:`AdmissionEvent` per routed request, in admission order
        (aligned with ``routed``).
    rejected:
        Arrival-order indices of requests that were *not* admitted — either
        explicitly priced out by the admission policy, unroutable, or still
        pending when the stream ended.
    num_batches:
        Number of arrival batches processed.
    payments:
        Per-request payments aligned with the finalized instance's request
        order (all zeros when payments were not computed).
    """

    events: list[AdmissionEvent] = field(default_factory=list)
    rejected: tuple[int, ...] = ()
    num_batches: int = 0
    payments: np.ndarray = field(default_factory=lambda: np.zeros(0))
    revocations: list[RevocationEvent] = field(default_factory=list)

    @property
    def revenue(self) -> float:
        """Total online payments collected (refunds already netted out)."""
        return float(self.payments.sum()) if self.payments.size else 0.0

    @property
    def total_refunded(self) -> float:
        """Payments returned to fault-revoked winners."""
        return sum(event.refunded for event in self.revocations)

    @property
    def total_compensation(self) -> float:
        """Damages paid on top of refunds to fault-revoked winners."""
        return sum(event.compensation for event in self.revocations)

    @property
    def value_revoked(self) -> float:
        """Declared value stranded by revocations that never re-routed.

        A victim that was later re-admitted (it appears in ``routed``) does
        not count — its value made it into the final allocation after all.
        """
        final = {item.request_index for item in self.routed}
        victims = {event.request_index: event.value for event in self.revocations}
        return sum(
            value for index, value in victims.items() if index not in final
        )

    @property
    def admission_rate(self) -> float:
        """Fraction of arrived requests that were admitted (1.0 when no
        requests arrived)."""
        total = self.instance.num_requests
        return (self.num_selected / total) if total else 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingAllocation(algorithm={self.algorithm!r}, "
            f"selected={self.num_selected}/{self.instance.num_requests}, "
            f"batches={self.num_batches}, value={self.value:g}, "
            f"revenue={self.revenue:g})"
        )
