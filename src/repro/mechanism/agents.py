"""Agents, true types, declarations and quasi-linear utilities.

The library separates the *true* type of an agent from what it *declares* to
the mechanism.  For the unsplittable flow problem the type is the pair
``(demand, value)``; for the (known) single-minded auction it is the value
(and optionally the bundle, in the unknown single-minded setting).

Utility model (standard single-minded quasi-linear utilities):

* a winning UFP agent obtains its true value only if the declared demand it
  was allocated covers its true demand (declaring a *smaller* demand yields
  an allocation too small to carry the agent's traffic, hence worthless);
  it always pays its payment;
* a winning auction agent obtains its true value only if the allocated
  (declared) bundle contains its true bundle;
* a losing agent obtains zero and pays zero (the mechanisms are normalized).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.auctions.instance import Bid
from repro.flows.request import Request

__all__ = ["UFPAgent", "MUCAAgent"]


@dataclass(frozen=True)
class UFPAgent:
    """An unsplittable-flow agent: a true request plus a declaration."""

    true_request: Request
    declared_request: Request

    @classmethod
    def truthful(cls, request: Request) -> "UFPAgent":
        """An agent that declares its true type."""
        return cls(true_request=request, declared_request=request)

    @staticmethod
    def reported_type(request: Request) -> tuple[float, float]:
        """The type audits report: ``(demand, value)``."""
        return (request.demand, request.value)

    @property
    def is_truthful(self) -> bool:
        return (
            abs(self.declared_request.demand - self.true_request.demand) < 1e-15
            and abs(self.declared_request.value - self.true_request.value) < 1e-15
        )

    def allocation_serves_agent(self, selected: bool) -> bool:
        """Whether a selection under the declared type actually serves the
        agent's true need (the exactness model: the mechanism reserves exactly
        the declared demand)."""
        return selected and self.declared_request.demand >= self.true_request.demand - 1e-12

    def utility(self, selected: bool, payment: float) -> float:
        """Quasi-linear utility of the outcome with respect to the true type."""
        gained = self.true_request.value if self.allocation_serves_agent(selected) else 0.0
        paid = payment if selected else 0.0
        return gained - paid


@dataclass(frozen=True)
class MUCAAgent:
    """A single-minded auction agent: a true bid plus a declaration."""

    true_bid: Bid
    declared_bid: Bid

    @classmethod
    def truthful(cls, bid: Bid) -> "MUCAAgent":
        return cls(true_bid=bid, declared_bid=bid)

    @staticmethod
    def reported_type(bid: Bid) -> tuple[float]:
        """The type audits report (known single-minded): ``(value,)``."""
        return (bid.value,)

    @property
    def is_truthful(self) -> bool:
        return (
            self.declared_bid.bundle == self.true_bid.bundle
            and abs(self.declared_bid.value - self.true_bid.value) < 1e-15
        )

    def allocation_serves_agent(self, selected: bool) -> bool:
        """A winning declared bundle serves the agent only if it contains the
        true bundle (unknown single-minded model, cf. Corollary 4.2)."""
        return selected and set(self.true_bid.bundle) <= set(self.declared_bid.bundle)

    def utility(self, selected: bool, payment: float) -> float:
        gained = self.true_bid.value if self.allocation_serves_agent(selected) else 0.0
        paid = payment if selected else 0.0
        return gained - paid
