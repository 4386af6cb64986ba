"""Empirical monotonicity and exactness audits.

Lemma 3.4 proves ``Bounded-UFP`` monotone analytically; these audits verify
the property *empirically* on concrete instances and — more importantly —
expose the *non*-monotonicity of baselines such as randomized LP rounding,
which is the paper's motivation for avoiding them.

Monotonicity (Definition 2.1): if a request is selected with declaration
``(d, v)``, it must still be selected with any declaration ``(d', v')`` where
``d' <= d`` and ``v' >= v``, all other declarations fixed.  The audit samples
such dominating declarations for winners (and, symmetrically, dominated
declarations for losers, which must stay losing) and reports violations.
Both checks share one loop over the re-run selection oracle of
:mod:`repro.mechanism.payments`: they test the algorithm itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import Bid, MUCAInstance
from repro.flows.allocation import Allocation
from repro.flows.instance import UFPInstance
from repro.flows.request import Request
from repro.mechanism.agents import MUCAAgent, UFPAgent
from repro.mechanism.payments import _declarations, _RerunOracle, _winner_set
from repro.utils.prng import ensure_rng

__all__ = [
    "MonotonicityViolation",
    "MonotonicityReport",
    "check_ufp_monotonicity",
    "check_muca_monotonicity",
    "check_exactness",
]


@dataclass(frozen=True)
class MonotonicityViolation:
    """One witnessed violation of Definition 2.1."""

    agent_index: int
    original_type: tuple
    deviated_type: tuple
    originally_selected: bool
    deviated_selected: bool

    def describe(self) -> str:
        direction = "winner dropped" if self.originally_selected else "loser promoted"
        return (
            f"agent {self.agent_index}: {direction} when type changed from "
            f"{self.original_type} to {self.deviated_type}"
        )


@dataclass
class MonotonicityReport:
    """Result of a monotonicity audit."""

    trials: int = 0
    violations: list[MonotonicityViolation] = field(default_factory=list)

    @property
    def is_monotone(self) -> bool:
        """Whether no violation was found (within the sampled deviations)."""
        return not self.violations

    @property
    def violation_rate(self) -> float:
        return len(self.violations) / self.trials if self.trials else 0.0

    def summary(self) -> str:
        status = "monotone" if self.is_monotone else "NOT monotone"
        return (
            f"{status}: {len(self.violations)} violation(s) in {self.trials} sampled "
            "deviations"
        )


def _check_monotonicity(
    algorithm, instance, agent_cls, deviate: Callable, *, trials, seed
) -> MonotonicityReport:
    """The loop of both checks; ``deviate(declared, selected, rng)`` draws
    one deviation.  The call order (one base run, then one run per trial
    right after its draws) is part of the contract: a randomized rule, like
    E4's coin counter, sees it."""
    rng = ensure_rng(seed)
    winners = _winner_set(algorithm(instance))
    oracle = _RerunOracle(algorithm, instance)
    report = MonotonicityReport()

    for index, declared in enumerate(_declarations(instance)):
        selected = index in winners
        for _ in range(int(trials)):
            deviated = deviate(declared, selected, rng)
            deviated_selected = oracle.probe_selected(index, deviated)
            report.trials += 1
            if deviated_selected != selected:
                report.violations.append(
                    MonotonicityViolation(
                        agent_index=index,
                        original_type=agent_cls.reported_type(declared),
                        deviated_type=agent_cls.reported_type(deviated),
                        originally_selected=selected,
                        deviated_selected=deviated_selected,
                    )
                )
    return report


def _deviate_request(request: Request, selected: bool, rng) -> Request:
    if selected:
        demand = float(request.demand * rng.uniform(0.3, 1.0))
        value = float(request.value * rng.uniform(1.0, 3.0))
    else:
        demand = float(min(request.demand * rng.uniform(1.0, 2.0), 1.0))
        value = float(request.value * rng.uniform(0.2, 1.0))
    return request.with_type(demand=demand, value=value)


def _deviate_bid(bid: Bid, selected: bool, rng) -> Bid:
    factor = rng.uniform(1.0, 3.0) if selected else rng.uniform(0.2, 1.0)
    return bid.with_value(float(bid.value * factor))


def check_ufp_monotonicity(
    algorithm: Callable[[UFPInstance], Allocation],
    instance: UFPInstance,
    *,
    trials_per_request: int = 5,
    seed: int | np.random.Generator | None = None,
) -> MonotonicityReport:
    """Sample type deviations and check Definition 2.1 for every request.

    For each *winner* the sampled deviations lower the demand and raise the
    value (the winner must stay selected); for each *loser* they raise the
    demand and lower the value (the loser must stay unselected) — the
    contrapositive of the same property.
    """
    return _check_monotonicity(
        algorithm, instance, UFPAgent, _deviate_request, trials=trials_per_request,
        seed=seed,
    )


def check_muca_monotonicity(
    algorithm: Callable[[MUCAInstance], MUCAAllocation],
    instance: MUCAInstance,
    *,
    trials_per_bid: int = 5,
    seed: int | np.random.Generator | None = None,
) -> MonotonicityReport:
    """Value-monotonicity audit for auction algorithms (winners must survive
    value increases; losers must not win after value decreases)."""
    return _check_monotonicity(
        algorithm, instance, MUCAAgent, _deviate_bid, trials=trials_per_bid,
        seed=seed,
    )


def check_exactness(allocation: Allocation) -> bool:
    """Exactness (Definition 2.2): every selected request is routed exactly
    once along a single path carrying its full demand, and unselected
    requests receive nothing.  For the allocation objects of this library
    the only way to violate exactness is to route a request more than once,
    so the check reduces to that."""
    seen: set[int] = set()
    for item in allocation.routed:
        if item.request_index in seen or item.copies != 1:
            return False
        seen.add(item.request_index)
    return True
