"""Truthfulness audits: can any sampled misreport beat truth-telling?

Theorem 2.3 guarantees that under a monotone, exact allocation rule with
critical-value payments, no misreport ever increases an agent's utility.
The audits here test that guarantee end to end on concrete instances: for a
sample of agents and a sample of misreports, the utility of lying (computed
with the *true* type, the mechanism outcome under the *lie*, and the payment
charged under the lie) must not exceed the utility of truth-telling by more
than a numerical tolerance.

Running the audit against a *non*-monotone rule (e.g. randomized rounding)
produces positive-utility lies, which is exactly the phenomenon that makes
such rules unusable as mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import parallel
from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import MUCAInstance
from repro.exceptions import MechanismError
from repro.flows.allocation import Allocation
from repro.flows.instance import UFPInstance
from repro.mechanism.agents import MUCAAgent, UFPAgent
from repro.mechanism.payments import (
    _record_base_run,
    _trace_critical_value_muca,
    _trace_critical_value_ufp,
    critical_value_muca,
    critical_value_ufp,
)
from repro.utils.prng import ensure_rng

__all__ = [
    "ProfitableDeviation",
    "TruthfulnessReport",
    "audit_ufp_truthfulness",
    "audit_muca_truthfulness",
]


@dataclass(frozen=True)
class ProfitableDeviation:
    """A sampled misreport that strictly increased an agent's utility."""

    agent_index: int
    true_type: tuple
    misreported_type: tuple
    truthful_utility: float
    deviating_utility: float

    @property
    def gain(self) -> float:
        return self.deviating_utility - self.truthful_utility


@dataclass
class TruthfulnessReport:
    """Result of a truthfulness audit."""

    agents_audited: int = 0
    misreports_tried: int = 0
    profitable_deviations: list[ProfitableDeviation] = field(default_factory=list)
    max_gain: float = 0.0

    @property
    def is_truthful(self) -> bool:
        """No sampled misreport was (numerically significantly) profitable."""
        return not self.profitable_deviations

    def summary(self) -> str:
        status = "truthful" if self.is_truthful else "NOT truthful"
        return (
            f"{status}: {len(self.profitable_deviations)} profitable deviation(s) "
            f"out of {self.misreports_tried} misreports over {self.agents_audited} "
            f"agents (max gain {self.max_gain:.3g})"
        )


def _ufp_outcome(
    algorithm: Callable[[UFPInstance], Allocation],
    instance: UFPInstance,
    index: int,
) -> tuple[bool, float]:
    """(selected, payment) of agent ``index`` when the declared instance is
    ``instance``.  Payment is the critical value when selected, else 0."""
    allocation = algorithm(instance)
    if not allocation.is_selected(index):
        return False, 0.0
    payment = critical_value_ufp(algorithm, instance, index)
    return True, payment


def _ufp_outcome_trace(replayer, index: int, declared) -> tuple[bool, float]:
    """Trace-replay twin of :func:`_ufp_outcome`: the declared instance is
    the audit's base instance with agent ``index``'s declaration replaced
    by ``declared`` — a single-index perturbation, so both the selection
    question and every payment-bisection probe are answered from agent
    ``index``'s table.  Outcomes are bit-identical to the from-scratch
    path."""
    if not replayer.probe_selected(index, declared):
        return False, 0.0
    payment = _trace_critical_value_ufp(
        replayer,
        index,
        relative_tolerance=1e-6,
        absolute_tolerance=1e-9,
        declared=declared,
    )
    return True, payment


def _audit_ufp_agent(task: tuple[int, list[tuple[float, float]]]):
    """Audit one agent: evaluate the truthful outcome plus every misreport.

    The per-agent random ``(demand, value)`` draws arrive pre-derived in the
    task (drawn in agent order from the audit's single RNG stream *before*
    the fan-out), so the expensive mechanism evaluations are a pure function
    of the task — the fan-out contract of :func:`repro.parallel.pmap` — and
    the report is bit-identical at any ``jobs``.
    """
    idx, random_misreports = task
    algorithm, instance, misreport_grid, tolerance, replayer = parallel.worker_payload()
    true_request = instance.requests[idx]
    agent = UFPAgent.truthful(true_request)
    if replayer is not None:
        truthful_selected, truthful_payment = _ufp_outcome_trace(
            replayer, idx, true_request
        )
    else:
        truthful_selected, truthful_payment = _ufp_outcome(algorithm, instance, idx)
    truthful_utility = agent.utility(truthful_selected, truthful_payment)
    if truthful_utility < -tolerance:
        raise MechanismError(
            f"truth-telling yields negative utility {truthful_utility:.4g} for agent "
            f"{idx}; the payment rule is not individually rational"
        )

    misreports: list[tuple[float, float]] = list(random_misreports)
    for demand_factor, value_factor in misreport_grid or ():
        misreports.append(
            (
                float(np.clip(true_request.demand * demand_factor, 1e-6, 1.0)),
                float(true_request.value * value_factor),
            )
        )
    # Structured misreports: inflate the value a lot (try to force a win),
    # and shade the value down towards the payment (try to pay less).
    misreports.append((true_request.demand, true_request.value * 10.0))
    if truthful_selected and truthful_payment > 0:
        misreports.append((true_request.demand, truthful_payment * 1.01))

    deviations: list[ProfitableDeviation] = []
    max_gain = 0.0
    for demand, value in misreports:
        lie = true_request.with_type(demand=demand, value=value)
        lie_agent = UFPAgent(true_request=true_request, declared_request=lie)
        if replayer is not None:
            lie_selected, lie_payment = _ufp_outcome_trace(replayer, idx, lie)
        else:
            lie_instance = instance.replace_request(idx, lie)
            lie_selected, lie_payment = _ufp_outcome(algorithm, lie_instance, idx)
        lie_utility = lie_agent.utility(lie_selected, lie_payment)
        gain = lie_utility - truthful_utility
        max_gain = max(max_gain, gain)
        if gain > tolerance:
            deviations.append(
                ProfitableDeviation(
                    agent_index=idx,
                    true_type=(true_request.demand, true_request.value),
                    misreported_type=(demand, value),
                    truthful_utility=truthful_utility,
                    deviating_utility=lie_utility,
                )
            )
    return len(misreports), deviations, max_gain


def audit_ufp_truthfulness(
    algorithm: Callable[[UFPInstance], Allocation],
    instance: UFPInstance,
    *,
    agents: list[int] | None = None,
    misreports_per_agent: int = 6,
    misreport_grid: Sequence[tuple[float, float]] | None = None,
    tolerance: float = 1e-4,
    seed: int | np.random.Generator | None = None,
    jobs: int | None = None,
    use_trace: bool = False,
) -> TruthfulnessReport:
    """Audit the mechanism induced by ``algorithm`` + critical-value payments.

    Parameters
    ----------
    algorithm:
        The allocation rule (assumed deterministic).
    instance:
        The instance of *true* types.
    agents:
        Which request indices to audit (default: all).
    misreports_per_agent:
        How many random ``(demand, value)`` misreports to try per agent, in
        addition to two structured ones (value inflated to win, value deflated
        just above the truthful payment).
    misreport_grid:
        Optional deterministic ``(demand_factor, value_factor)`` multipliers
        applied to each agent's *true* type and tried for every audited
        agent, on top of the random draws.  A grid makes the audit's
        coverage explicit and seed-independent (the property tests sweep
        e.g. ``{0.5, 1, 2} x {0.25, 0.5, 1, 2, 4}``); demand factors are
        clipped into the normalized ``(0, 1]`` demand range.
    tolerance:
        Utility gains below this threshold are attributed to the payment
        bisection tolerance and not reported.
    jobs:
        Worker processes for the per-agent audits (``None`` → the
        ``REPRO_JOBS`` environment default → serial).  The random draws
        happen up front in agent order from the single RNG stream, so the
        report is bit-identical at any ``jobs``.
    use_trace:
        Record the truthful base run once and answer every audit
        evaluation — the lie allocations *and* all their payment-bisection
        probes, each a single-declaration perturbation of the base
        instance — from the audited agent's table: one run with the agent
        excluded (:mod:`repro.core.trace`).  The report is bit-identical
        with or without tracing; only wall-clock changes.  Falls back
        silently when ``algorithm`` does not accept a ``trace=`` keyword,
        and with a warning when a ``**kwargs`` wrapper drops it.
    """
    rng = ensure_rng(seed)
    indices = list(range(instance.num_requests)) if agents is None else [int(a) for a in agents]
    report = TruthfulnessReport()

    replayer = _record_base_run(algorithm, instance, None) if use_trace else None

    # Pre-derive every agent's random misreports in agent order — the RNG
    # consumption is exactly that of the historical sequential loop (the
    # evaluations in between never touched the stream), and the expensive
    # per-agent evaluations become independent tasks.
    tasks: list[tuple[int, list[tuple[float, float]]]] = []
    for idx in indices:
        true_request = instance.requests[idx]
        draws: list[tuple[float, float]] = []
        for _ in range(int(misreports_per_agent)):
            demand = float(
                np.clip(true_request.demand * rng.uniform(0.3, 1.5), 1e-6, 1.0)
            )
            value = float(true_request.value * rng.uniform(0.3, 3.0))
            draws.append((demand, value))
        tasks.append((idx, draws))

    outcomes = parallel.pmap(
        _audit_ufp_agent,
        tasks,
        jobs=jobs,
        payload=(algorithm, instance, misreport_grid, tolerance, replayer),
    )
    for tried, deviations, max_gain in outcomes:
        report.agents_audited += 1
        report.misreports_tried += tried
        report.profitable_deviations.extend(deviations)
        report.max_gain = max(report.max_gain, max_gain)
    return report


def _muca_outcome(
    algorithm: Callable[[MUCAInstance], MUCAAllocation],
    instance: MUCAInstance,
    index: int,
) -> tuple[bool, float]:
    allocation = algorithm(instance)
    if not allocation.is_winner(index):
        return False, 0.0
    payment = critical_value_muca(algorithm, instance, index)
    return True, payment


def _muca_outcome_trace(replayer, index: int, declared_value: float) -> tuple[bool, float]:
    """Trace-replay twin of :func:`_muca_outcome` (value-only probes)."""
    if not replayer.probe_selected(index, declared_value):
        return False, 0.0
    payment = _trace_critical_value_muca(
        replayer,
        index,
        relative_tolerance=1e-6,
        absolute_tolerance=1e-9,
        declared_value=declared_value,
    )
    return True, payment


def _audit_muca_agent(task: tuple[int, list[float]]):
    """Audit one bid; the MUCA analogue of :func:`_audit_ufp_agent`."""
    idx, random_values = task
    algorithm, instance, value_grid, tolerance, replayer = parallel.worker_payload()
    true_bid = instance.bids[idx]
    agent = MUCAAgent.truthful(true_bid)
    if replayer is not None:
        truthful_selected, truthful_payment = _muca_outcome_trace(
            replayer, idx, true_bid.value
        )
    else:
        truthful_selected, truthful_payment = _muca_outcome(algorithm, instance, idx)
    truthful_utility = agent.utility(truthful_selected, truthful_payment)
    if truthful_utility < -tolerance:
        raise MechanismError(
            f"truth-telling yields negative utility for bid {idx}; the payment "
            "rule is not individually rational"
        )

    values = list(random_values)
    values.extend(float(true_bid.value * factor) for factor in value_grid or ())
    values.append(true_bid.value * 10.0)
    if truthful_selected and truthful_payment > 0:
        values.append(truthful_payment * 1.01)

    deviations: list[ProfitableDeviation] = []
    max_gain = 0.0
    for value in values:
        lie = true_bid.with_value(value)
        lie_agent = MUCAAgent(true_bid=true_bid, declared_bid=lie)
        if replayer is not None:
            lie_selected, lie_payment = _muca_outcome_trace(replayer, idx, value)
        else:
            lie_instance = instance.replace_bid(idx, lie)
            lie_selected, lie_payment = _muca_outcome(algorithm, lie_instance, idx)
        lie_utility = lie_agent.utility(lie_selected, lie_payment)
        gain = lie_utility - truthful_utility
        max_gain = max(max_gain, gain)
        if gain > tolerance:
            deviations.append(
                ProfitableDeviation(
                    agent_index=idx,
                    true_type=(true_bid.value,),
                    misreported_type=(value,),
                    truthful_utility=truthful_utility,
                    deviating_utility=lie_utility,
                )
            )
    return len(values), deviations, max_gain


def audit_muca_truthfulness(
    algorithm: Callable[[MUCAInstance], MUCAAllocation],
    instance: MUCAInstance,
    *,
    agents: list[int] | None = None,
    misreports_per_agent: int = 6,
    value_grid: Sequence[float] | None = None,
    tolerance: float = 1e-4,
    seed: int | np.random.Generator | None = None,
    jobs: int | None = None,
    use_trace: bool = False,
) -> TruthfulnessReport:
    """Value-misreport audit of the auction mechanism (known single-minded).

    ``value_grid`` optionally adds deterministic value *multipliers* tried
    for every audited bid on top of the random draws (the MUCA analogue of
    :func:`audit_ufp_truthfulness`'s ``misreport_grid``); ``jobs`` fans the
    per-bid audits out with the same bit-identical contract, and
    ``use_trace`` answers every evaluation from the bid's table, one run
    with the bid excluded (bit-identical report, less work)."""
    rng = ensure_rng(seed)
    indices = list(range(instance.num_bids)) if agents is None else [int(a) for a in agents]
    report = TruthfulnessReport()

    replayer = _record_base_run(algorithm, instance, None) if use_trace else None

    tasks: list[tuple[int, list[float]]] = []
    for idx in indices:
        true_bid = instance.bids[idx]
        draws = [
            float(true_bid.value * rng.uniform(0.3, 3.0))
            for _ in range(int(misreports_per_agent))
        ]
        tasks.append((idx, draws))

    outcomes = parallel.pmap(
        _audit_muca_agent,
        tasks,
        jobs=jobs,
        payload=(algorithm, instance, value_grid, tolerance, replayer),
    )
    for tried, deviations, max_gain in outcomes:
        report.agents_audited += 1
        report.misreports_tried += tried
        report.profitable_deviations.extend(deviations)
        report.max_gain = max(report.max_gain, max_gain)
    return report
