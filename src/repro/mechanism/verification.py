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

Both audits share one per-agent loop over one selection oracle
(:mod:`repro.mechanism.payments`) that answers every outcome and payment
probe; UFP and MUCA differ only in how misreports are drawn and in the agent
class, which reports the type as ``(demand, value)`` or ``(value,)``.
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
from repro.mechanism.payments import _critical_value, _declarations, _record_base_run
from repro.utils.prng import ensure_rng

__all__ = [
    "ProfitableDeviation",
    "TruthfulnessReport",
    "audit_ufp_truthfulness",
    "audit_muca_truthfulness",
]

#: Utility gains up to this much are attributed to the critical values'
#: bisection tolerance and not reported; a truthful utility below its
#: negation breaks individual rationality.
_UTILITY_TOLERANCE = 1e-4


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


def _outcome(oracle, index: int, declaration) -> tuple[bool, float]:
    """(selected, payment) of agent ``index`` declaring ``declaration``, all
    else as in the audited instance.  Payment is the critical value when
    selected, else 0."""
    if not oracle.probe_selected(index, declaration):
        return False, 0.0
    return True, _critical_value(oracle, index, declaration)


def _audit_agent(task: tuple[int, list]):
    """Audit one agent: evaluate the truthful outcome plus every misreport.
    The misreports that do not depend on the outcome arrive drawn in the
    task, so the evaluations are a pure function of it (the fan-out
    contract of :func:`repro.parallel.pmap`) and the report is
    bit-identical at any ``jobs``."""
    index, misreports = task
    oracle, agent_cls = parallel.worker_payload()
    truth = oracle.declared(index)
    truthful_selected, truthful_payment = _outcome(oracle, index, truth)
    truthful_utility = agent_cls.truthful(truth).utility(
        truthful_selected, truthful_payment
    )
    if truthful_utility < -_UTILITY_TOLERANCE:
        raise MechanismError(
            f"truth-telling yields negative utility {truthful_utility:.4g} for agent "
            f"{index}; the payment rule is not individually rational"
        )

    # Structured misreports: inflate the value a lot (try to force a win),
    # and shade the value down towards the payment (try to pay less).
    lies = [*misreports, truth.with_value(truth.value * 10.0)]
    if truthful_selected and truthful_payment > 0:
        lies.append(truth.with_value(truthful_payment * 1.01))

    deviations: list[ProfitableDeviation] = []
    max_gain = 0.0
    for lie in lies:
        lie_selected, lie_payment = _outcome(oracle, index, lie)
        lie_utility = agent_cls(truth, lie).utility(lie_selected, lie_payment)
        gain = lie_utility - truthful_utility
        max_gain = max(max_gain, gain)
        if gain > _UTILITY_TOLERANCE:
            deviations.append(
                ProfitableDeviation(
                    agent_index=index,
                    true_type=agent_cls.reported_type(truth),
                    misreported_type=agent_cls.reported_type(lie),
                    truthful_utility=truthful_utility,
                    deviating_utility=lie_utility,
                )
            )
    return len(lies), deviations, max_gain


def _audit(
    algorithm, instance, agent_cls, draw_misreports: Callable, *,
    agents, seed, jobs, use_trace,
) -> TruthfulnessReport:
    """The body of both audits.  ``draw_misreports(truth, rng)`` returns one
    agent's random and grid misreports as declarations."""
    rng = ensure_rng(seed)
    declarations = _declarations(instance)
    count = len(declarations)
    indices = list(range(count)) if agents is None else [int(a) for a in agents]
    for index in indices:
        if not 0 <= index < count:
            raise IndexError(f"agent index {index} is out of range for {count} agents")
    oracle = _record_base_run(algorithm, instance, use_trace=use_trace)

    # Draw every agent's misreports up front, in agent order: the RNG
    # consumption of a sequential loop (evaluations never touch the stream).
    tasks = [(index, draw_misreports(declarations[index], rng)) for index in indices]
    outcomes = parallel.pmap(_audit_agent, tasks, jobs=jobs, payload=(oracle, agent_cls))
    report = TruthfulnessReport()
    for tried, deviations, max_gain in outcomes:
        report.agents_audited += 1
        report.misreports_tried += tried
        report.profitable_deviations.extend(deviations)
        report.max_gain = max(report.max_gain, max_gain)
    return report


def audit_ufp_truthfulness(
    algorithm: Callable[[UFPInstance], Allocation],
    instance: UFPInstance,
    *,
    agents: list[int] | None = None,
    misreports_per_agent: int = 6,
    misreport_grid: Sequence[tuple[float, float]] | None = None,
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
        Which request indices to audit (default: all).  An index outside
        ``[0, num_requests)`` raises :class:`IndexError`.
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
    jobs:
        Worker processes for the per-agent audits (``None`` → the
        ``REPRO_JOBS`` environment default → serial).  The random draws
        happen up front in agent order from the single RNG stream, so the
        report is bit-identical at any ``jobs``.
    use_trace:
        Record the truthful base run once and answer every evaluation (the
        lie's selection *and* its payment probes, each a single-declaration
        perturbation) from the agent's table, one run with the agent
        excluded (:mod:`repro.core.trace`), instead of re-running
        ``algorithm``.  The report is bit-identical either way.  Falls back
        silently when ``algorithm`` does not accept ``trace=``, and with a
        warning when a ``**kwargs`` wrapper drops it.
    """

    def draw_misreports(request, rng) -> list:
        lies = []
        for _ in range(int(misreports_per_agent)):
            demand = float(
                np.clip(request.demand * rng.uniform(0.3, 1.5), 1e-6, 1.0)
            )
            value = float(request.value * rng.uniform(0.3, 3.0))
            lies.append(request.with_type(demand=demand, value=value))
        for demand_factor, value_factor in misreport_grid or ():
            demand = float(np.clip(request.demand * demand_factor, 1e-6, 1.0))
            value = float(request.value * value_factor)
            lies.append(request.with_type(demand=demand, value=value))
        return lies

    return _audit(
        algorithm, instance, UFPAgent, draw_misreports, agents=agents,
        seed=seed, jobs=jobs, use_trace=use_trace,
    )


def audit_muca_truthfulness(
    algorithm: Callable[[MUCAInstance], MUCAAllocation],
    instance: MUCAInstance,
    *,
    agents: list[int] | None = None,
    misreports_per_agent: int = 6,
    value_grid: Sequence[float] | None = None,
    seed: int | np.random.Generator | None = None,
    jobs: int | None = None,
    use_trace: bool = False,
) -> TruthfulnessReport:
    """Value-misreport audit of the auction mechanism (known single-minded).

    ``value_grid`` optionally adds deterministic value *multipliers* tried
    for every audited bid on top of the random draws (the MUCA analogue of
    :func:`audit_ufp_truthfulness`'s ``misreport_grid``); ``agents``,
    ``jobs`` and ``use_trace`` behave as there (an index outside
    ``[0, num_bids)`` raises, the report is bit-identical at any ``jobs``
    and with or without tracing)."""

    def draw_misreports(bid, rng) -> list:
        values = [
            float(bid.value * rng.uniform(0.3, 3.0))
            for _ in range(int(misreports_per_agent))
        ]
        values.extend(float(bid.value * factor) for factor in value_grid or ())
        return [bid.with_value(value) for value in values]

    return _audit(
        algorithm, instance, MUCAAgent, draw_misreports, agents=agents,
        seed=seed, jobs=jobs, use_trace=use_trace,
    )
