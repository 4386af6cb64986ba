"""Mechanism-design layer: from monotone algorithms to truthful mechanisms.

Theorem 2.3 (Lehmann et al. / Briest et al.): a monotone and exact
allocation algorithm, combined with *critical-value* payments, is a truthful
mechanism.  This package implements that construction generically:

* :mod:`repro.mechanism.agents` — true vs. declared types and agent utility.
* :mod:`repro.mechanism.payments` — critical values by bisection over the
  declared value, every probe answered by a *selection oracle* ("is agent
  ``i`` selected declaring ``x``?"): the agent's probe table from one
  recorded run when the algorithm accepts ``trace=``, else a re-run of the
  algorithm.  The audits and monotonicity checks below ask the same
  oracles.
* :mod:`repro.mechanism.truthful` — the full mechanisms
  (:func:`~repro.mechanism.truthful.run_truthful_ufp_mechanism`,
  :func:`~repro.mechanism.truthful.run_truthful_muca_mechanism`).
* :mod:`repro.mechanism.monotonicity` — empirical monotonicity / exactness
  audits of arbitrary allocation algorithms.
* :mod:`repro.mechanism.verification` — truthfulness audits: no sampled
  misreport may beat truth-telling under the computed payments.
"""

from repro.mechanism.agents import UFPAgent, MUCAAgent
from repro.mechanism.payments import compute_ufp_payments, compute_muca_payments
from repro.mechanism.truthful import (
    MechanismResult,
    run_truthful_ufp_mechanism,
    run_truthful_muca_mechanism,
)
from repro.mechanism.monotonicity import (
    MonotonicityReport,
    check_ufp_monotonicity,
    check_muca_monotonicity,
    check_exactness,
)
from repro.mechanism.verification import (
    TruthfulnessReport,
    audit_ufp_truthfulness,
    audit_muca_truthfulness,
)

__all__ = [
    "UFPAgent",
    "MUCAAgent",
    "compute_ufp_payments",
    "compute_muca_payments",
    "MechanismResult",
    "run_truthful_ufp_mechanism",
    "run_truthful_muca_mechanism",
    "MonotonicityReport",
    "check_ufp_monotonicity",
    "check_muca_monotonicity",
    "check_exactness",
    "TruthfulnessReport",
    "audit_ufp_truthfulness",
    "audit_muca_truthfulness",
]
