"""The paper's primary contribution: monotone primal-dual algorithms.

* :func:`~repro.core.bounded_ufp.bounded_ufp` — Algorithm 1 (``Bounded-UFP``),
  the monotone deterministic ``(1+eps) e/(e-1)``-approximation for the
  ``Omega(ln m / eps^2)``-bounded unsplittable flow problem.
* :func:`~repro.core.bounded_muca.bounded_muca` — Algorithm 2
  (``Bounded-MUCA``), the specialization to single-minded multi-unit
  combinatorial auctions.
* :func:`~repro.core.bounded_ufp_repeat.bounded_ufp_repeat` — Algorithm 3
  (``Bounded-UFP-Repeat``), the ``(1+eps)``-approximation for the variant
  with repetitions.
* :mod:`repro.core.dual_state` — the exponential dual-weight state machine
  shared by all three.
* :mod:`repro.core.pricing_engine` — the lazy-greedy path/bundle pricing
  engine (monotone score caching, shortest-path-tree caching with edge-set
  invalidation) and ``greedy_rounds``, the round loop all three production
  solvers run.
* :mod:`repro.core.reference` — the original eager full-rescoring solver
  loops, kept as differential-testing oracles for the engine.
* :mod:`repro.core.trace` — the run-trace + checkpoint subsystem: record a
  solver run's acceptance trace once, then answer single-declaration probe
  runs (payment bisections, truthfulness audits, online batch payments)
  from one excluded run per probed agent.
* :mod:`repro.core.reasonable` — the *reasonable iterative path/bundle
  minimizing algorithm* framework of Definitions 3.9/3.10 and 4.3/4.4, used
  to reproduce the lower bounds of Theorems 3.11, 3.12 and 4.5.
"""

from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import (
    BundlePricingEngine,
    PathPricingEngine,
    PricingStats,
    Selection,
)
from repro.core.bounded_ufp import bounded_ufp, recommended_epsilon
from repro.core.bounded_muca import bounded_muca
from repro.core.bounded_ufp_repeat import bounded_ufp_repeat
from repro.core.reference import (
    reference_bounded_muca,
    reference_bounded_ufp,
    reference_bounded_ufp_repeat,
)
from repro.core.trace import (
    BundleTraceReplayer,
    ReplayStats,
    RunTrace,
    TraceRecorder,
    TraceReplayer,
    make_replayer,
)
from repro.core.reasonable import (
    BoundedUFPPriority,
    HopBiasedPriority,
    ProductPriority,
    UnitCapacityPriority,
    ReasonableIterativePathMinimizer,
    ReasonableIterativeBundleMinimizer,
    BundlePriority,
    staircase_tie_break,
    ring7_tie_break,
    partition_tie_break,
)

__all__ = [
    "DualWeights",
    "PathPricingEngine",
    "BundlePricingEngine",
    "PricingStats",
    "Selection",
    "bounded_ufp",
    "recommended_epsilon",
    "bounded_muca",
    "bounded_ufp_repeat",
    "reference_bounded_ufp",
    "reference_bounded_ufp_repeat",
    "reference_bounded_muca",
    "TraceRecorder",
    "TraceReplayer",
    "BundleTraceReplayer",
    "RunTrace",
    "ReplayStats",
    "make_replayer",
    "BoundedUFPPriority",
    "HopBiasedPriority",
    "ProductPriority",
    "UnitCapacityPriority",
    "ReasonableIterativePathMinimizer",
    "ReasonableIterativeBundleMinimizer",
    "BundlePriority",
    "staircase_tie_break",
    "ring7_tie_break",
    "partition_tie_break",
]
