"""Algorithm 3 of the paper: ``Bounded-UFP-Repeat``.

In the *unsplittable flow with repetitions* problem (Section 5) a request may
be satisfied any number of times, each time along a possibly different path,
and the profit is proportional to the number of satisfactions.  The integer
program (Figure 5) therefore has no per-request constraint and no ``z_r``
dual variables, and the same primal-dual machinery — select the globally
cheapest normalized path, update the weights exponentially, stop on the dual
budget — becomes a deterministic ``(1 + eps)``-approximation (Theorem 5.1),
in sharp contrast with the ``e/(e-1)`` barrier of the no-repetitions variant.

The running time is polynomial in ``m`` and ``c_max / d_min``: each iteration
multiplies at least one ``y_e`` by ``exp(eps B d_min / c_max)`` and the
weights can only grow by a bounded factor before the budget rule fires.

The algorithm is ``Bounded-UFP`` with the winner kept selectable, so this
module calls the body it shares with :func:`repro.core.bounded_ufp.bounded_ufp`
(whose rounds run through :func:`repro.core.pricing_engine.greedy_rounds`)
and supplies only that switch, the default iteration cap and the label.
"""

from __future__ import annotations

import math

from repro.core.bounded_ufp import _greedy_path_run
from repro.flows.allocation import Allocation
from repro.flows.instance import UFPInstance

__all__ = ["bounded_ufp_repeat"]


def _repetition_cap(instance: UFPInstance) -> int:
    """The paper's iteration bound ``ceil(m * c_max / d_min) + m``."""
    if not instance.num_requests:
        return 0
    graph = instance.graph
    return int(
        math.ceil(graph.num_edges * graph.max_capacity / instance.min_demand)
    ) + graph.num_edges


def bounded_ufp_repeat(
    instance: UFPInstance,
    epsilon: float,
    *,
    max_iterations: int | None = None,
    trace=None,
) -> Allocation:
    """Run ``Bounded-UFP-Repeat(epsilon)`` (Algorithm 3) on ``instance``.

    Parameters
    ----------
    instance:
        The B-bounded instance; demands must lie in ``(0, 1]``.
    epsilon:
        Accuracy parameter in ``(0, 1]``; Theorem 5.1 uses ``eps/6`` to reach
        a ``(1 + eps)`` guarantee.
    max_iterations:
        Optional cap; the default is the paper's bound
        ``ceil(m * c_max / d_min) + m`` which the run never reaches in
        practice (the budget rule fires first) but protects against
        pathological floating-point stalls.
    trace:
        Optional :class:`repro.core.trace.TraceRecorder`, as in
        :func:`~repro.core.bounded_ufp.bounded_ufp`.

    Returns
    -------
    Allocation
        A multiset of (request, path) pairs — the same request may appear
        many times, possibly along different paths.  The result is feasible
        by the same argument as Lemma 3.3.  ``stats.stopped_by_budget`` is
        set whenever the final budget exceeds the limit.
    """
    return _greedy_path_run(
        instance,
        epsilon,
        label="Bounded-UFP-Repeat",
        remove_selected=False,
        default_cap=lambda: _repetition_cap(instance),
        max_iterations=max_iterations,
        trace=trace,
    )
