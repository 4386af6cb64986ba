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
"""

from __future__ import annotations

import math
import time
from typing import Literal

from repro.core.bounded_ufp import _check_capacity_assumption
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import PathPricingEngine
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.types import RunStats

__all__ = ["bounded_ufp_repeat"]

CapacityCheck = Literal["ignore", "warn", "strict"]


def bounded_ufp_repeat(
    instance: UFPInstance,
    epsilon: float,
    *,
    capacity_check: CapacityCheck = "ignore",
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
    capacity_check:
        As in :func:`repro.core.bounded_ufp.bounded_ufp`.
    max_iterations:
        Optional cap; the default is the paper's bound
        ``ceil(m * c_max / d_min) + m`` which the run never reaches in
        practice (the budget rule fires first) but protects against
        pathological floating-point stalls.

    Returns
    -------
    Allocation
        A multiset of (request, path) pairs — the same request may appear
        many times, possibly along different paths.  The result is feasible
        by the same argument as Lemma 3.3.
    """
    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if instance.num_edges == 0:
        raise InvalidInstanceError(
            "Bounded-UFP-Repeat requires a graph with at least one edge"
        )
    if instance.num_requests and instance.max_demand > 1.0 + 1e-12:
        raise InvalidInstanceError(
            "Bounded-UFP-Repeat expects demands normalized to (0, 1]; call "
            "UFPInstance.normalized() first"
        )
    _check_capacity_assumption(instance, float(epsilon), capacity_check)

    graph = instance.graph
    start = time.perf_counter()
    duals = DualWeights(graph.capacities, float(epsilon))

    if max_iterations is None:
        if instance.num_requests:
            min_demand = instance.min_demand
            max_iterations = int(
                math.ceil(graph.num_edges * graph.max_capacity / min_demand)
            ) + graph.num_edges
        else:
            max_iterations = 0

    # The lazy-greedy engine keeps a request selectable after a win
    # (``remove_selected=False`` — repetitions are the whole point), drops
    # requests with disconnected terminals on detection, and replays the
    # reference tie-breaking (strict fuzzy ``<``, first in source/index
    # iteration order wins).
    engine = PathPricingEngine(
        graph,
        instance.requests,
        duals,
        tie_tolerance=1e-15,
        index_tie_break=False,
        remove_selected=False,
    )
    routed: list[RoutedRequest] = []
    iterations = 0
    stopped_by_budget = False

    if trace is not None:
        trace.begin_path_run(
            mode="repeat",
            engine=engine,
            duals=duals,
            epsilon=float(epsilon),
            iteration_cap=max_iterations,
            instance=instance,
        )

    while engine.num_pending and iterations < max_iterations:
        # Line 3: stopping rule on the dual budget.
        if not duals.within_budget:
            stopped_by_budget = True
            break

        selection = engine.select()
        if selection is None:
            break

        if trace is not None:
            trace.record_selected(engine, selection)
        engine.commit(selection)
        if trace is not None:
            trace.record_committed(engine, duals)
        routed.append(
            RoutedRequest(
                request_index=selection.index,
                request=instance.requests[selection.index],
                vertices=selection.vertices,
                edge_ids=selection.edge_ids,
                copies=1,
            )
        )
        iterations += 1

    if not stopped_by_budget and not duals.within_budget:
        stopped_by_budget = True

    if trace is not None:
        trace.finish(engine, duals, stopped_by_budget=stopped_by_budget)

    stats = RunStats(
        iterations=iterations,
        shortest_path_calls=engine.stats.dijkstra_calls,
        stopped_by_budget=stopped_by_budget,
        wall_time_s=time.perf_counter() - start,
        extra={
            "final_dual_budget": duals.budget,
            "dual_budget_limit": duals.budget_limit,
            "epsilon": float(epsilon),
            "capacity_bound": duals.capacity_bound,
            **engine.stats.as_extra(),
            **(trace.extra_stats() if trace is not None else {}),
        },
    )
    return Allocation(
        instance=instance,
        routed=routed,
        stats=stats,
        algorithm=f"Bounded-UFP-Repeat(eps={float(epsilon):g})",
    )
