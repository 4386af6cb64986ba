"""Algorithm 1 of the paper: ``Bounded-UFP``.

The algorithm is a deterministic primal-dual iterative path minimizer:

1. initialize the dual weights ``y_e = 1 / c_e``;
2. while some request is unhandled and the dual budget
   ``sum_e c_e y_e`` is at most ``e^{eps (B - 1)}``:

   a. compute, for every unhandled request ``r``, the shortest ``s_r -> t_r``
      path ``p_r`` under the weights ``y``;
   b. select the request minimizing the *normalized length*
      ``(d_r / v_r) * |p_r|`` (the most violated dual constraint);
   c. multiply ``y_e`` by ``exp(eps B d_r / c_e)`` along the selected path,
      record the (request, path) pair and drop the request from the pool.

Theorem 3.1: with ``eps/6`` in place of ``eps`` this is a feasible
``(1 + eps) e/(e-1)``-approximation for the ``ln(m)/eps^2``-bounded problem,
monotone and exact with respect to every request's ``(demand, value)`` —
hence (Theorem 2.3) it induces a truthful mechanism, implemented in
:mod:`repro.mechanism.truthful`.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import PathPricingEngine, greedy_rounds
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.types import RunStats

__all__ = ["bounded_ufp", "recommended_epsilon"]


def recommended_epsilon(target_epsilon: float) -> float:
    """The algorithm parameter Theorem 3.1 prescribes for a target accuracy.

    Running ``Bounded-UFP(eps/6)`` yields a ``(1 + eps) e/(e-1)`` guarantee,
    so the recommended internal parameter is ``target_epsilon / 6``.
    """
    if not 0.0 < target_epsilon <= 1.0:
        raise ValueError("target_epsilon must lie in (0, 1]")
    return target_epsilon / 6.0


def bounded_ufp(
    instance: UFPInstance,
    epsilon: float,
    *,
    max_iterations: int | None = None,
    trace=None,
) -> Allocation:
    """Run ``Bounded-UFP(epsilon)`` (Algorithm 1) on ``instance``.

    Parameters
    ----------
    instance:
        The B-bounded UFP instance.  Demands must lie in ``(0, 1]`` (the
        paper's normalized form); call :meth:`UFPInstance.normalized` first
        for raw instances.  Any ``B`` runs and the output is always
        feasible; whether Theorem 3.1's ``B >= ln(m)/eps^2`` holds, so that
        its guarantee applies, is
        :meth:`UFPInstance.meets_capacity_assumption`.
    epsilon:
        The accuracy parameter of Algorithm 1, in ``(0, 1]``.  To hit a
        target guarantee of ``(1 + eps) e/(e-1)`` pass
        :func:`recommended_epsilon(eps) <recommended_epsilon>`.
    max_iterations:
        Optional hard cap on iterations (the natural bound is ``|R|``).
    trace:
        Optional :class:`repro.core.trace.TraceRecorder`: record the
        acceptance trace and periodic engine/dual checkpoints of this run,
        so payment bisections and audits can answer single-declaration
        probes from one excluded run per agent instead of from scratch.
        Pure observation — the allocation is unchanged.

    Returns
    -------
    Allocation
        The selected (request, path) pairs in selection order, with run
        statistics.  The allocation is always feasible (Lemma 3.3).

    Notes
    -----
    *Determinism and tie-breaking*: exact ties in the normalized length
    (compared as floats, with no tolerance) are broken by the lower request
    index (declaration order), and the shortest path returned by
    Dijkstra is itself deterministic.  The tie-break does not depend on the
    demands or values, which keeps the algorithm monotone.

    *Complexity*: at most ``|R|`` iterations.  The paper's analysis charges
    one Dijkstra per distinct source per iteration; the implementation runs
    on the lazy-greedy :class:`~repro.core.pricing_engine.PathPricingEngine`
    (dual weights are monotone, so cached scores are lower bounds) which
    amortizes that down to a handful of targeted re-pricings per iteration
    while producing the exact same selections and paths.
    """
    return _greedy_path_run(
        instance,
        epsilon,
        label="Bounded-UFP",
        remove_selected=True,
        default_cap=lambda: instance.num_requests,
        max_iterations=max_iterations,
        trace=trace,
    )


def _greedy_path_run(
    instance: UFPInstance,
    epsilon: float,
    *,
    label: str,
    remove_selected: bool,
    default_cap: Callable[[], int],
    max_iterations: int | None,
    trace,
    make_duals: Callable[..., DualWeights] = DualWeights,
) -> Allocation:
    """The body of ``Bounded-UFP``, ``Bounded-UFP-Repeat`` and the BKV-style
    baseline: they differ only in whether a winner leaves the pool, the
    default iteration cap, the label and the dual state (``make_duals`` is
    called with the capacities and ``epsilon``; the baseline's scales the
    budget limit)."""
    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if instance.num_edges == 0:
        raise InvalidInstanceError(f"{label} requires a graph with at least one edge")
    if instance.num_requests and instance.max_demand > 1.0 + 1e-12:
        raise InvalidInstanceError(
            f"{label} expects demands normalized to (0, 1]; call "
            "UFPInstance.normalized() first"
        )

    graph = instance.graph
    start = time.perf_counter()
    duals = make_duals(graph.capacities, float(epsilon))
    iteration_cap = max_iterations if max_iterations is not None else default_cap()

    # The engine owns the pool of unhandled requests L: each request sits in
    # a lazy min-heap keyed by its last-computed normalized length (a valid
    # lower bound, since duals only grow), requests with no s-t path are
    # dropped the moment they are detected, and each round re-prices only
    # the requests whose cached score could still win (lines 6-9 of the
    # algorithm; exact ties go to the lower request index).  With
    # repetitions a winner stays selectable.
    engine = PathPricingEngine(
        graph, instance.requests, duals, remove_selected=remove_selected
    )
    if trace is not None:
        trace.begin_path_run(
            mode="ufp" if remove_selected else "repeat",
            engine=engine,
            iteration_cap=iteration_cap,
            instance=instance,
        )

    # Line 5 (the dual budget rule) and lines 10-11 (the exponential weight
    # update along the selected path) run inside greedy_rounds.
    routed = [
        RoutedRequest(
            request_index=selection.index,
            request=instance.requests[selection.index],
            vertices=selection.vertices,
            edge_ids=selection.edge_ids,
            copies=1,
        )
        for selection in greedy_rounds(engine, cap=iteration_cap, trace=trace)
    ]
    # A Bounded-UFP run that handled every request did not stop on the
    # budget even when its last update spent it; a Repeat pool never
    # empties while any request is routable.
    stopped_by_budget = not duals.within_budget and (
        bool(engine.num_pending) or not remove_selected
    )

    if trace is not None:
        trace.finish(engine)

    stats = RunStats(
        iterations=len(routed),
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
        algorithm=f"{label}(eps={float(epsilon):g})",
    )
