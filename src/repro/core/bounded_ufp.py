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

import math
import time
import warnings
from typing import Literal

from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import PathPricingEngine
from repro.exceptions import CapacityBoundError, InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.types import RunStats

__all__ = ["bounded_ufp", "recommended_epsilon"]

CapacityCheck = Literal["ignore", "warn", "strict"]


def recommended_epsilon(target_epsilon: float) -> float:
    """The algorithm parameter Theorem 3.1 prescribes for a target accuracy.

    Running ``Bounded-UFP(eps/6)`` yields a ``(1 + eps) e/(e-1)`` guarantee,
    so the recommended internal parameter is ``target_epsilon / 6``.
    """
    if not 0.0 < target_epsilon <= 1.0:
        raise ValueError("target_epsilon must lie in (0, 1]")
    return target_epsilon / 6.0


def _check_capacity_assumption(
    instance: UFPInstance, epsilon: float, mode: CapacityCheck
) -> None:
    if mode == "ignore":
        return
    if instance.meets_capacity_assumption(epsilon):
        return
    needed = math.log(max(instance.num_edges, 2)) / (epsilon * epsilon)
    message = (
        f"instance has B = {instance.capacity_bound():.3g} but Theorem 3.1 requires "
        f"B >= ln(m)/eps^2 = {needed:.3g} for eps = {epsilon:g}; the approximation "
        "guarantee does not apply (feasibility is still enforced by the stopping rule)"
    )
    if mode == "strict":
        raise CapacityBoundError(message)
    warnings.warn(message, stacklevel=3)


def bounded_ufp(
    instance: UFPInstance,
    epsilon: float,
    *,
    capacity_check: CapacityCheck = "ignore",
    max_iterations: int | None = None,
    trace=None,
    partition=None,
    partition_jobs: int | None = None,
) -> Allocation:
    """Run ``Bounded-UFP(epsilon)`` (Algorithm 1) on ``instance``.

    Parameters
    ----------
    instance:
        The B-bounded UFP instance.  Demands must lie in ``(0, 1]`` (the
        paper's normalized form); call :meth:`UFPInstance.normalized` first
        for raw instances.
    epsilon:
        The accuracy parameter of Algorithm 1, in ``(0, 1]``.  To hit a
        target guarantee of ``(1 + eps) e/(e-1)`` pass
        :func:`recommended_epsilon(eps) <recommended_epsilon>`.
    capacity_check:
        How to treat instances that do not satisfy ``B >= ln(m)/eps^2``:
        ``"ignore"`` (default — run anyway, the output is always feasible),
        ``"warn"`` or ``"strict"`` (raise
        :class:`~repro.exceptions.CapacityBoundError`).
    max_iterations:
        Optional hard cap on iterations (the natural bound is ``|R|``).
    trace:
        Optional :class:`repro.core.trace.TraceRecorder`: record the
        acceptance trace and periodic engine/dual checkpoints of this run,
        so payment bisections and audits can replay single-declaration
        probes from the divergence round instead of from scratch.  Pure
        observation — the allocation is unchanged.
    partition:
        Optional region partition: a
        :class:`~repro.graphs.partition.GraphPartition`, an integer region
        count or a label array.  Delegates to
        :func:`repro.partition.partitioned_bounded_ufp` — bit-identical to
        the global run when every request is intra-region (on partitions
        preserving region-internal shortest paths), hierarchical and
        approximate otherwise.  Incompatible with ``trace``.
    partition_jobs:
        Per-shard fan-out for the partitioned fast path (see
        :func:`repro.parallel.resolve_jobs`).

    Returns
    -------
    Allocation
        The selected (request, path) pairs in selection order, with run
        statistics.  The allocation is always feasible (Lemma 3.3).

    Notes
    -----
    *Determinism and tie-breaking*: ties in the normalized length are broken
    by request index (declaration order), and the shortest path returned by
    Dijkstra is itself deterministic.  The tie-break does not depend on the
    demands or values, which keeps the algorithm monotone.

    *Complexity*: at most ``|R|`` iterations.  The paper's analysis charges
    one Dijkstra per distinct source per iteration; the implementation runs
    on the lazy-greedy :class:`~repro.core.pricing_engine.PathPricingEngine`
    (dual weights are monotone, so cached scores are lower bounds) which
    amortizes that down to a handful of targeted re-pricings per iteration
    while producing the exact same selections and paths.
    """
    if partition is not None:
        if trace is not None:
            raise ValueError(
                "trace recording is not supported by the partitioned solver; "
                "pass either trace or partition, not both"
            )
        from repro.partition import partitioned_bounded_ufp

        return partitioned_bounded_ufp(
            instance,
            float(epsilon),
            partition=partition,
            jobs=partition_jobs,
            max_iterations=max_iterations,
            capacity_check=capacity_check,
        )
    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if instance.num_edges == 0:
        raise InvalidInstanceError("Bounded-UFP requires a graph with at least one edge")
    if instance.num_requests and instance.max_demand > 1.0 + 1e-12:
        raise InvalidInstanceError(
            "Bounded-UFP expects demands normalized to (0, 1]; call "
            "UFPInstance.normalized() first"
        )
    _check_capacity_assumption(instance, float(epsilon), capacity_check)

    graph = instance.graph
    start = time.perf_counter()
    duals = DualWeights(graph.capacities, float(epsilon))

    # The engine owns the pool of unhandled requests L: each request sits in
    # a lazy min-heap keyed by its last-computed normalized length (a valid
    # lower bound, since duals only grow), requests with no s-t path are
    # dropped the moment they are detected, and each iteration re-prices only
    # the requests whose cached score could still win (lines 6-9 of the
    # algorithm, with identical fuzzy tie-breaking by request index).
    engine = PathPricingEngine(
        graph,
        instance.requests,
        duals,
        tie_tolerance=1e-15,
        index_tie_break=True,
        remove_selected=True,
    )
    routed: list[RoutedRequest] = []
    iterations = 0
    stopped_by_budget = False
    iteration_cap = max_iterations if max_iterations is not None else instance.num_requests

    if trace is not None:
        trace.begin_path_run(
            mode="ufp",
            engine=engine,
            duals=duals,
            epsilon=float(epsilon),
            iteration_cap=iteration_cap,
            instance=instance,
        )

    while engine.num_pending and iterations < iteration_cap:
        # Line 5: the stopping rule on the dual budget.
        if not duals.within_budget:
            stopped_by_budget = True
            break

        selection = engine.select()
        if selection is None:
            # No unhandled request is routable (disconnected terminals).
            break

        # Lines 10-11: exponential weight update along the selected path,
        # record the selection and remove the request from the pool.
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

    if engine.num_pending and not stopped_by_budget and not duals.within_budget:
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
        algorithm=f"Bounded-UFP(eps={float(epsilon):g})",
    )
