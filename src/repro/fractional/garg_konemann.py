"""Garg–Könemann multiplicative-weights FPTAS for the fractional UFP.

The fractional relaxation of Figure 1 is a packing LP over path columns:

    max  sum_s v_s x_s
    s.t. sum_{s : e in s} d_s x_s <= c_e      (one row per edge)
         sum_{s in S_r} x_s      <= 1         (one row per request, unless
                                               repetitions are allowed)
         x >= 0

The Garg–Könemann framework solves such LPs without an LP solver: maintain a
multiplicative weight per row, repeatedly pick the most *efficient* column
(smallest weighted row-usage per unit of objective — for UFP that is exactly
a shortest-path computation per request, the same pricing step as the
paper's Algorithm 1), route its bottleneck amount, and finally scale the
accumulated flow down so it is feasible.

Besides the primal solution the run keeps the best dual bound encountered
(``sum_i b_i y_i / alpha`` for the most efficient column value ``alpha``),
which is a certified upper bound on the LP optimum by the same argument as
Claim 3.6 — the experiments use it to report certified optimality gaps
without ever calling the LP solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.pricing_engine import PathPricingEngine
from repro.exceptions import InvalidInstanceError
from repro.flows.instance import UFPInstance
from repro.types import RunStats

__all__ = ["GargKonemannResult", "garg_konemann_fractional_ufp"]


@dataclass(frozen=True)
class GargKonemannResult:
    """Result of the Garg–Könemann FPTAS.

    Attributes
    ----------
    objective:
        Value of the scaled, feasible fractional solution.
    dual_bound:
        A certified upper bound on the fractional optimum (min over
        iterations of the dual objective scaled by the column efficiency).
    routed_fraction:
        Per-request fractional acceptance of the scaled solution.
    edge_loads:
        Per-edge demand load of the scaled solution.
    paths_used:
        All columns that carry positive flow, as ``(request_index,
        edge_id_tuple, scaled_flow_fraction)`` triples.
    stats:
        Iteration counters and timing.
    """

    objective: float
    dual_bound: float
    routed_fraction: np.ndarray
    edge_loads: np.ndarray
    paths_used: tuple[tuple[int, tuple[int, ...], float], ...]
    stats: RunStats

    @property
    def certified_gap(self) -> float:
        """``dual_bound / objective`` — a certified approximation factor."""
        if self.objective <= 0:
            return math.inf
        return self.dual_bound / self.objective


def garg_konemann_fractional_ufp(
    instance: UFPInstance,
    epsilon: float = 0.1,
    *,
    repetitions: bool = False,
    max_iterations: int | None = None,
) -> GargKonemannResult:
    """Run the Garg–Könemann FPTAS on the fractional UFP relaxation.

    Parameters
    ----------
    instance:
        The UFP instance.
    epsilon:
        Accuracy parameter in ``(0, 1)``; the scaled solution is within a
        ``1 - O(eps)`` factor of the fractional optimum and the certified
        ``dual_bound`` brackets it from above.
    repetitions:
        Drop the per-request rows (Figure 5 relaxation).
    max_iterations:
        Safety cap; the default ``O((#rows) * ln(#rows) / eps^2)`` bound is
        the theoretical iteration count.
    """
    if not 0.0 < float(epsilon) < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if instance.num_edges == 0:
        raise InvalidInstanceError("the instance graph has no edges")
    epsilon = float(epsilon)
    graph = instance.graph
    m = graph.num_edges
    num_requests = instance.num_requests
    start = time.perf_counter()

    if num_requests == 0:
        return GargKonemannResult(
            objective=0.0,
            dual_bound=0.0,
            routed_fraction=np.zeros(0),
            edge_loads=np.zeros(m),
            paths_used=(),
            stats=RunStats(wall_time_s=time.perf_counter() - start),
        )

    num_rows = m + (0 if repetitions else num_requests)
    delta = (1.0 + epsilon) * ((1.0 + epsilon) * num_rows) ** (-1.0 / epsilon)
    capacities = graph.capacities

    edge_weights = np.full(m, delta, dtype=np.float64) / capacities
    request_weights = (
        None if repetitions else np.full(num_requests, delta, dtype=np.float64)
    )

    # Raw (unscaled) flow accumulators.
    raw_fraction = np.zeros(num_requests, dtype=np.float64)
    raw_edge_load = np.zeros(m, dtype=np.float64)
    raw_paths: dict[tuple[int, tuple[int, ...]], float] = {}

    if max_iterations is None:
        max_iterations = int(10 * num_rows * math.ceil(math.log(max(num_rows, 2)) / epsilon**2)) + 100

    dual_bound = math.inf
    iterations = 0

    def dual_objective() -> float:
        total = float(capacities @ edge_weights)
        if request_weights is not None:
            total += float(request_weights.sum())
        return total

    def column_cost(i: int, req, distance: float) -> float:
        # Exact reference expression, evaluated in the same order.
        cost = req.demand * distance
        if request_weights is not None:
            cost += float(request_weights[i])
        return cost / req.value

    # Lazy-greedy pricing: GK weights are multiplicative (factors >= 1), so
    # both the edge weights and the request weights are monotone
    # non-decreasing and cached column costs are valid lower bounds.  The
    # engine runs in external-weights mode (it reads ``edge_weights`` live;
    # the loop below performs the updates and then invalidates the touched
    # path).  Exact ties go to the lower request index.
    engine = PathPricingEngine(
        graph,
        instance.requests,
        None,
        weights=edge_weights,
        remove_selected=False,
        score=column_cost,
        share_trees=False,
    )

    while dual_objective() < 1.0 and iterations < max_iterations:
        # Price the columns: the most efficient column of request r is its
        # shortest path under the edge weights.
        selection = engine.select()
        if selection is None:
            break
        best_cost = selection.score
        best_request = selection.index

        # A feasible dual is obtained by scaling all weights by 1/best_cost
        # (Claim 3.6 applied to the GK weights), giving a certified bound.
        if best_cost > 0:
            dual_bound = min(dual_bound, dual_objective() / best_cost)

        req = instance.requests[best_request]
        edge_ids = selection.edge_ids
        ids = np.asarray(edge_ids, dtype=np.int64)

        # Bottleneck amount of the column (in units of x_s).
        sigma = float(np.min(capacities[ids]) / req.demand)
        if not repetitions:
            sigma = min(sigma, 1.0)

        raw_fraction[best_request] += sigma
        raw_edge_load[ids] += sigma * req.demand
        key = (best_request, tuple(int(e) for e in edge_ids))
        raw_paths[key] = raw_paths.get(key, 0.0) + sigma

        # Multiplicative weight update on the touched rows, then cache
        # invalidation for the trees using them.
        edge_weights[ids] *= 1.0 + epsilon * (sigma * req.demand) / capacities[ids]
        if request_weights is not None:
            request_weights[best_request] *= 1.0 + epsilon * sigma
        engine.invalidate_path(selection)
        iterations += 1

    # Scale the accumulated flow down to feasibility.  The theoretical factor
    # is log_{1+eps}(1/delta); an additional data-driven correction makes the
    # output feasible on every run regardless of floating-point drift.
    scale = math.log((1.0 + epsilon) / delta) / math.log(1.0 + epsilon)
    if scale <= 0:
        scale = 1.0
    edge_violation = float(np.max(raw_edge_load / (capacities * scale))) if iterations else 0.0
    request_violation = (
        float(np.max(raw_fraction / scale)) if (not repetitions and iterations) else 0.0
    )
    correction = max(edge_violation, request_violation, 1.0)
    effective_scale = scale * correction

    routed_fraction = raw_fraction / effective_scale
    edge_loads = raw_edge_load / effective_scale
    values = instance.values_array()
    objective = float(values @ routed_fraction)
    if not math.isfinite(dual_bound):
        dual_bound = objective

    paths_used = tuple(
        (request_index, edge_ids, flow / effective_scale)
        for (request_index, edge_ids), flow in raw_paths.items()
    )
    stats = RunStats(
        iterations=iterations,
        shortest_path_calls=engine.stats.dijkstra_calls,
        wall_time_s=time.perf_counter() - start,
        extra={
            "scale": effective_scale,
            "theoretical_scale": scale,
            "delta": delta,
            "epsilon": epsilon,
            **engine.stats.as_extra(),
        },
    )
    return GargKonemannResult(
        objective=objective,
        dual_bound=float(dual_bound),
        routed_fraction=routed_fraction,
        edge_loads=edge_loads,
        paths_used=paths_used,
        stats=stats,
    )
