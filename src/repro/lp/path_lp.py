"""Path formulation of the fractional UFP, solved by column generation.

This is the LP exactly as written in Figure 1 of the paper (variables indexed
by simple paths), solved without enumerating all paths: a restricted master
problem over a growing set of path columns is re-solved, and new columns are
priced in with a shortest-path computation under the current capacity duals
``y_e`` — a path of request ``r`` has positive reduced cost exactly when
``v_r - z_r - d_r * sum_{e in p} y_e > 0``, i.e. when the corresponding dual
constraint is violated, the same "most violated constraint" view that drives
the paper's primal-dual algorithm.

Besides the optimum (which matches the edge formulation of
:mod:`repro.lp.fractional_ufp` and is cross-checked in the tests), the result
keeps the per-request path distribution ``{path: x_s}``, which is what the
randomized-rounding baseline samples from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import LPSolveError
from repro.flows.instance import UFPInstance
from repro.graphs.shortest_path import single_source_dijkstra
from repro.lp.model import AssembledLP
from repro.lp.solver import solve_lp
from repro.types import SolverStatus

__all__ = ["PathColumn", "PathLPResult", "path_master_program", "solve_path_lp"]

#: Cap on the master re-solves: a truncated column generation would silently
#: under-estimate the optimum, so reaching it raises instead.
_MAX_MASTER_SOLVES = 200

#: A priced path enters the master when its reduced cost exceeds this.
_REDUCED_COST_TOLERANCE = 1e-7


@dataclass(frozen=True)
class PathColumn:
    """One path column of the restricted master problem."""

    request_index: int
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        object.__setattr__(self, "edge_ids", tuple(int(e) for e in self.edge_ids))


@dataclass(frozen=True)
class PathLPResult:
    """Solution of the path LP.

    Attributes
    ----------
    objective:
        The fractional optimum.
    columns:
        All generated path columns.
    weights:
        Array aligned with ``columns``: the optimal ``x_s`` of each column.
    capacity_duals:
        Final dual prices ``y_e`` of the capacity constraints.
    request_duals:
        Final dual prices ``z_r`` of the per-request constraints.
    iterations:
        Number of master re-solves performed.
    status:
        Solver status of the final master solve.
    """

    objective: float
    columns: tuple[PathColumn, ...]
    weights: np.ndarray
    capacity_duals: np.ndarray
    request_duals: np.ndarray
    iterations: int
    status: SolverStatus = SolverStatus.OPTIMAL

    @property
    def ok(self) -> bool:
        return self.status.ok

    def path_distribution(self, request_index: int) -> list[tuple[PathColumn, float]]:
        """The ``(column, weight)`` pairs of one request with positive weight."""
        out: list[tuple[PathColumn, float]] = []
        for col, w in zip(self.columns, self.weights):
            if col.request_index == int(request_index) and w > 1e-12:
                out.append((col, float(w)))
        return out

    def routed_fraction(self, request_index: int) -> float:
        """Total fractional acceptance ``sum_s x_s`` of one request."""
        return float(sum(w for _, w in self.path_distribution(request_index)))


def _initial_columns(instance: UFPInstance) -> list[PathColumn]:
    """Seed the master with the hop-count shortest path of every routable request."""
    graph = instance.graph
    unit = np.ones(graph.num_edges, dtype=np.float64)
    columns: list[PathColumn] = []
    by_source: dict[int, list[int]] = {}
    for idx, req in enumerate(instance.requests):
        by_source.setdefault(req.source, []).append(idx)
    for source, idxs in by_source.items():
        targets = {instance.requests[i].target for i in idxs}
        tree = single_source_dijkstra(graph, source, unit, targets=targets)
        for i in idxs:
            target = instance.requests[i].target
            if tree.reachable(target):
                vertices, edges = tree.path_to(target)
                columns.append(PathColumn(i, vertices, edges))
    return columns


def path_master_program(instance: UFPInstance, columns: Sequence[PathColumn]) -> AssembledLP:
    """Assemble the restricted master problem over ``columns`` in solver form.

    One variable ``x_s >= 0`` per column, in column order, with the value of
    its request as objective.  The ``<=`` rows are the capacity of every
    edge id (``d_r`` for each column through the edge, right-hand side
    ``c_e``), then one row per request (a 1 for each of its columns,
    right-hand side 1).  Rows no column touches stay, empty, so the duals
    are indexed by edge id and then by request.
    """
    graph = instance.graph
    num_rows = graph.num_edges + instance.num_requests
    owner = np.array([col.request_index for col in columns], dtype=np.int64)
    hops = np.array([len(col.edge_ids) for col in columns], dtype=np.int64)
    # Entries (row, column, coefficient): capacity rows, then request rows.
    rows = np.concatenate(
        (
            np.fromiter((e for col in columns for e in col.edge_ids), dtype=np.int64),
            graph.num_edges + owner,
        )
    )
    cols = np.concatenate((np.repeat(np.arange(len(columns)), hops), np.arange(len(columns))))
    data = np.concatenate((np.repeat(instance.demands_array()[owner], hops), np.ones(len(columns))))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    bounds = np.zeros((len(columns), 2))
    bounds[:, 1] = np.inf
    return AssembledLP(
        c=instance.values_array()[owner],
        bounds=bounds,
        A_ub=sparse.csr_matrix(
            (data[order], cols[order], indptr), shape=(num_rows, len(columns))
        ),
        b_ub=np.concatenate((graph.capacities, np.ones(instance.num_requests))),
    )


def solve_path_lp(instance: UFPInstance) -> PathLPResult:
    """Solve the Figure 1 relaxation by column generation.

    A master solve that fails, or a pricing round that still adds columns
    after ``_MAX_MASTER_SOLVES`` (200) master solves, raises
    :class:`~repro.exceptions.LPSolveError`.
    """
    graph = instance.graph
    m = graph.num_edges
    num_requests = instance.num_requests
    if num_requests == 0:
        return PathLPResult(
            objective=0.0,
            columns=(),
            weights=np.zeros(0),
            capacity_duals=np.zeros(m),
            request_duals=np.zeros(0),
            iterations=0,
        )

    columns: list[PathColumn] = _initial_columns(instance)
    known: set[tuple[int, tuple[int, ...]]] = {
        (c.request_index, c.edge_ids) for c in columns
    }

    if not columns:
        # No request is routable at all.
        return PathLPResult(
            objective=0.0,
            columns=(),
            weights=np.zeros(0),
            capacity_duals=np.zeros(m),
            request_duals=np.zeros(num_requests),
            iterations=0,
        )

    for iterations in range(1, _MAX_MASTER_SOLVES + 1):
        last_solution = solve_lp(path_master_program(instance, columns))
        y = last_solution.ineq_duals[:m]
        z = last_solution.ineq_duals[m:]
        # Guard against tiny negative duals from the solver.
        y = np.maximum(y, 0.0)

        # Pricing: for every request, the shortest path under y; add it when
        # its reduced cost v_r - z_r - d_r * len is positive.
        added = False
        by_source: dict[int, list[int]] = {}
        for idx, req in enumerate(instance.requests):
            by_source.setdefault(req.source, []).append(idx)
        for source, idxs in by_source.items():
            targets = {instance.requests[i].target for i in idxs}
            tree = single_source_dijkstra(graph, source, y, targets=targets)
            for i in idxs:
                req = instance.requests[i]
                if not tree.reachable(req.target):
                    continue
                length = tree.distance(req.target)
                reduced_cost = req.value - z[i] - req.demand * length
                if reduced_cost > _REDUCED_COST_TOLERANCE:
                    vertices, edges = tree.path_to(req.target)
                    key = (i, tuple(edges))
                    if key not in known:
                        known.add(key)
                        columns.append(PathColumn(i, vertices, edges))
                        added = True
        if not added:
            break
    else:
        raise LPSolveError(
            f"column generation did not converge within {_MAX_MASTER_SOLVES} iterations"
        )

    return PathLPResult(
        objective=float(last_solution.objective),
        columns=tuple(columns),
        weights=last_solution.x,
        capacity_duals=last_solution.ineq_duals[:m],
        request_duals=last_solution.ineq_duals[m:],
        iterations=iterations,
        status=last_solution.status,
    )
