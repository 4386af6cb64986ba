"""The fractional relaxation of the unsplittable flow ILP (Figure 1).

The paper's primal program (Figure 1) is written over simple paths; the
edge-flow formulation solved here is its standard polynomial-size
equivalent: for every request ``r`` and every arc ``a`` a variable
``g_{r,a} in [0, 1]`` gives the *fraction* of the request's demand routed
through that arc, with flow conservation at every vertex other than the
terminals and a per-request variable ``X_r in [0, 1]`` for the total routed
fraction.  Capacities couple the requests: ``sum_r d_r * (flow of r on edge
e) <= c_e``, where for an undirected edge both arc orientations count toward
the same capacity.

The objective ``max sum_r v_r X_r`` equals the optimum of the relaxation of
the Figure 1 ILP, so it upper bounds the integral optimum — which is how
every experiment uses it.  With ``repetitions=True`` the per-request cap
``X_r <= 1`` is dropped, matching the relaxation of the Figure 5 ILP
(unsplittable flow with repetitions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import LPSolveError
from repro.flows.instance import UFPInstance
from repro.graphs.graph import CapacitatedGraph
from repro.lp.model import AssembledLP
from repro.lp.solver import solve_lp
from repro.types import SolverStatus

__all__ = ["FractionalUFPResult", "edge_flow_program", "solve_fractional_ufp"]


@dataclass(frozen=True)
class FractionalUFPResult:
    """Solution of the fractional UFP relaxation.

    Attributes
    ----------
    objective:
        The fractional optimum ``sum_r v_r X_r``.
    routed_fraction:
        Array over requests: the fraction ``X_r`` of each request routed
        (may exceed 1 in repetitions mode).
    edge_flows:
        Array of shape ``(num_requests, num_edges)`` with the demand units of
        each request crossing each logical edge (both orientations summed for
        undirected graphs).
    capacity_duals:
        Dual values ``y_e`` of the capacity constraints (the LP analogue of
        the algorithm's edge weights).
    status:
        Solver status (always optimal unless ``raise_on_failure=False``).
    """

    objective: float
    routed_fraction: np.ndarray
    edge_flows: np.ndarray
    capacity_duals: np.ndarray
    status: SolverStatus

    @property
    def ok(self) -> bool:
        return self.status.ok

    def edge_loads(self) -> np.ndarray:
        """Total demand load per edge of the fractional solution."""
        return self.edge_flows.sum(axis=0)


def _arcs(graph: CapacitatedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arc table ``(tails, heads, edge ids)`` of the edge-flow model.

    A directed edge is one arc; an undirected edge is two, the reverse arc
    right after the forward one.  Disabled edges carry no arcs.
    """
    edges = np.arange(graph.num_edges)
    if graph.disabled_edges:
        edges = np.setdiff1d(edges, np.fromiter(graph.disabled_edges, dtype=np.int64))
    tails, heads = graph.tails[edges], graph.heads[edges]
    if graph.directed:
        return tails, heads, edges
    return (
        np.column_stack((tails, heads)).ravel(),
        np.column_stack((heads, tails)).ravel(),
        np.repeat(edges, 2),
    )


def edge_flow_program(instance: UFPInstance, *, repetitions: bool = False) -> AssembledLP:
    """Assemble the edge-flow relaxation of ``instance`` in solver form.

    Variables are ``X_r`` for every request, then ``g_{r,a}`` request-major
    over the arc table (see :func:`_arcs`).  The equality rows are flow
    conservation, request-major then vertex-minor, skipping a vertex without
    arcs unless it is a terminal of the request.  The inequality rows are one
    capacity row per edge id; a disabled edge's row is empty, so the
    capacity duals stay indexed by edge id.
    """
    graph = instance.graph
    n, m = graph.num_vertices, graph.num_edges
    num_requests = instance.num_requests
    arc_tail, arc_head, arc_edge = _arcs(graph)
    num_arcs = len(arc_edge)
    num_variables = num_requests * (1 + num_arcs)
    # g_cols[r, a] is the column of g_{r,a}.
    g_cols = num_requests + np.arange(num_requests * num_arcs).reshape(num_requests, num_arcs)
    demands = instance.demands_array()

    c = np.zeros(num_variables)
    c[:num_requests] = instance.values_array()
    bounds = np.zeros((num_variables, 2))
    bounds[:, 1] = np.inf if repetitions else 1.0

    # Flow conservation: out - in - X_r = 0 at the source, out - in + X_r = 0
    # at the target, out - in = 0 elsewhere.  One request's incidence block
    # lists every vertex's arcs in arc order, +1 leaving and -1 entering.
    ends = np.concatenate((arc_tail, arc_head))
    incident = np.tile(np.arange(num_arcs), 2)
    signs = np.repeat([1.0, -1.0], num_arcs)
    order = np.lexsort((incident, ends))
    degree = np.bincount(ends, minlength=n)
    sources = np.array([req.source for req in instance.requests], dtype=np.int64)
    targets = np.array([req.target for req in instance.requests], dtype=np.int64)
    requests = np.arange(num_requests)
    terminal = np.zeros((num_requests, n), dtype=bool)
    terminal[requests, sources] = True
    terminal[requests, targets] = True
    row_request, row_vertex = np.nonzero(terminal | (degree > 0))
    row_terminal = terminal[row_request, row_vertex]
    indptr = np.zeros(len(row_request) + 1, dtype=np.int64)
    np.cumsum(degree[row_vertex] + row_terminal, out=indptr[1:])
    # A terminal row opens with its X_r entry, the lowest column.  The g
    # entries fill the other slots: in row order that is the incidence block
    # once per request, since every vertex with arcs has a row per request.
    x_slots = indptr[:-1][row_terminal]
    x_request = row_request[row_terminal]
    g_slots = np.ones(indptr[-1], dtype=bool)
    g_slots[x_slots] = False
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    indices[x_slots] = x_request
    data[x_slots] = np.where(row_vertex[row_terminal] == sources[x_request], -1.0, 1.0)
    indices[g_slots] = g_cols[:, incident[order]].ravel()
    data[g_slots] = np.tile(signs[order], num_requests)
    A_eq = sparse.csr_matrix((data, indices, indptr), shape=(len(row_request), num_variables))

    # Capacity: sum_r d_r * sum_{arcs a of e} g_{r,a} <= c_e.  Every live
    # edge has the same number of arcs, consecutive in the arc table.
    per_edge = 1 if graph.directed else 2
    num_live = num_arcs // per_edge
    ub_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(arc_edge, minlength=m) * num_requests, out=ub_indptr[1:])
    A_ub = sparse.csr_matrix(
        (
            np.repeat(np.tile(demands, num_live), per_edge),
            g_cols.reshape(num_requests, num_live, per_edge).transpose(1, 0, 2).ravel(),
            ub_indptr,
        ),
        shape=(m, num_variables),
    )
    return AssembledLP(
        c=c,
        bounds=bounds,
        A_ub=A_ub,
        b_ub=graph.capacities,
        A_eq=A_eq,
        b_eq=np.zeros(len(row_request)),
    )


def solve_fractional_ufp(
    instance: UFPInstance,
    *,
    repetitions: bool = False,
    raise_on_failure: bool = True,
) -> FractionalUFPResult:
    """Solve the fractional relaxation of ``instance``.

    Parameters
    ----------
    instance:
        The UFP instance.
    repetitions:
        When ``True`` the per-request cap ``X_r <= 1`` is dropped (Figure 5
        relaxation); the optimum is then only bounded by the capacities.
    raise_on_failure:
        Raise :class:`~repro.exceptions.LPSolveError` on non-optimal status.

    Notes
    -----
    The multicommodity-flow relaxation may route a request along several
    paths or even around cycles; cycles never help the objective so the
    optimal basis returned by HiGHS does not contain them, but no
    post-processing relies on their absence.
    """
    graph = instance.graph
    m = graph.num_edges
    num_requests = instance.num_requests

    if m == 0:
        raise LPSolveError("cannot solve the relaxation of a graph with no edges")
    if num_requests == 0:
        return FractionalUFPResult(
            objective=0.0,
            routed_fraction=np.zeros(0),
            edge_flows=np.zeros((0, m)),
            capacity_duals=np.zeros(m),
            status=SolverStatus.OPTIMAL,
        )

    solution = solve_lp(
        edge_flow_program(instance, repetitions=repetitions),
        raise_on_failure=raise_on_failure,
    )

    if not solution.ok:
        return FractionalUFPResult(
            objective=float("nan"),
            routed_fraction=np.full(num_requests, np.nan),
            edge_flows=np.full((num_requests, m), np.nan),
            capacity_duals=np.full(m, np.nan),
            status=solution.status,
        )

    # Each (request, edge) total adds the edge's arcs up from 0.0 in arc
    # order: bincount accumulates its weights in input order.
    flat_edge = np.arange(num_requests)[:, None] * m + _arcs(graph)[2]
    totals = np.bincount(
        flat_edge.ravel(), weights=solution.x[num_requests:], minlength=num_requests * m
    ).reshape(num_requests, m)

    return FractionalUFPResult(
        objective=float(solution.objective),
        routed_fraction=solution.x[:num_requests],
        edge_flows=instance.demands_array()[:, None] * totals,
        capacity_duals=solution.ineq_duals,
        status=solution.status,
    )
