"""The fractional relaxation of the unsplittable flow ILP (Figure 1).

The paper's primal program (Figure 1) is written over simple paths; the
edge-flow formulation solved here is its standard polynomial-size
equivalent.  A variable ``X_r in [0, 1]`` gives the routed fraction of each
request ``r``.  Requests that share an endpoint share one flow: the
requests are grouped into *commodities*, each hung on a root vertex, and a
variable ``f_{k,a} >= 0`` gives the demand units of commodity ``k`` on arc
``a``.  The root of commodity ``k`` sends ``sum_{r in k} d_r X_r`` and the
other endpoint of each of its requests, the request's sink, absorbs
``d_r X_r``; every other vertex conserves flow.  Capacities couple the
commodities: ``sum_k (flow of k on edge e) <= c_e``, where for an
undirected edge both arc orientations count toward the same capacity.

On a directed graph a request hangs on its source.  On an undirected graph
a greedy cover of the request graph picks the roots: repeatedly the vertex
that touches the most uncovered requests (lowest id on ties) takes all of
them, and their flow runs from it to their other endpoint.

Decomposing a commodity's flow into paths from the root splits it back
into one flow per request, so the optimum is that of the program with one
flow per request: ``max sum_r v_r X_r`` is the optimum of the relaxation of
the Figure 1 ILP and upper bounds the integral optimum, which is how every
experiment uses it.  Per-request flows are not reported; the result
carries the total load of each edge.  With ``repetitions=True`` the
per-request cap ``X_r <= 1`` is dropped, matching the relaxation of the
Figure 5 ILP (unsplittable flow with repetitions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    capacity_duals:
        Dual values ``y_e`` of the capacity constraints (the LP analogue of
        the algorithm's edge weights), indexed by edge id.
    status:
        Solver status (always optimal: a failed solve raises
        :class:`~repro.exceptions.LPSolveError`).

    The flow is solved per commodity root (see the module docstring), so
    there is no per-request flow to report; :meth:`edge_loads` gives the
    demand units crossing each edge, summed over the commodities.
    """

    objective: float
    routed_fraction: np.ndarray
    capacity_duals: np.ndarray
    status: SolverStatus
    _loads: np.ndarray = field(repr=False)

    @property
    def ok(self) -> bool:
        return self.status.ok

    def edge_loads(self) -> np.ndarray:
        """Total demand load per edge of the fractional solution (both
        orientations summed for undirected graphs)."""
        return self._loads.copy()


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


def _commodity_roots(
    graph: CapacitatedGraph, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """The root each request hangs on: its source on a directed graph, the
    greedy endpoint cover's pick on an undirected one."""
    if graph.directed:
        return sources
    n = graph.num_vertices
    roots = np.full(len(sources), -1, dtype=np.int64)
    # touching[v] counts the uncovered requests with an endpoint at v.
    touching = np.bincount(sources, minlength=n) + np.bincount(targets, minlength=n)
    while (uncovered := roots < 0).any():
        root = int(np.argmax(touching))
        hung = uncovered & ((sources == root) | (targets == root))
        roots[hung] = root
        # A hung request's other endpoint loses one uncovered request.
        touching -= np.bincount(sources[hung] + targets[hung] - root, minlength=n)
        touching[root] = 0
    return roots


def edge_flow_program(instance: UFPInstance, *, repetitions: bool = False) -> AssembledLP:
    """Assemble the edge-flow relaxation of ``instance`` in solver form.

    Variables are ``X_r`` for every request, then ``f_{k,a}`` commodity-major
    (roots in increasing vertex id) over the arc table (see :func:`_arcs`).
    The equality rows are flow conservation, commodity-major then
    vertex-minor, skipping a vertex without arcs unless it is a terminal of
    the commodity.  The inequality rows are one capacity row per edge id; a
    disabled edge's row is empty, so the capacity duals stay indexed by
    edge id.
    """
    graph = instance.graph
    n, m = graph.num_vertices, graph.num_edges
    num_requests = instance.num_requests
    arc_tail, arc_head, arc_edge = _arcs(graph)
    num_arcs = len(arc_edge)
    demands = instance.demands_array()
    sources = np.array([req.source for req in instance.requests], dtype=np.int64)
    targets = np.array([req.target for req in instance.requests], dtype=np.int64)
    roots = _commodity_roots(graph, sources, targets)
    # A request's sink is its endpoint other than its root.
    sinks = sources + targets - roots
    # commodity[r] indexes the roots in increasing vertex id.
    commodity_roots, commodity = np.unique(roots, return_inverse=True)
    num_commodities = len(commodity_roots)
    num_variables = num_requests + num_commodities * num_arcs
    # f_cols[k, a] is the column of f_{k,a}.
    f_cols = num_requests + np.arange(num_commodities * num_arcs).reshape(
        num_commodities, num_arcs
    )

    c = np.zeros(num_variables)
    c[:num_requests] = instance.values_array()
    bounds = np.zeros((num_variables, 2))
    bounds[:, 1] = np.inf
    if not repetitions:
        bounds[:num_requests, 1] = 1.0

    # Flow conservation: out - in - sum_{r in k} d_r X_r = 0 at the root of
    # k, out - in + d_r X_r = 0 at the sink of each r in k, out - in = 0
    # elsewhere.  One commodity's incidence block lists every vertex's arcs
    # in arc order, +1 leaving and -1 entering.
    ends = np.concatenate((arc_tail, arc_head))
    incident = np.tile(np.arange(num_arcs), 2)
    signs = np.repeat([1.0, -1.0], num_arcs)
    order = np.lexsort((incident, ends))
    degree = np.bincount(ends, minlength=n)
    # Each request has two X entries, keyed by their row's (commodity,
    # vertex) pair flattened: -d_r at its root, +d_r at its sink.
    x_key = np.concatenate((commodity * n + roots, commodity * n + sinks))
    x_request = np.tile(np.arange(num_requests), 2)
    x_data = np.concatenate((-demands, demands))
    x_count = np.bincount(x_key, minlength=num_commodities * n).reshape(num_commodities, n)
    row_commodity, row_vertex = np.nonzero((x_count > 0) | (degree > 0))
    row_x = x_count[row_commodity, row_vertex]
    indptr = np.zeros(len(row_commodity) + 1, dtype=np.int64)
    np.cumsum(degree[row_vertex] + row_x, out=indptr[1:])
    # A row opens with its X entries in request order, the lowest columns.
    # The f entries fill the other slots: in row order that is the
    # incidence block once per commodity, since every vertex with arcs has
    # a row per commodity.
    x_order = np.lexsort((x_request, x_key))
    x_slots = np.arange(2 * num_requests) + np.repeat(
        indptr[:-1] - (np.cumsum(row_x) - row_x), row_x
    )
    f_slots = np.ones(indptr[-1], dtype=bool)
    f_slots[x_slots] = False
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    indices[x_slots] = x_request[x_order]
    data[x_slots] = x_data[x_order]
    indices[f_slots] = f_cols[:, incident[order]].ravel()
    data[f_slots] = np.tile(signs[order], num_commodities)
    A_eq = sparse.csr_matrix((data, indices, indptr), shape=(len(row_commodity), num_variables))

    # Capacity: sum_k sum_{arcs a of e} f_{k,a} <= c_e.  Every live edge has
    # the same number of arcs, consecutive in the arc table.
    per_edge = 1 if graph.directed else 2
    num_live = num_arcs // per_edge
    ub_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(arc_edge, minlength=m) * num_commodities, out=ub_indptr[1:])
    A_ub = sparse.csr_matrix(
        (
            np.ones(ub_indptr[-1]),
            f_cols.reshape(num_commodities, num_live, per_edge).transpose(1, 0, 2).ravel(),
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
        b_eq=np.zeros(len(row_commodity)),
    )


def solve_fractional_ufp(
    instance: UFPInstance,
    *,
    repetitions: bool = False,
) -> FractionalUFPResult:
    """Solve the fractional relaxation of ``instance``.

    Parameters
    ----------
    instance:
        The UFP instance.
    repetitions:
        When ``True`` the per-request cap ``X_r <= 1`` is dropped (Figure 5
        relaxation); the optimum is then only bounded by the capacities.

    Notes
    -----
    A commodity's optimal flow may split a request over several paths, and
    at a degenerate optimum HiGHS may return it with flow around a cycle.
    Neither changes the objective, ``X_r`` or the duals;
    :meth:`FractionalUFPResult.edge_loads` reports the flow as returned,
    cycles included.
    """
    m = instance.graph.num_edges
    num_requests = instance.num_requests

    if m == 0:
        raise LPSolveError("cannot solve the relaxation of a graph with no edges")
    if num_requests == 0:
        return FractionalUFPResult(
            objective=0.0,
            routed_fraction=np.zeros(0),
            capacity_duals=np.zeros(m),
            status=SolverStatus.OPTIMAL,
            _loads=np.zeros(m),
        )

    program = edge_flow_program(instance, repetitions=repetitions)
    solution = solve_lp(program)
    # An edge's load is the left-hand side of its capacity row.
    return FractionalUFPResult(
        objective=float(solution.objective),
        routed_fraction=solution.x[:num_requests],
        capacity_duals=solution.ineq_duals,
        status=solution.status,
        _loads=program.A_ub @ solution.x,
    )
