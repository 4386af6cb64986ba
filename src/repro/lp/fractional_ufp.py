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
experiment uses it.  The result carries the commodity arc flows;
:meth:`FractionalUFPResult.path_distribution` makes that decomposition,
which is the path solution of Figure 1 the randomized-rounding baseline
samples.  With ``repetitions=True`` the per-request cap ``X_r <= 1`` is
dropped, matching the relaxation of the Figure 5 ILP (unsplittable flow
with repetitions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.exceptions import LPSolveError
from repro.flows.instance import UFPInstance
from repro.graphs.graph import CapacitatedGraph
from repro.lp.model import AssembledLP
from repro.lp.solver import solve_lp

__all__ = ["FractionalUFPResult", "edge_flow_program", "solve_fractional_ufp"]

#: Arc flow, and a request's fraction on a path, at or below this is solver
#: noise: the path decomposition neither follows nor reports it.
_NOISE = 1e-12

#: One path of a request: its vertices and edge ids from source to target,
#: and the fraction of the request routed along it.
_PathFraction = tuple[tuple[int, ...], tuple[int, ...], float]


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

    The flow is solved per commodity root (see the module docstring):
    :meth:`edge_loads` gives the demand units crossing each edge, summed
    over the commodities, and :meth:`path_distribution` splits the
    commodity flows back into per-request paths.
    """

    objective: float
    routed_fraction: np.ndarray
    capacity_duals: np.ndarray
    _loads: np.ndarray = field(repr=False)
    _instance: UFPInstance = field(repr=False)
    # f_{k,a} in the column order of edge_flow_program: the entries of the
    # solution past the X_r block.
    _arc_flows: np.ndarray = field(repr=False)

    def edge_loads(self) -> np.ndarray:
        """Total demand load per edge of the fractional solution (both
        orientations summed for undirected graphs)."""
        return self._loads.copy()

    def path_distribution(self, request_index: int) -> list[_PathFraction]:
        """The paths of one request, each with the fraction of the request
        it carries; the fractions sum to ``X_r``.

        The commodity flows are decomposed deterministically.  Commodities
        go in increasing root order.  A walk leaves the root, each step
        along the first arc (in arc-table order) with more than ``1e-12``
        of flow, and cancels the flow of any cycle it closes.  It stops at
        the first sink still short of inflow and pushes the bottleneck
        amount along its path.  A sink's pieces go to its requests in index
        order, ``d_r X_r`` to each, a piece split where needed; a request
        hung on its target gets its paths reversed.  Fractions of ``1e-12``
        or less are dropped.
        """
        return list(self._paths[request_index])

    @cached_property
    def _paths(self) -> list[list[_PathFraction]]:
        return _decompose(self._instance, self.routed_fraction, self._arc_flows)


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


def _commodities(
    instance: UFPInstance,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The request grouping: each request's root and sink, the commodity
    roots in increasing vertex id, and each request's commodity (the index
    of its root there).

    A request hangs on its source on a directed graph and on the greedy
    endpoint cover's pick on an undirected one; its sink is its other
    endpoint.
    """
    sources = np.array([req.source for req in instance.requests], dtype=np.int64)
    targets = np.array([req.target for req in instance.requests], dtype=np.int64)
    roots = sources
    if not instance.graph.directed:
        n = instance.num_vertices
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
    commodity_roots, commodity = np.unique(roots, return_inverse=True)
    return roots, sources + targets - roots, commodity_roots, commodity


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
    roots, sinks, commodity_roots, commodity = _commodities(instance)
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
    cycles included, and :meth:`FractionalUFPResult.path_distribution`
    cancels the cycles.
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
            _loads=np.zeros(m),
            _instance=instance,
            _arc_flows=np.zeros(0),
        )

    program = edge_flow_program(instance, repetitions=repetitions)
    solution = solve_lp(program)
    # An edge's load is the left-hand side of its capacity row.
    return FractionalUFPResult(
        objective=float(solution.objective),
        routed_fraction=solution.x[:num_requests],
        capacity_duals=solution.ineq_duals,
        _loads=program.A_ub @ solution.x,
        _instance=instance,
        _arc_flows=solution.x[num_requests:],
    )


def _walk(
    root: int,
    out_arcs: dict[int, list[int]],
    flow: list[float],
    heads: list[int],
    need: dict[int, float],
) -> tuple[list[int], list[int]]:
    """A walk from ``root`` along the first arc with flow out of each
    vertex, ending at the first sink with ``need`` left or at a dead end;
    returns its vertices and arcs.  The flow of a cycle it closes is
    cancelled in ``flow`` and the cycle cut from the walk."""
    vertices, arcs = [root], []
    while need.get(vertices[-1], 0.0) <= _NOISE:
        arc = next((a for a in out_arcs.get(vertices[-1], ()) if flow[a] > _NOISE), None)
        if arc is None:
            break
        head = heads[arc]
        if head in vertices:
            start = vertices.index(head)
            cycle = arcs[start:] + [arc]
            amount = min(flow[a] for a in cycle)
            for a in cycle:
                flow[a] -= amount
            del vertices[start + 1 :], arcs[start:]
        else:
            vertices.append(head)
            arcs.append(arc)
    return vertices, arcs


def _decompose(
    instance: UFPInstance, routed_fraction: np.ndarray, arc_flows: np.ndarray
) -> list[list[_PathFraction]]:
    """Every request's paths (see :meth:`FractionalUFPResult.path_distribution`)."""
    tails, heads, arc_edges = (part.tolist() for part in _arcs(instance.graph))
    _, sinks, commodity_roots, commodity = _commodities(instance)
    demands = instance.demands_array()
    flows = arc_flows.reshape(len(commodity_roots), len(arc_edges))
    paths: list[list[_PathFraction]] = [[] for _ in range(instance.num_requests)]
    for k, root in enumerate(commodity_roots.tolist()):
        members = np.flatnonzero(commodity == k).tolist()
        # need[t]: the inflow sink t has still to absorb.
        need = dict.fromkeys(sinks[members].tolist(), 0.0)
        for r in members:
            need[int(sinks[r])] += demands[r] * routed_fraction[r]
        flow = flows[k].tolist()
        out_arcs: dict[int, list[int]] = {}
        for a in np.flatnonzero(flows[k] > _NOISE).tolist():
            out_arcs.setdefault(tails[a], []).append(a)
        pieces: dict[int, list[list]] = {sink: [] for sink in need}
        while any(left > _NOISE for left in need.values()):
            vertices, arcs = _walk(root, out_arcs, flow, heads, need)
            end = vertices[-1]
            if need.get(end, 0.0) > _NOISE:
                amount = min(need[end], *(flow[a] for a in arcs))
                for a in arcs:
                    flow[a] -= amount
                need[end] -= amount
                pieces[end].append([vertices, [arc_edges[a] for a in arcs], amount])
            elif arcs:
                # Flow that reaches a dead end is solver noise.
                flow[arcs[-1]] = 0.0
            else:
                break
        for r in members:
            request = instance.requests[r]
            want = demands[r] * routed_fraction[r]
            queue = pieces[int(sinks[r])]
            while want > 0.0 and queue:
                vertices, edge_ids, amount = queue[0]
                take = min(amount, want)
                want -= take
                queue[0][2] -= take
                if take == amount:
                    queue.pop(0)
                fraction = take / request.demand
                if fraction <= _NOISE:
                    continue
                if request.target == root:
                    vertices, edge_ids = vertices[::-1], edge_ids[::-1]
                paths[r].append((tuple(vertices), tuple(edge_ids), float(fraction)))
    return paths
