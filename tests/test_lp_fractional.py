"""Tests for the fractional UFP / MUCA relaxations, the path decomposition of
the UFP optimum and the duality helpers."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.auctions import Bid, MUCAInstance, random_auction
from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.graphs.shortest_path import single_source_dijkstra
from repro.lp import (
    AssembledLP,
    FractionalUFPResult,
    check_weak_duality,
    solve_fractional_muca,
    solve_fractional_ufp,
    solve_lp,
    ufp_dual_objective,
)
from repro.lp.duality import minimum_normalized_path_length, ufp_dual_is_feasible
from repro.lp.fractional_muca import bid_packing_program
from repro.lp.fractional_ufp import edge_flow_program
from repro.scenarios import available_suites, enumerate_cells, get_suite
from repro.scenarios.regimes import build_cell_instance


class _PerTermLP:
    """A program built one variable and one constraint at a time, from COO
    triplets: the reference every array assembly must match bit for bit.
    Assembly sums duplicate entries and sorts each row's columns, as
    ``coo_matrix.tocsr`` does; an empty block is ``None``."""

    def __init__(self) -> None:
        self.objective: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.rows = {"ub": ([], [], [], []), "eq": ([], [], [], [])}

    def add_variable(self, *, objective=0.0, lower=0.0, upper=np.inf, name=""):
        self.objective.append(float(objective))
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.objective) - 1

    def _add(self, kind, terms, rhs):
        rows, cols, vals, rhss = self.rows[kind]
        for var, coeff in terms.items():
            if coeff != 0.0:
                rows.append(len(rhss))
                cols.append(int(var))
                vals.append(float(coeff))
        rhss.append(float(rhs))
        return len(rhss) - 1

    def add_le_constraint(self, terms, rhs):
        return self._add("ub", terms, rhs)

    def add_eq_constraint(self, terms, rhs):
        return self._add("eq", terms, rhs)

    def assemble(self) -> AssembledLP:
        blocks = {}
        for kind, (rows, cols, vals, rhss) in self.rows.items():
            if not rhss:
                blocks[kind] = (None, None)
                continue
            matrix = sparse.coo_matrix(
                (vals, (rows, cols)), shape=(len(rhss), len(self.objective))
            ).tocsr()
            blocks[kind] = (matrix, np.asarray(rhss, dtype=np.float64))
        return AssembledLP(
            c=np.asarray(self.objective, dtype=np.float64),
            bounds=np.column_stack((self.lower, self.upper)).astype(np.float64, copy=False),
            A_ub=blocks["ub"][0],
            b_ub=blocks["ub"][1],
            A_eq=blocks["eq"][0],
            b_eq=blocks["eq"][1],
        )


def _assert_same_program(got: AssembledLP, want: AssembledLP) -> None:
    """Byte equality of every array the solver reads."""
    for key in ("c", "bounds", "b_ub", "b_eq"):
        got_array, want_array = getattr(got, key), getattr(want, key)
        if want_array is None:
            assert got_array is None, key
            continue
        assert got_array.shape == want_array.shape, key
        assert got_array.dtype == want_array.dtype, key
        assert got_array.tobytes() == want_array.tobytes(), key
    for key in ("A_ub", "A_eq"):
        got_matrix, want_matrix = getattr(got, key), getattr(want, key)
        if want_matrix is None:
            assert got_matrix is None, key
            continue
        assert got_matrix.shape == want_matrix.shape, key
        for part in ("indptr", "indices", "data"):
            got_part, want_part = getattr(got_matrix, part), getattr(want_matrix, part)
            assert got_part.dtype == want_part.dtype, f"{key}.{part}"
            assert got_part.tobytes() == want_part.tobytes(), f"{key}.{part}"


def _reference_arcs(graph):
    """The arc table, built edge by edge: a directed edge is one arc, an
    undirected edge two (forward, then reverse); disabled edges have none."""
    arcs = []
    for eid in range(graph.num_edges):
        if eid in graph.disabled_edges:
            continue
        u, v = graph.edge_endpoints(eid)
        arcs.append((u, v, eid))
        if not graph.directed:
            arcs.append((v, u, eid))
    return arcs


def _per_request_fractional_ufp(instance, repetitions=False):
    """The edge-flow relaxation with one flow per request, built one term
    at a time: the oracle for the optimum of :func:`edge_flow_program`.

    Variables are ``X_r``, then the fraction ``g_{r,a} in [0, 1]`` of each
    request on each arc; conservation rows request-major, vertex-minor;
    capacity rows ``sum_r d_r * sum_{a in e} g_{r,a} <= c_e``.
    """
    graph = instance.graph
    n = graph.num_vertices
    arcs = _reference_arcs(graph)
    upper = np.inf if repetitions else 1.0
    lp = _PerTermLP()
    x_vars = [
        lp.add_variable(objective=req.value, lower=0.0, upper=upper)
        for req in instance.requests
    ]
    g_vars = [
        [lp.add_variable(objective=0.0, lower=0.0, upper=upper) for _ in arcs]
        for _ in instance.requests
    ]
    # out - in = X_r at the source, -X_r at the target, 0 elsewhere.
    for r, req in enumerate(instance.requests):
        for v in range(n):
            terms: dict[int, float] = {}
            for a, (tail, head, _) in enumerate(arcs):
                if tail == v:
                    terms[g_vars[r][a]] = terms.get(g_vars[r][a], 0.0) + 1.0
                if head == v:
                    terms[g_vars[r][a]] = terms.get(g_vars[r][a], 0.0) - 1.0
            if v == req.source:
                terms[x_vars[r]] = -1.0
            elif v == req.target:
                terms[x_vars[r]] = 1.0
            if terms:
                lp.add_eq_constraint(terms, 0.0)
    for eid in range(graph.num_edges):
        terms = {}
        for r, req in enumerate(instance.requests):
            for a, (_, _, arc_eid) in enumerate(arcs):
                if arc_eid == eid:
                    terms[g_vars[r][a]] = req.demand
        lp.add_le_constraint(terms, graph.edge_capacity(eid))
    return lp.assemble()


def _reference_roots(instance):
    """Each request's commodity root, recounted from scratch every step: its
    source on a directed graph; on an undirected one the vertex touching the
    most uncovered requests (lowest id on ties) takes all of them."""
    requests = instance.requests
    if instance.graph.directed:
        return [req.source for req in requests]
    roots = [None] * len(requests)
    while None in roots:
        touching: dict[int, int] = {}
        for r, req in enumerate(requests):
            if roots[r] is None:
                for v in (req.source, req.target):
                    touching[v] = touching.get(v, 0) + 1
        root = min(touching, key=lambda v: (-touching[v], v))
        for r, req in enumerate(requests):
            if roots[r] is None and root in (req.source, req.target):
                roots[r] = root
    return roots


def _per_term_aggregated_ufp(instance, repetitions=False):
    """The commodity-root relaxation built one term at a time through
    :class:`_PerTermLP` and read back with Python loops: the reference the
    array assembly in :func:`edge_flow_program` must match bit for bit.

    Returns the program and a function mapping its solution to
    ``(routed_fraction, edge_loads, capacity_duals)``.
    """
    graph = instance.graph
    n = graph.num_vertices
    arcs = _reference_arcs(graph)
    roots = _reference_roots(instance)
    commodities = sorted(set(roots))

    lp = _PerTermLP()
    x_upper = np.inf if repetitions else 1.0
    x_vars = [
        lp.add_variable(objective=req.value, lower=0.0, upper=x_upper)
        for req in instance.requests
    ]
    f_vars = [
        [lp.add_variable(objective=0.0, lower=0.0, upper=np.inf) for _ in arcs]
        for _ in commodities
    ]

    # out - in = sum_{r in k} d_r X_r at the root of k, -d_r X_r at the sink
    # of each r in k, 0 elsewhere.
    for k, root in enumerate(commodities):
        for v in range(n):
            terms: dict[int, float] = {}
            for r, req in enumerate(instance.requests):
                if roots[r] != root:
                    continue
                sink = req.target if req.source == root else req.source
                if v == root:
                    terms[x_vars[r]] = -req.demand
                elif v == sink:
                    terms[x_vars[r]] = req.demand
            for a, (tail, head, _) in enumerate(arcs):
                if tail == v:
                    terms[f_vars[k][a]] = terms.get(f_vars[k][a], 0.0) + 1.0
                if head == v:
                    terms[f_vars[k][a]] = terms.get(f_vars[k][a], 0.0) - 1.0
            if terms:
                lp.add_eq_constraint(terms, 0.0)

    # Capacity: sum_k sum_{arcs a of e} f_{k,a} <= c_e, one row per edge id.
    arcs_of_edge = [
        [a for a, (_, _, arc_eid) in enumerate(arcs) if arc_eid == eid]
        for eid in range(graph.num_edges)
    ]
    for eid in range(graph.num_edges):
        terms = {f_vars[k][a]: 1.0 for k in range(len(commodities)) for a in arcs_of_edge[eid]}
        lp.add_le_constraint(terms, graph.edge_capacity(eid))

    def read(solution):
        routed = np.array([solution.x[i] for i in x_vars], dtype=np.float64)
        loads = np.zeros(graph.num_edges, dtype=np.float64)
        for eid in range(graph.num_edges):
            total = 0.0
            for k in range(len(commodities)):
                for a in arcs_of_edge[eid]:
                    total += float(solution.x[f_vars[k][a]])
            loads[eid] = total
        return routed, loads, solution.ineq_duals[: graph.num_edges]

    return lp, read


class TestFractionalUFP:
    def test_single_edge_contention(self, contended_instance):
        result = solve_fractional_ufp(contended_instance)
        # Capacity 2, three unit requests of values 5, 3, 2: best fractional
        # solution routes the two most valuable ones.
        assert result.objective == pytest.approx(8.0)
        np.testing.assert_allclose(result.edge_loads(), [2.0], atol=1e-6)

    def test_uncontended_routes_everything(self, diamond_instance):
        result = solve_fractional_ufp(diamond_instance)
        assert result.objective == pytest.approx(diamond_instance.total_value)
        np.testing.assert_allclose(
            result.routed_fraction, np.ones(3), atol=1e-6
        )

    def test_splitting_beats_unsplittable(self):
        """The relaxation may split one request across two paths."""
        graph = CapacitatedGraph(4, [(0, 1, 0.5), (1, 3, 0.5), (0, 2, 0.5), (2, 3, 0.5)],
                                 directed=True)
        instance = UFPInstance(graph, [Request(0, 3, 1.0, 10.0)])
        result = solve_fractional_ufp(instance)
        # Each path carries half the demand.
        assert result.objective == pytest.approx(10.0)

    def test_repetitions_mode_unbounded_by_request_cap(self, diamond_instance):
        plain = solve_fractional_ufp(diamond_instance)
        repeated = solve_fractional_ufp(diamond_instance, repetitions=True)
        assert repeated.objective >= plain.objective - 1e-9
        # With repetitions the best-density request saturates the capacity,
        # so the optimum strictly exceeds the capped one here.
        assert repeated.objective > plain.objective + 1.0

    def test_capacity_duals_nonnegative_and_cover_requests(self, contended_instance):
        result = solve_fractional_ufp(contended_instance)
        assert np.all(result.capacity_duals >= -1e-9)
        # The single edge is saturated, so its dual is at least the value
        # density of the marginal (losing) request.
        assert result.capacity_duals[0] >= 2.0 - 1e-6

    def test_disconnected_request_gets_zero(self):
        graph = CapacitatedGraph(3, [(0, 1, 5.0)], directed=True)
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 4.0), Request(0, 1, 1.0, 1.0)])
        result = solve_fractional_ufp(instance)
        assert result.objective == pytest.approx(1.0)
        assert result.routed_fraction[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_requests(self, diamond_graph):
        instance = UFPInstance(diamond_graph, [])
        result = solve_fractional_ufp(instance)
        assert result.objective == 0.0

    def test_undirected_capacity_shared_between_orientations(self):
        graph = CapacitatedGraph(2, [(0, 1, 1.0)], directed=False)
        instance = UFPInstance(
            graph, [Request(0, 1, 1.0, 1.0), Request(1, 0, 1.0, 1.0)]
        )
        result = solve_fractional_ufp(instance)
        # Both directions share the single unit of capacity.
        assert result.objective == pytest.approx(1.0)

    def test_disabled_edge_carries_no_flow(self):
        instance = _disabled_shortcut_instance()
        result = solve_fractional_ufp(instance)
        # Only the unit-capacity detour 0-1-2 is live: the value-4 request.
        assert result.objective == pytest.approx(4.0)
        assert result.capacity_duals.shape == (3,)
        assert result.capacity_duals[2] == 0.0
        assert result.edge_loads()[2] == 0.0


def _disabled_shortcut_instance() -> UFPInstance:
    """A triangle whose roomy shortcut 0-2 is disabled."""
    graph = CapacitatedGraph(
        3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], directed=False, disabled_edges=[2]
    )
    return UFPInstance(
        graph,
        [Request(0, 2, 1.0, 4.0), Request(0, 2, 1.0, 3.0), Request(2, 0, 1.0, 2.0)],
    )


def _multigraph_instance(seed: int, directed: bool) -> UFPInstance:
    """A small random multigraph with parallel edges and one isolated
    vertex, which some requests may use as a terminal."""
    rng = np.random.default_rng(seed)
    n = 7
    isolated = int(rng.integers(n))
    others = [v for v in range(n) if v != isolated]
    edges = []
    for _ in range(int(rng.integers(6, 14))):
        u, v = rng.choice(others, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.uniform(0.5, 3.0))))
    for u, v, _ in edges[:2]:
        edges.append((u, v, float(rng.uniform(0.5, 3.0))))
    requests = []
    for _ in range(int(rng.integers(3, 9))):
        s, t = rng.choice(n, size=2, replace=False)
        requests.append(
            Request(int(s), int(t), float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 3.0)))
        )
    return UFPInstance(CapacitatedGraph(n, edges, directed=directed), requests)


_SUITE_CELLS = [
    (suite, index)
    for suite in available_suites()
    for index in range(len(enumerate_cells(get_suite(suite))))
]


def _suite_cell(suite, index):
    """A built-in suite cell's instance, and whether the cell bounds it by
    the Figure 5 relaxation (its own form)."""
    cell = enumerate_cells(get_suite(suite))[index]
    return build_cell_instance(cell)[0], cell.mode.get("kind") == "repeated"


def _assert_assembled_as_reference(instance, repetitions):
    """:func:`edge_flow_program` is the term-by-term reference byte for byte,
    so HiGHS returns the same bits for both; returns the solved result."""
    reference, read = _per_term_aggregated_ufp(instance, repetitions)
    reference = reference.assemble()
    _assert_same_program(edge_flow_program(instance, repetitions=repetitions), reference)

    solution = solve_lp(reference)
    routed, loads, capacity_duals = read(solution)
    result = solve_fractional_ufp(instance, repetitions=repetitions)
    assert result.objective.hex() == float(solution.objective).hex()
    for name, got_array, want_array in (
        ("routed_fraction", result.routed_fraction, routed),
        ("edge_loads", result.edge_loads(), loads),
        ("capacity_duals", result.capacity_duals, capacity_duals),
    ):
        assert got_array.shape == want_array.shape, name
        assert got_array.tobytes() == want_array.tobytes(), name
    return result


def _assert_decomposes(instance, result):
    """:meth:`FractionalUFPResult.path_distribution` splits the optimum into
    simple source-to-target paths over live edges: each request's fractions
    sum to its ``X_r`` and no edge carries more than the LP's load."""
    graph = instance.graph
    loads = np.zeros(graph.num_edges)
    for r, req in enumerate(instance.requests):
        distribution = result.path_distribution(r)
        total = sum(fraction for _, _, fraction in distribution)
        assert abs(total - result.routed_fraction[r]) <= 1e-9
        for vertices, edge_ids, fraction in distribution:
            assert fraction > 1e-12
            assert (vertices[0], vertices[-1]) == (req.source, req.target)
            assert len(set(vertices)) == len(vertices) == len(edge_ids) + 1
            for tail, head, eid in zip(vertices, vertices[1:], edge_ids):
                assert eid not in graph.disabled_edges
                ends = graph.edge_endpoints(eid)
                assert ends == (tail, head) or (not graph.directed and ends == (head, tail))
            np.add.at(loads, list(edge_ids), fraction * req.demand)
    assert np.all(loads <= result.edge_loads() + 1e-9)


def _assert_per_request_optimum(instance, repetitions, *, exact):
    """The optimum is the one-flow-per-request program's: the same float
    when ``exact``, else within 1e-12 relative."""
    want = solve_lp(_per_request_fractional_ufp(instance, repetitions)).objective
    got = solve_fractional_ufp(instance, repetitions=repetitions).objective
    if exact:
        assert got.hex() == float(want).hex()
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestEdgeFlowAssembly:
    """The array assembly is bit-identical to the per-term reference of the
    commodity-root program (the same matrices reach HiGHS, so the same bits
    come back), and its optimum is that of the program with one flow per
    request: the same float on every built-in suite cell in the cell's own
    form, within 1e-12 relative in the Figure 5 form and on the multigraph
    corpus.  The optimum decomposes into paths on every one of them."""

    @staticmethod
    def _assert_suite_cell(suite, index):
        instance, repetitions = _suite_cell(suite, index)
        _assert_decomposes(instance, _assert_assembled_as_reference(instance, repetitions))
        _assert_per_request_optimum(instance, repetitions, exact=True)

    @pytest.mark.parametrize("index", range(24))
    def test_demo_campaign_cells(self, index):
        self._assert_suite_cell("demo", index)

    @pytest.mark.parametrize("index", range(0, 24, 3))
    def test_demo_campaign_cells_with_repetitions(self, index):
        instance = _suite_cell("demo", index)[0]
        _assert_decomposes(instance, _assert_assembled_as_reference(instance, repetitions=True))
        _assert_per_request_optimum(instance, repetitions=True, exact=False)

    @pytest.mark.parametrize(
        "suite, index", [case for case in _SUITE_CELLS if case[0] != "demo"]
    )
    def test_builtin_suite_cells(self, suite, index):
        self._assert_suite_cell(suite, index)

    @pytest.mark.parametrize("repetitions", [False, True])
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_multigraphs(self, seed, directed, repetitions):
        instance = _multigraph_instance(seed, directed)
        _assert_decomposes(instance, _assert_assembled_as_reference(instance, repetitions))
        _assert_per_request_optimum(instance, repetitions, exact=False)


class TestCommodityGrouping:
    """Corner cases of the grouping, each solved to the per-request optimum
    and decomposed into paths."""

    @staticmethod
    def _assert_grouped(instance, roots):
        assert _reference_roots(instance) == roots
        program = edge_flow_program(instance)
        num_arcs = sum(
            (1 if instance.graph.directed else 2)
            for eid in range(instance.num_edges)
            if eid not in instance.graph.disabled_edges
        )
        assert program.num_variables == instance.num_requests + len(set(roots)) * num_arcs
        for repetitions in (False, True):
            _assert_decomposes(instance, _assert_assembled_as_reference(instance, repetitions))
            _assert_per_request_optimum(instance, repetitions, exact=False)

    @staticmethod
    def _star_requests():
        return [Request(0, 2, 1.0, 3.0), Request(1, 2, 1.0, 2.0), Request(3, 2, 0.5, 1.0)]

    def test_directed_graph_roots_are_sources(self):
        graph = CapacitatedGraph(
            4, [(0, 1, 1.0), (1, 2, 1.5), (3, 2, 1.0), (0, 2, 0.5)], directed=True
        )
        self._assert_grouped(UFPInstance(graph, self._star_requests()), [0, 1, 3])

    def test_undirected_request_hangs_on_its_target(self):
        graph = CapacitatedGraph(
            4, [(0, 1, 1.0), (1, 2, 1.5), (3, 2, 1.0), (0, 2, 0.5)], directed=False
        )
        self._assert_grouped(UFPInstance(graph, self._star_requests()), [2, 2, 2])

    def test_parallel_edges(self):
        graph = CapacitatedGraph(
            3, [(0, 1, 1.0), (0, 1, 0.5), (1, 2, 2.0), (1, 2, 0.25)], directed=False
        )
        requests = [Request(0, 2, 1.0, 4.0), Request(2, 0, 1.0, 3.0), Request(1, 2, 0.5, 1.0)]
        self._assert_grouped(UFPInstance(graph, requests), [2, 2, 2])

    @pytest.mark.parametrize("directed, roots", [(True, [0, 3]), (False, [0, 0])])
    def test_isolated_terminal(self, directed, roots):
        """Vertex 3 has no edges: a sink of root 0, or a root of its own."""
        graph = CapacitatedGraph(4, [(0, 1, 1.0), (1, 2, 1.0)], directed=directed)
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 2.0), Request(3, 0, 1.0, 5.0)])
        self._assert_grouped(instance, roots)
        result = solve_fractional_ufp(instance)
        assert result.routed_fraction[1] == 0.0
        assert result.objective == pytest.approx(2.0)

    def test_disabled_edge(self):
        self._assert_grouped(_disabled_shortcut_instance(), [0, 0, 0])

    def test_every_edge_disabled(self):
        graph = CapacitatedGraph(
            3, [(0, 1, 1.0), (1, 2, 1.0)], directed=False, disabled_edges=[0, 1]
        )
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 4.0), Request(1, 2, 1.0, 3.0)])
        self._assert_grouped(instance, [2, 2])
        result = solve_fractional_ufp(instance)
        assert result.objective == 0.0
        assert not result.routed_fraction.any()
        assert not result.edge_loads().any()

    def test_opposite_requests_share_a_commodity(self):
        graph = CapacitatedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.5)], directed=False)
        requests = [Request(0, 1, 1.0, 2.0), Request(1, 0, 1.0, 1.5), Request(0, 2, 0.5, 1.0)]
        self._assert_grouped(UFPInstance(graph, requests), [0, 0, 0])


class TestDualCertificate:
    """The capacity duals certify the optimum: with ``z_r = max(0, v_r -
    d_r * dist_y(r))`` at ``y = capacity_duals``, ``(y, z)`` is feasible
    for the dual of Figure 1 and its objective is the LP optimum; in the
    Figure 5 form ``y`` alone is, with ``z`` dropped."""

    @staticmethod
    def _assert_duals_certify(instance):
        for repetitions in (False, True):
            result = solve_fractional_ufp(instance, repetitions=repetitions)
            y = result.capacity_duals
            z = None
            if not repetitions:
                z = np.zeros(instance.num_requests)
                for r, req in enumerate(instance.requests):
                    tree = single_source_dijkstra(instance.graph, req.source, y)
                    if tree.reachable(req.target):
                        z[r] = max(0.0, req.value - req.demand * tree.distance(req.target))
            assert ufp_dual_is_feasible(instance, y, z)
            assert ufp_dual_objective(instance, y, z) == pytest.approx(
                result.objective, rel=1e-9
            )

    @pytest.mark.parametrize("suite, index", _SUITE_CELLS)
    def test_builtin_suite_cells(self, suite, index):
        self._assert_duals_certify(_suite_cell(suite, index)[0])

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_multigraphs(self, seed, directed):
        self._assert_duals_certify(_multigraph_instance(seed, directed))


def _per_term_bid_packing(instance):
    """The auction relaxation built one term at a time: one variable per
    bid, then one row per item listing the bids that want it (an empty row
    for an item nobody wants)."""
    lp = _PerTermLP()
    x_vars = [
        lp.add_variable(objective=bid.value, lower=0.0, upper=1.0)
        for bid in instance.bids
    ]
    bids_of_item: list[list[int]] = [[] for _ in range(instance.num_items)]
    for r, bid in enumerate(instance.bids):
        for u in bid.bundle:
            bids_of_item[u].append(r)
    for u in range(instance.num_items):
        lp.add_le_constraint(
            {x_vars[r]: 1.0 for r in bids_of_item[u]}, float(instance.multiplicities[u])
        )
    return lp.assemble()


def _packing_auction(seed: int) -> MUCAInstance:
    """A random auction of 30 bids on 12 items of multiplicity 4."""
    return random_auction(
        num_items=12, num_bids=30, multiplicity=4.0, bundle_size_range=(1, 5), seed=seed
    )


def _auction_with_unwanted_item(seed: int) -> MUCAInstance:
    """A random auction plus one item (the last) that no bid contains."""
    auction = random_auction(num_items=9, num_bids=30, multiplicity=3.0, seed=seed)
    return MUCAInstance(np.append(auction.multiplicities, 2.0), auction.bids)


def _single_item_auction() -> MUCAInstance:
    """Three bids contending for one unit of one item."""
    return MUCAInstance(np.array([1.0]), [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 1.0)])


class TestBidPackingAssembly:
    """The array-assembled auction relaxation is the per-term one, byte for
    byte, and so is everything HiGHS returns for it."""

    @staticmethod
    def _assert_bit_identical(instance):
        reference = _per_term_bid_packing(instance)
        _assert_same_program(bid_packing_program(instance), reference)
        solution = solve_lp(reference)
        result = solve_fractional_muca(instance)
        assert result.objective.hex() == float(solution.objective).hex()
        assert result.fractions.tobytes() == solution.x.tobytes()
        assert result.item_duals.tobytes() == solution.ineq_duals.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_auctions(self, seed):
        self._assert_bit_identical(_packing_auction(seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_item_without_bids_keeps_its_row(self, seed):
        instance = _auction_with_unwanted_item(seed)
        assert bid_packing_program(instance).A_ub.shape == (10, 30)
        self._assert_bit_identical(instance)

    def test_single_item_contention(self):
        self._assert_bit_identical(_single_item_auction())


class TestPathDecomposition:
    """The cases of :meth:`FractionalUFPResult.path_distribution` that the
    assembly corpus does not force."""

    def test_requests_sharing_a_sink_split_a_piece(self):
        """Two paths of 0.75 reach sink 2; request 0 (demand 1) takes the
        first and a quarter of the second, request 1 (demand 0.5) the rest."""
        graph = CapacitatedGraph(
            4, [(0, 1, 0.75), (1, 2, 0.75), (0, 3, 0.75), (3, 2, 0.75)], directed=True
        )
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 2.0), Request(0, 2, 0.5, 1.0)])
        result = solve_fractional_ufp(instance)
        np.testing.assert_array_equal(result.routed_fraction, [1.0, 1.0])
        assert result.path_distribution(0) == [
            ((0, 1, 2), (0, 1), 0.75),
            ((0, 3, 2), (2, 3), 0.25),
        ]
        assert result.path_distribution(1) == [((0, 3, 2), (2, 3), 1.0)]

    def test_request_hung_on_its_target_is_reversed(self):
        """Vertex 0 ends both requests, so it roots them and their flow runs
        from their targets."""
        graph = CapacitatedGraph(3, [(0, 1, 1.0), (0, 2, 1.0)], directed=False)
        instance = UFPInstance(graph, [Request(1, 0, 1.0, 2.0), Request(2, 0, 0.5, 1.0)])
        result = solve_fractional_ufp(instance)
        assert result.path_distribution(0) == [((1, 0), (0,), 1.0)]
        assert result.path_distribution(1) == [((2, 0), (1,), 1.0)]

    def test_cycle_is_cancelled_not_followed(self):
        """Arc flows as HiGHS may return them at a degenerate optimum: the
        first arc out of 1 enters the cycle 1 -> 2 -> 1, whose flow is
        cancelled; the walk then leaves 1 by the next arc."""
        graph = CapacitatedGraph(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)], directed=True
        )
        result = FractionalUFPResult(
            objective=1.0,
            routed_fraction=np.array([1.0]),
            capacity_duals=np.zeros(4),
            _loads=np.array([1.0, 0.5, 0.5, 1.0]),
            _instance=UFPInstance(graph, [Request(0, 3, 1.0, 1.0)]),
            _arc_flows=np.array([1.0, 0.5, 0.5, 1.0]),
        )
        assert result.path_distribution(0) == [((0, 1, 3), (0, 3), 1.0)]


class TestFractionalMUCA:
    def test_tiny_auction_optimum(self, tiny_auction):
        result = solve_fractional_muca(tiny_auction)
        # All four bids fit within multiplicity 2 of each item.
        assert result.objective == pytest.approx(10.0)

    def test_contention_forces_choice(self):
        from repro.auctions import Bid, MUCAInstance

        instance = MUCAInstance(
            np.array([1.0]),
            [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 1.0)],
        )
        result = solve_fractional_muca(instance)
        assert result.objective == pytest.approx(5.0)
        assert result.item_duals[0] >= 3.0 - 1e-6

    def test_item_without_bids_gets_zero_dual(self):
        from repro.auctions import Bid, MUCAInstance

        instance = MUCAInstance(np.array([1.0, 1.0]), [Bid((0,), 2.0)])
        result = solve_fractional_muca(instance)
        assert result.objective == pytest.approx(2.0)
        assert result.item_duals[1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_auction(self):
        from repro.auctions import MUCAInstance

        result = solve_fractional_muca(MUCAInstance(np.array([2.0]), []))
        assert result.objective == 0.0


class TestDualityHelpers:
    def test_dual_objective(self, contended_instance):
        y = np.array([1.5])
        z = np.array([1.0, 0.0, 0.0])
        # sum c_e y_e = 2 * 1.5 = 3, plus z = 1.
        assert ufp_dual_objective(contended_instance, y, z) == pytest.approx(4.0)
        assert ufp_dual_objective(contended_instance, y) == pytest.approx(3.0)

    def test_dual_feasibility_check(self, contended_instance):
        # y = 5 on the single edge covers every request's value (v <= d * y).
        assert ufp_dual_is_feasible(contended_instance, np.array([5.0]))
        assert not ufp_dual_is_feasible(contended_instance, np.array([1.0]))
        # Adding z duals can restore feasibility.
        assert ufp_dual_is_feasible(
            contended_instance, np.array([1.0]), np.array([4.0, 2.0, 1.0])
        )

    def test_minimum_normalized_path_length(self, contended_instance):
        y = np.array([2.0])
        # alpha = min_r d/v * dist = 1/5 * 2 = 0.4.
        assert minimum_normalized_path_length(contended_instance, y) == pytest.approx(0.4)
        subset = minimum_normalized_path_length(contended_instance, y, request_subset={2})
        assert subset == pytest.approx(1.0)

    def test_lp_duals_are_dual_feasible(self, contended_instance):
        result = solve_fractional_ufp(contended_instance)
        # Edge duals alone need the z_r complement; with z_r chosen as the
        # positive parts of the slack they certify the optimum.
        z = np.array(
            [
                max(0.0, req.value - req.demand * float(result.capacity_duals[0]))
                for req in contended_instance.requests
            ]
        )
        assert ufp_dual_is_feasible(contended_instance, result.capacity_duals, z)
        dual_value = ufp_dual_objective(contended_instance, result.capacity_duals, z)
        assert check_weak_duality(result.objective, dual_value)

    def test_check_weak_duality(self):
        assert check_weak_duality(3.0, 3.0)
        assert check_weak_duality(2.9, 3.0)
        assert not check_weak_duality(3.1, 3.0)
