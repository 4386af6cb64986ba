"""Unit tests for :mod:`repro.graphs.graph`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidInstanceError
from repro.graphs import CapacitatedGraph
from repro.types import Direction


class TestConstruction:
    def test_basic_directed(self, diamond_graph):
        assert diamond_graph.num_vertices == 4
        assert diamond_graph.num_edges == 5
        assert diamond_graph.directed
        assert diamond_graph.direction is Direction.DIRECTED

    def test_basic_undirected(self, parallel_paths_graph):
        assert parallel_paths_graph.num_vertices == 4
        assert parallel_paths_graph.num_edges == 4
        assert not parallel_paths_graph.directed
        assert parallel_paths_graph.direction is Direction.UNDIRECTED

    def test_min_and_max_capacity(self, diamond_graph):
        assert diamond_graph.min_capacity == 1.0
        assert diamond_graph.max_capacity == 3.0

    def test_rejects_zero_vertices(self):
        with pytest.raises(InvalidInstanceError):
            CapacitatedGraph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstanceError):
            CapacitatedGraph(2, [(0, 0, 1.0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(InvalidInstanceError):
            CapacitatedGraph(2, [(0, 5, 1.0)])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InvalidInstanceError):
            CapacitatedGraph(2, [(0, 1, 0.0)])
        with pytest.raises(InvalidInstanceError):
            CapacitatedGraph(2, [(0, 1, -2.0)])
        with pytest.raises(InvalidInstanceError):
            CapacitatedGraph(2, [(0, 1, float("nan"))])

    def test_min_capacity_undefined_for_empty_edge_set(self):
        graph = CapacitatedGraph(3, [])
        with pytest.raises(InvalidInstanceError):
            _ = graph.min_capacity

    def test_parallel_edges_get_distinct_ids(self):
        graph = CapacitatedGraph(2, [(0, 1, 1.0), (0, 1, 2.0)], directed=True)
        assert graph.num_edges == 2
        assert set(graph.edge_ids_between(0, 1)) == {0, 1}


class TestAdjacency:
    def test_out_arcs_directed(self, diamond_graph):
        heads, edge_ids = diamond_graph.out_arcs(0)
        assert sorted(int(h) for h in heads) == [1, 2, 3]
        assert sorted(int(e) for e in edge_ids) == [0, 1, 4]
        assert diamond_graph.out_degree(0) == 3
        assert diamond_graph.out_degree(3) == 0

    def test_out_arcs_undirected_bidirectional(self, parallel_paths_graph):
        heads, _ = parallel_paths_graph.out_arcs(1)
        assert sorted(int(h) for h in heads) == [0, 3]
        # Vertex 3 can also reach vertex 1 through the same edge.
        heads3, _ = parallel_paths_graph.out_arcs(3)
        assert 1 in [int(h) for h in heads3]

    def test_edge_endpoints_and_capacity(self, diamond_graph):
        assert diamond_graph.edge_endpoints(4) == (0, 3)
        assert diamond_graph.edge_capacity(4) == 1.0

    def test_edge_ids_between_orientation(self, diamond_graph):
        assert diamond_graph.edge_ids_between(0, 1) == (0,)
        assert diamond_graph.edge_ids_between(1, 0) == ()

    def test_edge_ids_between_undirected_symmetric(self, parallel_paths_graph):
        assert parallel_paths_graph.edge_ids_between(0, 1) == (0,)
        assert parallel_paths_graph.edge_ids_between(1, 0) == (0,)

    def test_has_edge(self, diamond_graph):
        assert diamond_graph.has_edge(0, 3)
        assert not diamond_graph.has_edge(3, 0)

    def test_edges_iterator_matches_edge_list(self, diamond_graph):
        views = list(diamond_graph.edges())
        assert len(views) == diamond_graph.num_edges
        assert [v.endpoints() for v in views] == [
            (u, w) for u, w, _ in diamond_graph.edge_list()
        ]
        assert views[0].edge_id == 0

    def test_capacities_array_is_readonly(self, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.capacities[0] = 99.0

    def test_endpoint_arrays_match_edges_and_are_readonly(self, diamond_graph):
        pairs = [diamond_graph.edge_endpoints(e) for e in range(diamond_graph.num_edges)]
        assert list(zip(diamond_graph.tails.tolist(), diamond_graph.heads.tolist())) == pairs
        with pytest.raises(ValueError):
            diamond_graph.tails[0] = 3
        with pytest.raises(ValueError):
            diamond_graph.heads[0] = 3

    def test_csr_indptr_consistency(self, diamond_graph):
        indptr = diamond_graph.indptr
        assert indptr[0] == 0
        assert indptr[-1] == diamond_graph.adjacency_heads.shape[0]
        assert np.all(np.diff(indptr) >= 0)


class TestDerivedGraphs:
    def test_with_capacities(self, diamond_graph):
        new = diamond_graph.with_capacities([5, 5, 5, 5, 5])
        assert new.min_capacity == 5.0
        assert new.num_edges == diamond_graph.num_edges
        # Original untouched.
        assert diamond_graph.min_capacity == 1.0

    def test_with_capacities_wrong_shape(self, diamond_graph):
        with pytest.raises(InvalidInstanceError):
            diamond_graph.with_capacities([1.0, 2.0])

    def test_scaled(self, diamond_graph):
        doubled = diamond_graph.scaled(2.0)
        assert doubled.min_capacity == 2.0
        assert doubled.max_capacity == 6.0

    def test_scaled_rejects_nonpositive(self, diamond_graph):
        with pytest.raises(InvalidInstanceError):
            diamond_graph.scaled(0.0)

    def test_equality(self, diamond_graph):
        clone = CapacitatedGraph(4, diamond_graph.edge_list(), directed=True)
        assert clone == diamond_graph
        assert clone != diamond_graph.scaled(2.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=11),
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        ),
        max_size=30,
    ),
    directed=st.booleans(),
)
def test_property_construction_invariants(n, edges, directed):
    """Any accepted edge list yields a graph whose CSR structure is coherent."""
    valid_edges = [(u % n, v % n, c) for u, v, c in edges if u % n != v % n]
    graph = CapacitatedGraph(n, valid_edges, directed=directed)
    assert graph.num_edges == len(valid_edges)
    # The CSR arc table contains each logical edge once (directed) or twice
    # (undirected), and every arc's edge id is valid.
    expected_arcs = len(valid_edges) if directed else 2 * len(valid_edges)
    assert graph.adjacency_heads.shape[0] == expected_arcs
    if valid_edges:
        assert int(graph.adjacency_edge_ids.max()) < graph.num_edges
    total_out_degree = sum(graph.out_degree(v) for v in range(n))
    assert total_out_degree == expected_arcs


class TestDisabledEdges:
    """Substrate faults: disabled edges keep their id and capacity but
    contribute no arcs to the routing adjacency (see repro.faults)."""

    def _triangle(self, directed=True, disabled=()):
        return CapacitatedGraph(
            3,
            [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 5.0)],
            directed=directed,
            disabled_edges=disabled,
        )

    def test_disabled_edges_property(self):
        graph = self._triangle(disabled=[1])
        assert graph.disabled_edges == frozenset({1})
        assert self._triangle().disabled_edges == frozenset()

    def test_disabled_edge_keeps_id_and_capacity(self):
        graph = self._triangle(disabled=[1])
        assert graph.num_edges == 3
        assert graph.edge_endpoints(1) == (1, 2)
        assert graph.edge_capacity(1) == 3.0
        np.testing.assert_allclose(graph.capacities, [2.0, 3.0, 5.0])

    def test_disabled_edge_drops_arcs_directed(self):
        graph = self._triangle(disabled=[0])
        heads, edge_ids = graph.out_arcs(0)
        assert [int(h) for h in heads] == [2]
        assert [int(e) for e in edge_ids] == [2]
        assert graph.out_degree(0) == 1

    def test_disabled_edge_drops_both_arcs_undirected(self):
        graph = self._triangle(directed=False, disabled=[1])
        assert 2 not in [int(h) for h in graph.out_arcs(1)[0]]
        assert 1 not in [int(h) for h in graph.out_arcs(2)[0]]

    def test_with_disabled_edges_replaces_the_set(self):
        graph = self._triangle(disabled=[0])
        cut_more = graph.with_disabled_edges([0, 2])
        assert cut_more.disabled_edges == frozenset({0, 2})
        healed = cut_more.with_disabled_edges(())
        assert healed.disabled_edges == frozenset()
        assert healed == self._triangle()

    def test_with_capacities_inherits_or_replaces_disabled(self):
        graph = self._triangle(disabled=[1])
        resized = graph.with_capacities([2.0, 3.0, 9.0])
        assert resized.disabled_edges == frozenset({1})
        replaced = graph.with_capacities([2.0, 3.0, 9.0], disabled_edges=[2])
        assert replaced.disabled_edges == frozenset({2})

    def test_out_of_range_disabled_id_rejected(self):
        with pytest.raises(InvalidInstanceError, match="out of range"):
            self._triangle(disabled=[3])
        with pytest.raises(InvalidInstanceError, match="out of range"):
            self._triangle(disabled=[-1])

    def test_equality_includes_disabled_set(self):
        assert self._triangle(disabled=[1]) != self._triangle()
        assert self._triangle(disabled=[1]) == self._triangle(disabled=[1])

    def test_disabled_edges_excluded_from_bellman_ford_arcs(self):
        graph = self._triangle(disabled=[1])
        arcs = graph.bellman_ford_arcs()
        assert all(eid != 1 for _, _, eid in arcs)
