"""Unit and differential tests for :mod:`repro.graphs.shortest_path`."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError
from repro.graphs import (
    CapacitatedGraph,
    bellman_ford,
    random_digraph,
    random_graph,
    reference_dijkstra,
    shortest_path,
    single_source_dijkstra,
    to_networkx,
)


class TestDijkstraBasics:
    def test_trivial_source_distance(self, diamond_graph):
        result = single_source_dijkstra(diamond_graph, 0, np.ones(5))
        assert result.distance(0) == 0.0
        assert result.source == 0

    def test_shortest_path_prefers_cheap_edge(self, diamond_graph):
        # With unit weights the direct 0 -> 3 edge (1 hop) wins.
        vertices, edges, length = shortest_path(diamond_graph, 0, 3, np.ones(5))
        assert vertices == (0, 3)
        assert edges == (4,)
        assert length == 1.0

    def test_shortest_path_respects_weights(self, diamond_graph):
        # Make the direct edge expensive; the path through vertex 1 is
        # 0.1 + 0.1 = 0.2, cheaper than the 5.0 shortcut.
        weights = np.array([0.1, 0.3, 0.1, 0.3, 5.0])
        vertices, edges, length = shortest_path(diamond_graph, 0, 3, weights)
        assert vertices == (0, 1, 3)
        assert edges == (0, 2)
        assert length == pytest.approx(0.2)

    def test_unreachable_raises(self):
        graph = CapacitatedGraph(3, [(0, 1, 1.0)], directed=True)
        with pytest.raises(NoPathError):
            shortest_path(graph, 0, 2, np.ones(1))

    def test_directed_edges_are_one_way(self):
        graph = CapacitatedGraph(2, [(0, 1, 1.0)], directed=True)
        with pytest.raises(NoPathError):
            shortest_path(graph, 1, 0, np.ones(1))

    def test_undirected_edges_are_two_way(self):
        graph = CapacitatedGraph(2, [(0, 1, 1.0)], directed=False)
        vertices, _, _ = shortest_path(graph, 1, 0, np.ones(1))
        assert vertices == (1, 0)

    def test_rejects_negative_weights(self, diamond_graph):
        with pytest.raises(ValueError):
            single_source_dijkstra(diamond_graph, 0, np.array([1, 1, 1, -1, 1], dtype=float))

    def test_rejects_wrong_weight_shape(self, diamond_graph):
        with pytest.raises(ValueError):
            single_source_dijkstra(diamond_graph, 0, np.ones(3))

    def test_rejects_bad_source(self, diamond_graph):
        with pytest.raises(ValueError):
            single_source_dijkstra(diamond_graph, 9, np.ones(5))

    def test_zero_weights_allowed(self, diamond_graph):
        result = single_source_dijkstra(diamond_graph, 0, np.zeros(5))
        assert result.distance(3) == 0.0

    def test_early_exit_targets(self, diamond_graph):
        result = single_source_dijkstra(diamond_graph, 0, np.ones(5), targets={3})
        assert result.reachable(3)
        vertices, edges = result.path_to(3)
        assert vertices[0] == 0 and vertices[-1] == 3

    def test_early_exit_makes_only_the_targets_exact(self):
        """The search stops once vertex 1 settles; vertex 2 keeps the
        tentative distance 5 of the direct edge although 0-1-2 costs 2."""
        graph = CapacitatedGraph(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], directed=False
        )
        weights = np.array([1.0, 5.0, 1.0])
        full = single_source_dijkstra(graph, 0, weights)
        assert full.distance(2) == 2.0
        for run in (single_source_dijkstra, reference_dijkstra):
            early = run(graph, 0, weights, targets={1})
            assert early.distance(1) == full.distance(1) == 1.0
            assert early.path_to(1) == full.path_to(1) == ((0, 1), (0,))
            assert early.distance(2) == 5.0
            assert early.path_to(2) == ((0, 2), (1,))

    def test_path_to_unreachable_raises(self):
        graph = CapacitatedGraph(3, [(0, 1, 1.0)], directed=True)
        result = single_source_dijkstra(graph, 0, np.ones(1))
        with pytest.raises(NoPathError):
            result.path_to(2)


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_networkx_on_random_graphs(self, seed, directed):
        if directed:
            graph = random_digraph(12, 0.3, (1.0, 5.0), seed=seed)
        else:
            graph = random_graph(12, 0.3, (1.0, 5.0), seed=seed)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 3.0, size=graph.num_edges)

        nxg = to_networkx(graph)
        for _, _, data in nxg.edges(data=True):
            data["weight"] = float(weights[data["edge_id"]])

        result = single_source_dijkstra(graph, 0, weights)
        nx_lengths = nx.single_source_dijkstra_path_length(nxg, 0, weight="weight")
        for v in range(graph.num_vertices):
            if v in nx_lengths:
                assert result.distance(v) == pytest.approx(nx_lengths[v], rel=1e-9)
            else:
                assert not result.reachable(v)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_dijkstra_matches_bellman_ford(self, seed):
        graph = random_digraph(10, 0.35, 3.0, seed=seed)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 2.0, size=graph.num_edges)
        dj = single_source_dijkstra(graph, 2, weights)
        bf = bellman_ford(graph, 2, weights)
        np.testing.assert_allclose(dj.distances, bf.distances, rtol=1e-9, atol=1e-12)

    def test_returned_path_length_matches_distance(self, diamond_graph):
        weights = np.array([0.5, 0.2, 0.9, 0.1, 2.0])
        result = single_source_dijkstra(diamond_graph, 0, weights)
        vertices, edges = result.path_to(3)
        assert sum(weights[e] for e in edges) == pytest.approx(result.distance(3))
        # Path endpoints and contiguity.
        assert vertices[0] == 0 and vertices[-1] == 3
        assert len(edges) == len(vertices) - 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_triangle_inequality(seed):
    """Shortest-path distances obey the triangle inequality over any edge."""
    graph = random_digraph(8, 0.4, 2.0, seed=seed)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.05, 1.0, size=graph.num_edges)
    result = single_source_dijkstra(graph, 0, weights)
    for edge in graph.edges():
        du, dv = result.distance(edge.tail), result.distance(edge.head)
        if np.isfinite(du):
            assert dv <= du + weights[edge.edge_id] + 1e-9
