"""C shortest-path trees vs the loop and the reference oracles.

:func:`repro.graphs.shortest_path.shortest_path_tree` runs
``scipy.sparse.csgraph.dijkstra`` on graphs of at least
``C_TREE_MIN_VERTICES`` vertices and rebuilds the parents under the loop's
tie-breaking rule.  Three layers pin that this changes no bit:

* **Trees.**  On graphs above the threshold — multi-region composites,
  grids, random graphs and digraphs, with weights rounded to force exact
  ties, unreachable vertices and disabled edges — the C tree equals the
  loop's tree and :func:`reference_dijkstra` array for array.
  Parallel arcs, a zero weight and a weight absorbed by rounding fall back
  to the loop's tree.
* **Corpus.**  ``test_backend_parity.py`` replays the differential-fuzz
  corpus (UFP, repeat, MUCA, online and Dijkstra seeds) with the threshold
  at 0 (its ``scipy-*`` rows); the check here makes sure those rows really
  run C trees rather than falling back.
* **Solvers.**  ``bounded_ufp``, ``bounded_ufp_repeat``, the online auction
  and the partitioned solver on 150–400-vertex instances equal the eager
  oracles of :mod:`repro.core.reference`.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from test_differential_fuzz import (  # noqa: E402  (corpus shared with the fuzz suite)
    UFP_SEEDS,
    _assert_same_allocation,
    _ufp_instance,
)

from repro.core import bounded_ufp, bounded_ufp_repeat  # noqa: E402
from repro.core.reference import (  # noqa: E402
    reference_bounded_ufp,
    reference_bounded_ufp_repeat,
)
from repro.flows import Request, UFPInstance  # noqa: E402
from repro.graphs import CapacitatedGraph  # noqa: E402
from repro.graphs.generators import (  # noqa: E402
    grid_graph,
    multi_region_topology,
    random_digraph,
    random_graph,
)
from repro.graphs.shortest_path import (  # noqa: E402
    C_TREE_MIN_VERTICES,
    reference_dijkstra,
    shortest_path_tree,
)
from repro.online import Batch, OnlineAuction  # noqa: E402
from repro.partition import partitioned_bounded_ufp  # noqa: E402
from repro.utils.prng import ensure_rng  # noqa: E402

# repro.graphs re-exports a function named shortest_path that shadows the
# module attribute; import the module itself.
_sp = importlib.import_module("repro.graphs.shortest_path")

pytestmark = pytest.mark.fuzz


# --------------------------------------------------------------------- #
# Trees
# --------------------------------------------------------------------- #
def _graph(family: str, rng) -> CapacitatedGraph:
    if family == "composite":
        regions, cores = (5, 5) if rng.integers(2) else (10, 6)
        return multi_region_topology(regions, cores, 5, 30.0, 30.0, 15.0, seed=rng)
    if family == "grid":
        return grid_graph(12, 12, (1.0, 5.0), seed=rng)
    if family == "directed_grid":
        return grid_graph(11, 13, (1.0, 5.0), directed=True, seed=rng)
    n = int(rng.integers(140, 260))
    if family == "random":
        return random_graph(n, 3.0 / n, (1.0, 5.0), seed=rng)
    # Sparse digraph, not forced strongly connected: unreachable vertices.
    return random_digraph(n, 1.5 / n, (1.0, 5.0), seed=rng, ensure_connected=False)


def _weights(kind: str, graph: CapacitatedGraph, rng) -> np.ndarray:
    m = graph.num_edges
    if kind == "ties":
        # Small integers: equal path sums everywhere, so the parent rule
        # decides almost every vertex.
        return rng.integers(1, 4, size=m).astype(np.float64)
    if kind == "duals":
        # Dual-weight-shaped: 1/c grown by a few exponential updates.
        return np.exp(rng.uniform(0.0, 3.0, size=m)) / graph.capacities
    return rng.uniform(0.05, 10.0, size=m)


def _assert_same_tree(tree, graph, weights, source) -> None:
    loop = _sp._loop_tree(graph, weights.tolist(), source, None)
    assert tree.dist == loop.dist
    assert tree.parent_vertex == loop.parent_vertex
    assert tree.parent_edge == loop.parent_edge
    assert tree.edge_mask == sum(1 << e for e in set(loop.parent_edge) if e >= 0)
    oracle = reference_dijkstra(graph, source, weights)
    np.testing.assert_array_equal(np.asarray(tree.dist), oracle.distances)
    np.testing.assert_array_equal(np.asarray(tree.parent_vertex), oracle.parent_vertex)
    np.testing.assert_array_equal(np.asarray(tree.parent_edge), oracle.parent_edge)


FAMILIES = ["composite", "grid", "directed_grid", "random", "random_digraph"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("weights", ["uniform", "ties", "duals"])
@pytest.mark.parametrize("family", FAMILIES)
def test_c_tree_matches_loop_and_reference(family, weights, seed):
    rng = np.random.default_rng([seed, FAMILIES.index(family)])
    graph = _graph(family, rng)
    if seed % 2:
        disabled = rng.choice(graph.num_edges, size=graph.num_edges // 10, replace=False)
        graph = graph.with_disabled_edges(int(e) for e in disabled)
    assert graph.num_vertices >= C_TREE_MIN_VERTICES
    w = _weights(weights, graph, rng)
    arrays = _sp._csgraph_arrays(graph)
    assert arrays is not None
    for source in rng.choice(graph.num_vertices, size=4, replace=False).tolist():
        tree = _sp._csgraph_tree(graph, w, source, arrays)
        assert tree is not None, "the C path could not prove the loop's parents"
        _assert_same_tree(tree, graph, w, source)
        _assert_same_tree(shortest_path_tree(graph, w, source), graph, w, source)


def _big_grid_edges():
    return grid_graph(12, 12, 2.0).edge_list()


def test_parallel_arcs_fall_back_to_the_loop():
    edges = _big_grid_edges()
    edges.append(edges[7])  # a parallel edge
    graph = CapacitatedGraph(144, edges, directed=False)
    w = ensure_rng(1).uniform(0.5, 2.0, size=graph.num_edges)
    w[-1] = w[7]  # both copies cost the same: the lower edge id must win
    assert _sp._csgraph_arrays(graph) is None
    _assert_same_tree(shortest_path_tree(graph, w, 0), graph, w, 0)


def test_zero_weight_falls_back_to_the_loop():
    graph = CapacitatedGraph(144, _big_grid_edges(), directed=False)
    w = ensure_rng(2).integers(1, 3, size=graph.num_edges).astype(np.float64)
    w[[0, 5, 40]] = 0.0
    assert _sp._csgraph_tree(graph, w, 0, _sp._csgraph_arrays(graph)) is None
    _assert_same_tree(shortest_path_tree(graph, w, 0), graph, w, 0)


def test_absorbed_weight_falls_back_to_the_loop():
    """``fl(1e20 + 1) == 1e20``: an attaining arc whose tail is as far as
    its head leaves the settle order unprovable, so the loop decides."""
    graph = CapacitatedGraph(144, _big_grid_edges(), directed=False)
    w = np.full(graph.num_edges, 1.0)
    w[: graph.num_edges // 2] = 1e20
    assert _sp._csgraph_tree(graph, w, 0, _sp._csgraph_arrays(graph)) is None
    _assert_same_tree(shortest_path_tree(graph, w, 0), graph, w, 0)


def test_small_graphs_stay_on_the_loop(monkeypatch):
    def fail(*args):
        raise AssertionError("a C tree on a graph below the threshold")

    monkeypatch.setattr(_sp, "_csgraph_tree", fail)
    graph = grid_graph(9, 9, 2.0)
    assert graph.num_vertices < C_TREE_MIN_VERTICES
    w = ensure_rng(3).uniform(0.5, 2.0, size=graph.num_edges)
    _assert_same_tree(shortest_path_tree(graph, w, 5), graph, w, 5)


# --------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------- #
def test_threshold_zero_runs_the_corpus_on_c_trees(monkeypatch):
    """With the threshold at 0 (as in ``test_backend_parity``'s ``scipy``
    rows) the corpus solvers build their trees on the C path."""
    monkeypatch.setattr(_sp, "C_TREE_MIN_VERTICES", 0)
    outcomes = {"c": 0, "loop": 0}
    real = _sp._csgraph_tree

    def counting(*args):
        tree = real(*args)
        outcomes["c" if tree is not None else "loop"] += 1
        return tree

    monkeypatch.setattr(_sp, "_csgraph_tree", counting)
    for seed in UFP_SEEDS[:10]:
        bounded_ufp(_ufp_instance(seed), [0.3, 0.5, 1.0][seed % 3])
    assert outcomes["c"] > 100
    assert outcomes["loop"] == 0


# --------------------------------------------------------------------- #
# Solvers on large instances
# --------------------------------------------------------------------- #
def _large_instance(seed: int, num_requests: int, num_sources: int) -> UFPInstance:
    """150–400 vertices; requests from a few sources keep the eager
    reference (one tree per source per iteration) affordable."""
    rng = np.random.default_rng([seed, 7])
    shape = seed % 3
    # Capacities of 15 and up: with eps = 0.5 the dual budget starts below
    # its limit exp(eps (B - 1)) even with a few hundred edges.
    if shape == 0:
        graph = multi_region_topology(5, 5, 5, 30.0, 30.0, 15.0, seed=rng)
    elif shape == 1:
        graph = multi_region_topology(10, 6, 5, 30.0, 30.0, 15.0, seed=rng)
    else:
        n = int(rng.integers(160, 260))
        graph = random_graph(n, 3.0 / n, (15.0, 30.0), seed=rng)
    n = graph.num_vertices
    sources = rng.choice(n, size=num_sources, replace=False)
    requests = []
    for _ in range(num_requests):
        source = int(rng.choice(sources))
        target = int(rng.integers(n - 1))
        target += target >= source
        requests.append(
            Request(
                source,
                target,
                demand=float(rng.uniform(0.2, 1.0)),
                value=float(rng.uniform(0.5, 2.0)),
            )
        )
    return UFPInstance(graph, requests)


@pytest.mark.parametrize("seed", range(6))
def test_bounded_ufp_matches_reference_on_large_graphs(seed):
    instance = _large_instance(seed, num_requests=150, num_sources=5)
    assert 150 <= instance.graph.num_vertices <= 400
    expected = reference_bounded_ufp(instance, 0.5)
    assert expected.num_selected
    _assert_same_allocation(bounded_ufp(instance, 0.5), expected)


@pytest.mark.parametrize("seed", range(2))
def test_bounded_ufp_repeat_matches_reference_on_large_graphs(seed):
    instance = _large_instance(seed, num_requests=6, num_sources=2)
    _assert_same_allocation(
        bounded_ufp_repeat(instance, 1.0),
        reference_bounded_ufp_repeat(instance, 1.0),
    )


@pytest.mark.parametrize("seed", range(2))
def test_online_single_batch_matches_reference_on_large_graphs(seed):
    instance = _large_instance(seed + 1, num_requests=60, num_sources=3)
    auction = OnlineAuction(instance.graph, 0.5)
    online = auction.run(iter([Batch(time=0.0, requests=instance.requests)]))
    _assert_same_allocation(online, reference_bounded_ufp(instance, 0.5))


@pytest.mark.parametrize("seed", range(2))
def test_partitioned_single_region_matches_reference_on_large_graphs(seed):
    instance = _large_instance(seed + 2, num_requests=60, num_sources=3)
    _assert_same_allocation(
        partitioned_bounded_ufp(instance, 0.5, partition=1),
        reference_bounded_ufp(instance, 0.5),
    )
