"""Capacitated graph substrate.

This package provides the edge-capacitated graph model used by every
unsplittable-flow component of the library:

* :class:`repro.graphs.graph.CapacitatedGraph` — a CSR-backed directed or
  undirected capacitated graph whose per-edge state lives in flat numpy
  arrays (capacities, dual weights, loads), so that the primal-dual inner
  loops never touch per-edge Python objects.
* :mod:`repro.graphs.shortest_path` — Dijkstra / Bellman-Ford under mutable
  edge weights, with a reusable single-source form for requests that share a
  source vertex.
* :mod:`repro.graphs.generators` — random and structured topologies
  (Erdős–Rényi-style random digraphs, grids, ISP-like two-level topologies).
* :mod:`repro.graphs.lower_bounds` — the adversarial constructions of the
  paper: the directed staircase of Figure 2 and the undirected 7-vertex
  ring of Figure 3.
"""

from repro.graphs.graph import CapacitatedGraph, EdgeView
from repro.graphs.paths import (
    path_edge_ids,
    path_length,
    is_simple_path,
    validate_path,
)
from repro.graphs.shortest_path import (
    ShortestPathResult,
    single_source_dijkstra,
    reference_dijkstra,
    shortest_path,
    bellman_ford,
)
from repro.graphs.generators import (
    random_digraph,
    random_graph,
    grid_graph,
    ring_graph,
    isp_topology,
    fat_tree_topology,
    fat_tree_host_range,
    waxman_graph,
    barabasi_albert_graph,
    multi_region_topology,
    multi_region_leaves,
    from_networkx,
    to_networkx,
)
from repro.graphs.partition import (
    GraphPartition,
    single_region_partition,
    multi_region_partition,
    bfs_partition,
)
from repro.graphs.lower_bounds import (
    directed_staircase,
    undirected_ring7,
    staircase_optimal_value,
    ring7_optimal_value,
)

__all__ = [
    "CapacitatedGraph",
    "EdgeView",
    "path_edge_ids",
    "path_length",
    "is_simple_path",
    "validate_path",
    "ShortestPathResult",
    "single_source_dijkstra",
    "reference_dijkstra",
    "shortest_path",
    "bellman_ford",
    "random_digraph",
    "random_graph",
    "grid_graph",
    "ring_graph",
    "isp_topology",
    "fat_tree_topology",
    "fat_tree_host_range",
    "waxman_graph",
    "barabasi_albert_graph",
    "multi_region_topology",
    "multi_region_leaves",
    "from_networkx",
    "to_networkx",
    "GraphPartition",
    "single_region_partition",
    "multi_region_partition",
    "bfs_partition",
    "directed_staircase",
    "undirected_ring7",
    "staircase_optimal_value",
    "ring7_optimal_value",
]
