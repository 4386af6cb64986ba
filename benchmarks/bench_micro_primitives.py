"""Micro-benchmarks of the hot primitives underneath the experiments.

These are not tied to a paper artifact; they document the cost of the
building blocks (Dijkstra pricing, one Bounded-UFP run, one BKV-style
baseline run, the edge-flow and auction LPs, critical-value payment
computation) so regressions in the substrates are visible independently of
the experiment sweeps.

The ``test_bench_tree_path`` rows time one shortest-path tree on the
Python loop and on the C path, on a 64-vertex grid and on the 360-vertex
ISP composite: the pair on either side of the size threshold of
:func:`repro.graphs.shortest_path.shortest_path_tree`.  Record them with::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_primitives.py -q \
        -k tree_path --benchmark-json=benchmarks/BENCH_KERNELS.json

The committed ``benchmarks/BENCH_KERNELS.json`` documents them on the
reference machine.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest

from repro.core import bounded_muca, bounded_ufp
from repro.flows import random_instance
from repro.auctions import random_auction
from repro.baselines import briest_style_ufp
from repro.graphs import grid_graph, random_digraph, single_source_dijkstra
from repro.graphs.generators import multi_region_topology
from repro.lp import solve_fractional_muca, solve_fractional_ufp
from repro.mechanism import compute_ufp_payments


# repro.graphs re-exports a function named shortest_path that shadows the
# module attribute; import the module itself.
_sp = importlib.import_module("repro.graphs.shortest_path")


@pytest.fixture(scope="module")
def medium_instance():
    return random_instance(
        num_vertices=20, edge_probability=0.2, capacity=50.0,
        num_requests=80, demand_range=(0.3, 1.0), seed=13,
    )


@pytest.fixture(scope="module")
def medium_auction():
    return random_auction(
        num_items=30, num_bids=200, multiplicity=40.0, bundle_size_range=(1, 5), seed=13
    )


def test_bench_dijkstra_pricing(benchmark):
    """One shortest-path tree on a 300-vertex random digraph."""
    graph = random_digraph(300, 0.03, 10.0, seed=5)
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.01, 1.0, size=graph.num_edges)
    result = benchmark(lambda: single_source_dijkstra(graph, 0, weights))
    assert result.distance(0) == 0.0


def test_bench_bounded_ufp_medium(benchmark, medium_instance):
    """A full Bounded-UFP run on an 80-request instance."""
    allocation = benchmark(lambda: bounded_ufp(medium_instance, 0.3))
    assert allocation.is_feasible()


def test_bench_bounded_muca_medium(benchmark, medium_auction):
    """A full Bounded-MUCA run on a 200-bid auction."""
    allocation = benchmark(lambda: bounded_muca(medium_auction, 0.3))
    assert allocation.is_feasible()


def test_bench_fractional_lp(benchmark, medium_instance):
    """The edge-flow LP relaxation of the 80-request instance."""
    result = benchmark(lambda: solve_fractional_ufp(medium_instance))
    assert result.objective > 0.0


def test_bench_fractional_muca(benchmark, medium_auction):
    """The fractional relaxation of the 200-bid auction."""
    result = benchmark(lambda: solve_fractional_muca(medium_auction))
    assert result.objective > 0.0


def test_bench_briest_style_ufp_medium(benchmark, medium_instance):
    """A full BKV-style baseline run on the 80-request instance."""
    allocation = benchmark(lambda: briest_style_ufp(medium_instance, 0.3))
    assert allocation.is_feasible()


def _tree_graph(size):
    if size == "grid64":
        return grid_graph(8, 8, (1.0, 5.0), seed=5)
    # The isp_clearing workload's 360-vertex, 10-region composite.
    return multi_region_topology(10, 6, 5, 30.0, 30.0, 15.0, seed=5)


@pytest.mark.parametrize("path", ["loop", "c_tree"])
@pytest.mark.parametrize("size", ["grid64", "isp360"])
def test_bench_tree_path(benchmark, monkeypatch, size, path):
    """One shortest-path tree through ``shortest_path_tree``, forced onto
    the Python loop or the C path, on either side of the vertex threshold.

    Dual-shaped weights (``1/c`` grown by a few exponential updates).  The
    rows set :data:`~repro.graphs.shortest_path.C_TREE_MIN_VERTICES`: the
    loop must win on the 64-vertex grid and the C tree on the ISP composite.
    One warm-up call outside the timed region builds the per-graph CSR
    caches, as the first tree of a real run does."""
    graph = _tree_graph(size)
    rng = np.random.default_rng(5)
    weights = np.exp(rng.uniform(0.0, 2.0, size=graph.num_edges)) / graph.capacities
    threshold = sys.maxsize if path == "loop" else 0
    monkeypatch.setattr(_sp, "C_TREE_MIN_VERTICES", threshold)
    _sp.shortest_path_tree(graph, weights, 0)  # warm-up
    tree = benchmark(lambda: _sp.shortest_path_tree(graph, weights, 0))
    assert tree.dist[0] == 0.0


def test_bench_critical_value_payments(benchmark, jobs):
    """Critical-value payments for the winners of a 15-request instance.

    Honors ``--jobs N``: the per-winner bisections fan out over a process
    pool with byte-identical payments (see ``repro.parallel``)."""
    instance = random_instance(
        num_vertices=8, edge_probability=0.4, capacity=10.0,
        num_requests=15, demand_range=(0.4, 1.0), seed=3,
    )

    def run():
        allocation = bounded_ufp(instance, 0.4)
        return compute_ufp_payments(
            lambda declared: bounded_ufp(declared, 0.4),
            instance,
            allocation,
            jobs=jobs,
        )

    payments = benchmark(run)
    assert np.all(payments >= 0.0)
