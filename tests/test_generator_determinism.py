"""Regression tests for the generator determinism contract.

Every stochastic generator accepts ``seed`` as an ``int``, a shared
:class:`numpy.random.Generator`, or ``None`` (fixed default), and the same
seed must reproduce the identical object bit for bit — experiments, the
differential fuzz sweep and the arrival processes all rely on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.auctions import correlated_auction, random_auction
from repro.flows import (
    hotspot_instance,
    isp_instance,
    random_instance,
    random_requests,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    fat_tree_topology,
    grid_graph,
    isp_topology,
    multi_region_topology,
    random_digraph,
    random_graph,
    ring_graph,
    waxman_graph,
)
from repro.online import bursty_arrivals, poisson_arrivals
from repro.utils.prng import DEFAULT_SEED, ensure_rng


def _same_graph(a, b) -> bool:
    return (
        a.num_vertices == b.num_vertices
        and a.directed == b.directed
        and a.edge_list() == b.edge_list()
    )


def _same_requests(a, b) -> bool:
    return [(r.source, r.target, r.demand, r.value, r.name) for r in a] == [
        (r.source, r.target, r.demand, r.value, r.name) for r in b
    ]


def _same_instance(a, b) -> bool:
    return _same_graph(a.graph, b.graph) and _same_requests(a.requests, b.requests)


GRAPH_BUILDERS = {
    "random_digraph": lambda seed: random_digraph(10, 0.3, (2.0, 9.0), seed=seed),
    "random_graph": lambda seed: random_graph(10, 0.3, (2.0, 9.0), seed=seed),
    "grid_graph": lambda seed: grid_graph(3, 4, (1.0, 5.0), seed=seed),
    "ring_graph": lambda seed: ring_graph(6, (1.0, 5.0), seed=seed),
    "isp_topology": lambda seed: isp_topology(3, 2, 20.0, 10.0, seed=seed),
    "fat_tree_topology": lambda seed: fat_tree_topology(
        4, (8.0, 16.0), (4.0, 8.0), (2.0, 4.0), seed=seed
    ),
    "waxman_graph": lambda seed: waxman_graph(14, (1.0, 5.0), seed=seed),
    "barabasi_albert_graph": lambda seed: barabasi_albert_graph(
        15, 2, (1.0, 5.0), seed=seed
    ),
    "multi_region_topology": lambda seed: multi_region_topology(
        3, 3, 2, (12.0, 16.0), (6.0, 9.0), (2.0, 4.0), seed=seed
    ),
}

INSTANCE_BUILDERS = {
    "random_instance": lambda seed: random_instance(
        num_vertices=9, num_requests=15, seed=seed
    ),
    "hotspot_instance": lambda seed: hotspot_instance(
        num_vertices=10, num_requests=12, seed=seed
    ),
    "isp_instance": lambda seed: isp_instance(num_requests=14, seed=seed),
}

AUCTION_BUILDERS = {
    "random_auction": lambda seed: random_auction(
        num_items=8, num_bids=15, multiplicity=(4.0, 9.0), seed=seed
    ),
    "correlated_auction": lambda seed: correlated_auction(
        num_items=8, num_bids=15, seed=seed
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPH_BUILDERS))
def test_graph_generators_reproduce_per_seed(name):
    build = GRAPH_BUILDERS[name]
    assert _same_graph(build(123), build(123))
    # An int seed and a Generator constructed from it are interchangeable.
    assert _same_graph(build(123), build(np.random.default_rng(123)))
    # None means the fixed library default, not nondeterminism.
    assert _same_graph(build(None), build(DEFAULT_SEED))


@pytest.mark.parametrize("name", sorted(INSTANCE_BUILDERS))
def test_instance_generators_reproduce_per_seed(name):
    build = INSTANCE_BUILDERS[name]
    assert _same_instance(build(321), build(321))
    assert _same_instance(build(321), build(np.random.default_rng(321)))
    assert _same_instance(build(None), build(DEFAULT_SEED))


@pytest.mark.parametrize("name", sorted(AUCTION_BUILDERS))
def test_auction_generators_reproduce_per_seed(name):
    build = AUCTION_BUILDERS[name]
    a, b = build(77), build(77)
    assert np.array_equal(a.multiplicities, b.multiplicities)
    assert [(x.bundle, x.value, x.name) for x in a.bids] == [
        (x.bundle, x.value, x.name) for x in b.bids
    ]
    c = build(np.random.default_rng(77))
    assert [(x.bundle, x.value) for x in a.bids] == [(x.bundle, x.value) for x in c.bids]


def test_shared_generator_threads_one_deterministic_stream():
    """Passing one Generator through several generators consumes it in
    sequence, and the whole composite is reproducible from the single seed."""

    def composite(seed):
        rng = ensure_rng(seed)
        graph = random_digraph(8, 0.3, (2.0, 8.0), seed=rng)
        requests = random_requests(graph, 10, seed=rng)
        auction = random_auction(num_items=5, num_bids=8, seed=rng)
        return graph, requests, auction

    g1, r1, a1 = composite(9)
    g2, r2, a2 = composite(9)
    assert _same_graph(g1, g2)
    assert _same_requests(r1, r2)
    assert [(x.bundle, x.value) for x in a1.bids] == [
        (x.bundle, x.value) for x in a2.bids
    ]
    # The graph draw must have advanced the stream: a fresh generator at the
    # request stage would produce different requests.
    _, r_fresh, _ = composite(9)
    fresh_requests = random_requests(g1, 10, seed=9)
    assert not _same_requests(r_fresh, fresh_requests)


CONSTANT_CAPACITY_BUILDERS = {
    "ring_graph": lambda seed: ring_graph(6, 5.0, seed=seed),
    "grid_graph": lambda seed: grid_graph(3, 4, 5.0, seed=seed),
    "fat_tree_topology": lambda seed: fat_tree_topology(4, 8.0, 4.0, 2.0, seed=seed),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_CAPACITY_BUILDERS))
def test_constant_capacity_generators_pass_rng_through(name):
    """Deterministic-topology generators with constant capacities consume no
    randomness: a shared Generator passes through unperturbed (the
    documented ring_graph contract, extended to the new families)."""
    build = CONSTANT_CAPACITY_BUILDERS[name]
    rng = np.random.default_rng(31)
    build(rng)
    untouched = np.random.default_rng(31)
    assert rng.integers(0, 2**31) == untouched.integers(0, 2**31)


@pytest.mark.parametrize("family", ["waxman", "fat_tree"])
def test_backend_parity_on_new_topologies(family):
    """Loop trees and C trees must produce bit-identical Bounded-UFP
    allocations on the new topology families."""
    from compute_paths import tree_path

    from repro.core import bounded_ufp
    from repro.flows import UFPInstance

    if family == "waxman":
        graph = waxman_graph(16, 12.0, seed=21)
        terminals = None
    else:
        graph = fat_tree_topology(4, 48.0, 24.0, 12.0, seed=21)
        from repro.graphs import fat_tree_host_range

        terminals = list(fat_tree_host_range(4))
    requests = random_requests(
        graph, 40, seed=22, sources=terminals, targets=terminals
    )
    allocations = {}
    for backend in ("lists", "scipy"):
        # A fresh graph per run, so the first run's tree memo cannot serve
        # the second.
        instance = UFPInstance(graph.scaled(1.0), requests, name=f"parity-{family}")
        with tree_path(backend):
            allocation = bounded_ufp(instance, 0.4)
        allocations[backend] = [
            (item.request_index, tuple(item.vertices)) for item in allocation.routed
        ]
    assert allocations["lists"] == allocations["scipy"]


def test_arrival_processes_reproduce_per_seed():
    instance = random_instance(num_vertices=8, num_requests=20, seed=6)
    p1 = [(b.time, b.requests) for b in poisson_arrivals(instance.requests, seed=4)]
    p2 = [(b.time, b.requests) for b in poisson_arrivals(instance.requests, seed=4)]
    assert p1 == p2
    b1 = [b.requests for b in bursty_arrivals(instance.requests, burst_size=5, shuffle=True, seed=4)]
    b2 = [b.requests for b in bursty_arrivals(instance.requests, burst_size=5, shuffle=True, seed=4)]
    assert b1 == b2
