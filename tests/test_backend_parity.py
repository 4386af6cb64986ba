"""Parity matrix: tree path × commit path vs the all-oracle reference.

Two parts of the compute path have a second implementation kept as an
oracle (see ``compute_paths.py``): shortest-path trees (``lists``, the
Python loop, or ``scipy``, C trees with the threshold at 0 so even the
small corpus graphs take them) and the path engine's tree-cache eviction
(``lists``, the oracle that reads each tree's parent-edge array, or
``numpy``, the production ``edge_mask`` probe).  This suite replays the
differential-fuzz corpus (the same pinned-seed instance distribution as
``test_differential_fuzz``) once per combination and compares every run
exactly against the memoized ``(lists, lists)`` reference.  Instances are
rebuilt from the seed for each combination so the per-graph tree memo of
one run cannot mask divergence in another.
"""

from __future__ import annotations

import numpy as np
import pytest

from compute_paths import COMMIT_PATHS, TREE_PATHS, compute_path
from test_differential_fuzz import (  # noqa: E402  (corpus shared with the fuzz suite)
    DIJKSTRA_SEEDS,
    MUCA_SEEDS,
    ONLINE_CASES,
    REPEAT_CASES,
    UFP_CASES,
    _assert_same_allocation,
    _ufp_instance,
)

from repro.auctions import correlated_auction, random_auction  # noqa: E402
from repro.core import bounded_muca, bounded_ufp, bounded_ufp_repeat  # noqa: E402
from repro.graphs.generators import random_digraph, random_graph  # noqa: E402
from repro.graphs.shortest_path import single_source_dijkstra  # noqa: E402
from repro.online import Batch, OnlineAuction  # noqa: E402
from repro.utils.prng import ensure_rng  # noqa: E402

pytestmark = pytest.mark.fuzz

REFERENCE = ("lists", "lists")
COMBOS = [
    pytest.param((trees, commit), id=f"{trees}-{commit}")
    for trees in TREE_PATHS
    for commit in COMMIT_PATHS
    if (trees, commit) != REFERENCE
]


# One memoized reference result per (family, seed): the reference run is
# shared by every combination of that seed instead of recomputed per combo
# (seeds are the outer parametrize, so a seed's combos run back to back).
_REFERENCE_CACHE: dict = {}


def _run_combo(family, seed, combo, make_instance, solve):
    key = (family, seed)
    expected = _REFERENCE_CACHE.get(key)
    if expected is None:
        with compute_path(*REFERENCE):
            expected = _REFERENCE_CACHE[key] = solve(make_instance())
    with compute_path(*combo):
        actual = solve(make_instance())
    return actual, expected


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("seed", UFP_CASES)
def test_bounded_ufp_parity(seed, combo):
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    actual, expected = _run_combo(
        "ufp", seed, combo,
        lambda: _ufp_instance(seed),
        lambda inst: bounded_ufp(inst, epsilon),
    )
    _assert_same_allocation(actual, expected)


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("seed", REPEAT_CASES)
def test_bounded_ufp_repeat_parity(seed, combo):
    epsilon = [0.5, 1.0][seed % 2]
    actual, expected = _run_combo(
        "repeat", seed, combo,
        lambda: _ufp_instance(seed, max_requests=10),
        lambda inst: bounded_ufp_repeat(inst, epsilon),
    )
    _assert_same_allocation(actual, expected)


def _muca_auction(seed):
    rng = ensure_rng(seed)
    num_items = int(rng.integers(4, 16))
    if seed % 2:
        return random_auction(
            num_items=num_items,
            num_bids=int(rng.integers(3, 40)),
            multiplicity=float(rng.uniform(4.0, 20.0)),
            bundle_size_range=(1, min(4, num_items)),
            seed=rng,
        )
    return correlated_auction(
        num_items=num_items,
        num_bids=int(rng.integers(3, 40)),
        multiplicity=float(rng.uniform(4.0, 20.0)),
        num_popular=min(3, num_items),
        bundle_size_range=(1, min(4, num_items)),
        seed=rng,
    )


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("seed", MUCA_SEEDS)
def test_bounded_muca_parity(seed, combo):
    # MUCA never builds a tree (bundle sums, not paths), so no tree is
    # evicted; every combination must leave the auction untouched.
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    actual, expected = _run_combo(
        "muca", seed, combo,
        lambda: _muca_auction(seed),
        lambda auction: bounded_muca(auction, epsilon),
    )
    assert actual.winners == expected.winners
    assert actual.value == expected.value


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("seed", DIJKSTRA_SEEDS)
def test_dijkstra_parity(seed, combo):
    rng = ensure_rng(seed)
    num_vertices = int(rng.integers(4, 20))
    build = random_digraph if seed % 2 else random_graph
    graph = build(
        num_vertices,
        float(rng.uniform(0.1, 0.6)),
        (0.5, 5.0),
        seed=rng,
        ensure_connected=bool(rng.integers(0, 2)),
    )
    weights = rng.uniform(1e-6, 10.0, size=graph.num_edges)
    source = int(rng.integers(0, num_vertices))
    with compute_path(*REFERENCE):
        expected = single_source_dijkstra(graph, source, weights)
    with compute_path(*combo):
        actual = single_source_dijkstra(graph, source, weights)
    np.testing.assert_array_equal(actual.distances, expected.distances)
    np.testing.assert_array_equal(actual.parent_vertex, expected.parent_vertex)
    np.testing.assert_array_equal(actual.parent_edge, expected.parent_edge)


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("seed", ONLINE_CASES)
def test_online_stream_parity(seed, combo):
    epsilon = [0.3, 0.5, 1.0][seed % 3]

    def solve(instance):
        auction = OnlineAuction(instance.graph, epsilon)
        return auction.run(iter([Batch(time=0.0, requests=instance.requests)]))

    actual, expected = _run_combo(
        "online", seed, combo, lambda: _ufp_instance(seed), solve
    )
    _assert_same_allocation(actual, expected)
