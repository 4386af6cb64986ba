"""Differential fuzzing: production solvers vs the reference oracles.

The production solvers run on the lazy-greedy pricing engine; the contract
inherited from PR 1 is that their allocations are **bit-identical** to the
eager reference loops in :mod:`repro.core.reference` — same requests, same
selection order, same paths, same floating-point scores along the way.  The
focused tests in ``test_core_pricing_engine.py`` cover hand-built corner
cases; this module sweeps ~50 random instances per solver (pinned seeds, so
failures reproduce) and asserts exact equality:

* ``bounded_ufp``           vs ``reference_bounded_ufp``, on the corpus and
  on the contended family (:func:`_contended_instance`)
* ``bounded_ufp_repeat``    vs ``reference_bounded_ufp_repeat``
* ``bounded_muca``          vs ``reference_bounded_muca``
* ``single_source_dijkstra`` vs ``reference_dijkstra`` (distances, parents)

The online driver is included too: a whole stream submitted as one batch
must replay offline ``Bounded-UFP`` decision by decision.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.auctions import correlated_auction, random_auction
from repro.core import bounded_muca, bounded_ufp, bounded_ufp_repeat
from repro.core.reference import (
    reference_bounded_muca,
    reference_bounded_ufp,
    reference_bounded_ufp_repeat,
)
from repro.flows import UFPInstance, hotspot_instance, random_instance
from repro.graphs import CapacitatedGraph
from repro.graphs.generators import random_digraph, random_graph
from repro.graphs.shortest_path import reference_dijkstra, single_source_dijkstra
from repro.online import Batch, OnlineAuction
from repro.utils.prng import ensure_rng

pytestmark = pytest.mark.fuzz

#: Pinned base seed: every parametrized case derives from it, so the sweep
#: is reproducible run to run and machine to machine.
BASE_SEED = 20070611

_SEED_RNG = ensure_rng(BASE_SEED)
UFP_SEEDS = [int(s) for s in _SEED_RNG.integers(0, 2**31 - 1, size=50)]
REPEAT_SEEDS = [int(s) for s in _SEED_RNG.integers(0, 2**31 - 1, size=50)]
MUCA_SEEDS = [int(s) for s in _SEED_RNG.integers(0, 2**31 - 1, size=50)]
DIJKSTRA_SEEDS = [int(s) for s in _SEED_RNG.integers(0, 2**31 - 1, size=50)]
ONLINE_SEEDS = [int(s) for s in _SEED_RNG.integers(0, 2**31 - 1, size=10)]


def _ufp_instance(seed: int, *, max_requests: int = 24):
    """A small random instance whose shape itself is seed-derived."""
    rng = ensure_rng(seed)
    kind = int(rng.integers(0, 3))
    num_vertices = int(rng.integers(5, 13))
    num_requests = int(rng.integers(3, max_requests + 1))
    capacity = float(rng.uniform(5.0, 25.0))
    if kind == 0:
        return random_instance(
            num_vertices=num_vertices,
            edge_probability=float(rng.uniform(0.15, 0.5)),
            capacity=capacity,
            num_requests=num_requests,
            demand_range=(0.2, 1.0),
            directed=bool(rng.integers(0, 2)),
            seed=rng,
        )
    if kind == 1:
        return random_instance(
            num_vertices=num_vertices,
            edge_probability=float(rng.uniform(0.15, 0.5)),
            capacity=(capacity * 0.5, capacity),
            num_requests=num_requests,
            value_proportional_to_demand=True,
            seed=rng,
        )
    return hotspot_instance(
        num_vertices=num_vertices,
        edge_probability=float(rng.uniform(0.2, 0.4)),
        capacity=capacity,
        num_requests=num_requests,
        num_hotspots=2,
        seed=rng,
    )


#: The accuracy parameter the contended family's capacities are scaled to.
CONTENDED_EPSILON = 0.5


def _contended_instance(seed: int) -> UFPInstance:
    """A random instance on which Bounded-UFP stops on the budget mid-run.

    8-12 vertices, edge probability 0.3 and 40-60 requests of demand 0.5-1,
    with every capacity rescaled to ``B = (1 + ln(m)/eps) * U[1.05, 1.15]``
    at ``eps = CONTENDED_EPSILON``.  Below ``1 + ln(m)/eps`` the starting
    budget ``m`` already exceeds ``e^{eps(B-1)}`` and nothing is admitted;
    just above it the budget fires after some rounds, so winners pay
    positive critical values.  The corpus of :func:`_ufp_instance` mostly
    admits nothing or everyone, where every payment is zero."""
    rng = ensure_rng(seed)
    base = random_instance(
        num_vertices=int(rng.integers(8, 13)),
        edge_probability=0.3,
        capacity=1.0,
        num_requests=int(rng.integers(40, 61)),
        demand_range=(0.5, 1.0),
        seed=rng,
    )
    m = base.num_edges
    capacity = (1.0 + math.log(m) / CONTENDED_EPSILON) * float(rng.uniform(1.05, 1.15))
    graph = base.graph.with_capacities(np.full(m, capacity))
    return UFPInstance(graph, base.requests, name="contended")


def _ufp_cases(seeds) -> list:
    """``(seed, contended)`` inputs: every seed of the corpus (id ``<seed>``),
    then the contended family on the same seeds (id ``contended-<seed>``)."""
    return [pytest.param(seed, False, id=str(seed)) for seed in seeds] + [
        pytest.param(seed, True, id=f"contended-{seed}") for seed in seeds
    ]


def _ufp_case(seed: int, contended: bool) -> tuple[UFPInstance, float]:
    """The instance and epsilon of one :func:`_ufp_cases` input."""
    if contended:
        return _contended_instance(seed), CONTENDED_EPSILON
    return _ufp_instance(seed), [0.3, 0.5, 1.0][seed % 3]


def _assert_budget_stop(allocation) -> None:
    """The run admitted at least one request and then stopped on the budget."""
    assert allocation.num_selected >= 1
    assert allocation.stats.stopped_by_budget


def _assert_same_allocation(actual, expected) -> None:
    assert [r.request_index for r in actual.routed] == [
        r.request_index for r in expected.routed
    ]
    assert [r.vertices for r in actual.routed] == [r.vertices for r in expected.routed]
    assert [r.edge_ids for r in actual.routed] == [r.edge_ids for r in expected.routed]
    assert actual.value == expected.value  # exact, not approx


@pytest.mark.parametrize("seed,contended", _ufp_cases(UFP_SEEDS))
def test_bounded_ufp_matches_reference(seed, contended):
    instance, epsilon = _ufp_case(seed, contended)
    allocation = bounded_ufp(instance, epsilon)
    _assert_same_allocation(allocation, reference_bounded_ufp(instance, epsilon))
    if contended:
        _assert_budget_stop(allocation)


@pytest.mark.parametrize("seed", REPEAT_SEEDS)
def test_bounded_ufp_repeat_matches_reference(seed):
    instance = _ufp_instance(seed, max_requests=10)
    epsilon = [0.5, 1.0][seed % 2]
    _assert_same_allocation(
        bounded_ufp_repeat(instance, epsilon),
        reference_bounded_ufp_repeat(instance, epsilon),
    )


@pytest.mark.parametrize("seed", MUCA_SEEDS)
def test_bounded_muca_matches_reference(seed):
    rng = ensure_rng(seed)
    num_items = int(rng.integers(4, 16))
    if seed % 2:
        auction = random_auction(
            num_items=num_items,
            num_bids=int(rng.integers(3, 40)),
            multiplicity=float(rng.uniform(4.0, 20.0)),
            bundle_size_range=(1, min(4, num_items)),
            seed=rng,
        )
    else:
        auction = correlated_auction(
            num_items=num_items,
            num_bids=int(rng.integers(3, 40)),
            multiplicity=float(rng.uniform(4.0, 20.0)),
            num_popular=min(3, num_items),
            bundle_size_range=(1, min(4, num_items)),
            seed=rng,
        )
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    actual = bounded_muca(auction, epsilon)
    expected = reference_bounded_muca(auction, epsilon)
    assert actual.winners == expected.winners
    assert actual.value == expected.value


@pytest.mark.parametrize("seed", DIJKSTRA_SEEDS)
def test_dijkstra_matches_reference(seed):
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
    fast = single_source_dijkstra(graph, source, weights)
    oracle = reference_dijkstra(graph, source, weights)
    np.testing.assert_array_equal(fast.distances, oracle.distances)
    np.testing.assert_array_equal(fast.parent_vertex, oracle.parent_vertex)
    np.testing.assert_array_equal(fast.parent_edge, oracle.parent_edge)


@pytest.mark.parametrize("seed", ONLINE_SEEDS)
def test_single_batch_online_stream_matches_reference_offline(seed):
    """The online driver fed the whole workload at once IS Bounded-UFP —
    and therefore must also match the eager reference oracle exactly."""
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    auction = OnlineAuction(instance.graph, epsilon)
    online = auction.run(iter([Batch(time=0.0, requests=instance.requests)]))
    _assert_same_allocation(online, reference_bounded_ufp(instance, epsilon))
