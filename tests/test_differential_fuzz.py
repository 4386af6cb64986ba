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
* ``single_source_dijkstra`` vs ``reference_dijkstra`` (distances, parents),
  under uniform weights and under exact ties, zero weights, absorbed
  weights and early-exit targets

The Bounded-UFP and repetitions corpora keep 13 and 4 seeds that route
nothing (``UFP_EMPTY``, ``REPEAT_EMPTY``) and add as many spares that do
(``UFP_SPARES``, ``REPEAT_SPARES``), so 50 cases of each route something.
The online seeds keep the 4 whose streams admit nothing (``ONLINE_EMPTY``)
beside 4 spares that admit (``ONLINE_SPARES``).

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
#: The next draws of the same stream, where the spares below come from.
_SPARE_DRAWS = [int(s) for s in _SEED_RNG.integers(0, 2**31 - 1, size=23)]
#: The draws after those, where the online spares come from.
_ONLINE_SPARE_DRAWS = [int(s) for s in _SEED_RNG.integers(0, 2**31 - 1, size=8)]

#: Corpus seeds whose run routes nothing at their suite's epsilon: the
#: starting budget ``m`` already exceeds ``e^{eps(B-1)}``, so both sides of
#: every comparison on them stop before the first round.
UFP_EMPTY = (
    1385405112, 273010486, 191759064, 19711483, 1825666469, 760496935,
    2115074043, 121633782, 775256091, 194407857, 550982277, 231014553,
    1691693866,
)
REPEAT_EMPTY = (1737198678, 1797203766, 1704566390, 242723650)

#: One spare per empty seed: the routing draws of ``_SPARE_DRAWS``, in stream
#: order, the Bounded-UFP spares first.  The engine-vs-reference,
#: probe-replay and tree-parity suites run ``UFP_CASES`` and
#: ``REPEAT_CASES``, so 50 of each suite's corpus cases route something
#: (``test_corpus_cases_route_something`` keeps it so).
UFP_SPARES = [
    855398816, 1369192198, 748785652, 1784441702, 578738828, 1945629450,
    1815957869, 641361370, 2008521134, 179811747, 1726992998, 1122025228,
    705784961,
]
REPEAT_SPARES = [2138436915, 1816831148, 382220844, 692999219]
UFP_CASES = UFP_SEEDS + UFP_SPARES
REPEAT_CASES = REPEAT_SEEDS + REPEAT_SPARES

#: Online seeds whose whole stream admits nothing under the greedy policy
#: (offline Bounded-UFP on them routes nothing either), and one spare per
#: empty seed: the admitting draws of ``_ONLINE_SPARE_DRAWS``, in stream
#: order.  The online suites run ``ONLINE_CASES``, so 10 of their cases
#: admit something (``test_online_cases_admit_something`` keeps it so).
ONLINE_EMPTY = (1360890429, 1076473494, 967198296, 2090504346)
ONLINE_SPARES = [53339342, 840421602, 1627599897, 598595287]
ONLINE_CASES = ONLINE_SEEDS + ONLINE_SPARES


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


def _ufp_cases(seeds, spares=()) -> list:
    """``(seed, contended)`` inputs: every seed of the corpus and of
    ``spares`` (id ``<seed>``), then the contended family on ``seeds`` (id
    ``contended-<seed>``)."""
    return [pytest.param(seed, False, id=str(seed)) for seed in (*seeds, *spares)] + [
        pytest.param(seed, True, id=f"contended-{seed}") for seed in seeds
    ]


def _ufp_case(seed: int, contended: bool) -> tuple[UFPInstance, float]:
    """The instance and epsilon of one :func:`_ufp_cases` input."""
    if contended:
        return _contended_instance(seed), CONTENDED_EPSILON
    return _ufp_instance(seed), [0.3, 0.5, 1.0][seed % 3]


def _corpus_case(seed: int, repeat: bool) -> tuple[UFPInstance, float]:
    """The instance and epsilon of the Bounded-UFP corpus case of ``seed``
    (the repetitions one with ``repeat``)."""
    if repeat:
        return _ufp_instance(seed, max_requests=10), [0.5, 1.0][seed % 2]
    return _ufp_instance(seed), [0.3, 0.5, 1.0][seed % 3]


def _routes(seed: int, repeat: bool) -> bool:
    """Whether the corpus case of ``seed`` routes at least one request."""
    solve = bounded_ufp_repeat if repeat else bounded_ufp
    return bool(solve(*_corpus_case(seed, repeat)).routed)


def test_corpus_cases_route_something():
    """Every corpus case routes a request, except the pinned empty seeds,
    which stop on their starting budget; and the spares are the routing
    draws that follow the corpus in the pinned stream."""
    for cases, empty, repeat in (
        (UFP_CASES, UFP_EMPTY, False),
        (REPEAT_CASES, REPEAT_EMPTY, True),
    ):
        assert [seed for seed in cases if not _routes(seed, repeat)] == list(empty)
        assert len(cases) - len(empty) == 50
        for seed in empty:
            instance, epsilon = _corpus_case(seed, repeat)
            budget_limit = math.exp(epsilon * (instance.graph.capacities.min() - 1.0))
            assert instance.num_edges > budget_limit, seed
    draws = iter(_SPARE_DRAWS)
    spares = [
        [next(seed for seed in draws if _routes(seed, repeat)) for _ in empty]
        for empty, repeat in ((UFP_EMPTY, False), (REPEAT_EMPTY, True))
    ]
    assert spares == [UFP_SPARES, REPEAT_SPARES]


def _online_admits(seed: int) -> bool:
    """Whether the online case of ``seed``, its whole stream in one batch
    under the greedy policy, admits at least one request."""
    instance = _ufp_instance(seed)
    auction = OnlineAuction(instance.graph, [0.3, 0.5, 1.0][seed % 3])
    return bool(auction.run(iter([Batch(time=0.0, requests=instance.requests)])).routed)


def test_online_cases_admit_something():
    """Every online case admits a request under the greedy policy, except
    the pinned empty seeds; and the spares are the admitting draws that
    follow the corpus spares in the pinned stream."""
    empty = [seed for seed in ONLINE_CASES if not _online_admits(seed)]
    assert empty == list(ONLINE_EMPTY)
    assert len(ONLINE_CASES) - len(ONLINE_EMPTY) == len(ONLINE_SEEDS)
    draws = iter(_ONLINE_SPARE_DRAWS)
    spares = [next(seed for seed in draws if _online_admits(seed)) for _ in ONLINE_EMPTY]
    assert spares == ONLINE_SPARES


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


@pytest.mark.parametrize("seed,contended", _ufp_cases(UFP_SEEDS, UFP_SPARES))
def test_bounded_ufp_matches_reference(seed, contended):
    instance, epsilon = _ufp_case(seed, contended)
    allocation = bounded_ufp(instance, epsilon)
    _assert_same_allocation(allocation, reference_bounded_ufp(instance, epsilon))
    if contended:
        _assert_budget_stop(allocation)


@pytest.mark.parametrize("seed", REPEAT_CASES)
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


def _dijkstra_graph(seed: int):
    """The 4-20-vertex graph of a Dijkstra seed and the generator that
    built it, positioned for the weights."""
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
    return graph, rng


def _assert_same_entries(actual, expected, vertices=slice(None)) -> None:
    for field in ("distances", "parent_vertex", "parent_edge"):
        np.testing.assert_array_equal(
            getattr(actual, field)[vertices], getattr(expected, field)[vertices]
        )


@pytest.mark.parametrize("seed", DIJKSTRA_SEEDS)
def test_dijkstra_matches_reference(seed):
    graph, rng = _dijkstra_graph(seed)
    weights = rng.uniform(1e-6, 10.0, size=graph.num_edges)
    source = int(rng.integers(0, graph.num_vertices))
    _assert_same_entries(
        single_source_dijkstra(graph, source, weights),
        reference_dijkstra(graph, source, weights),
    )


#: Weights the uniform draw above never produces.  ``ties``: small
#: integers, so equal path sums everywhere and the parent rule decides.
#: ``zeros``: the same with about a quarter of the weights exactly 0.0, so
#: a relaxation can reach a vertex at its own distance.  ``absorbed``:
#: ``1e20`` beside ``1.0``, so ``fl(d + 1.0) == d`` past any heavy edge.
#: ``targets``: all three at once, with an early-exit set.
HARD_WEIGHTS = ["ties", "zeros", "absorbed", "targets"]


@pytest.mark.parametrize("kind", HARD_WEIGHTS)
@pytest.mark.parametrize("seed", DIJKSTRA_SEEDS)
def test_dijkstra_matches_reference_on_hard_weights(seed, kind):
    """The loop below the C-tree threshold keeps the reference's settle
    order and tie rule where exact ties, zero weights and absorbed weights
    make them matter; with ``targets`` only the targets' entries are
    compared, as only those are exact."""
    graph, rng = _dijkstra_graph(seed)
    m = graph.num_edges
    if kind == "ties":
        weights = rng.integers(1, 4, size=m).astype(np.float64)
    elif kind == "zeros":
        weights = rng.integers(0, 4, size=m).astype(np.float64)
        weights[rng.integers(0, m)] = 0.0
    elif kind == "absorbed":
        weights = np.where(rng.random(m) < 0.3, 1e20, 1.0)
    else:
        weights = rng.choice([0.0, 1.0, 2.0, 1e20], size=m)
    source = int(rng.integers(0, graph.num_vertices))
    targets = None
    if kind == "targets":
        size = int(rng.integers(1, graph.num_vertices + 1))
        targets = {int(t) for t in rng.choice(graph.num_vertices, size, replace=False)}
    actual = single_source_dijkstra(graph, source, weights, targets=targets)
    expected = reference_dijkstra(graph, source, weights, targets=targets)
    _assert_same_entries(
        actual, expected, slice(None) if targets is None else sorted(targets)
    )


@pytest.mark.parametrize("seed", ONLINE_CASES)
def test_single_batch_online_stream_matches_reference_offline(seed):
    """The online driver fed the whole workload at once IS Bounded-UFP —
    and therefore must also match the eager reference oracle exactly."""
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    auction = OnlineAuction(instance.graph, epsilon)
    online = auction.run(iter([Batch(time=0.0, requests=instance.requests)]))
    _assert_same_allocation(online, reference_bounded_ufp(instance, epsilon))
