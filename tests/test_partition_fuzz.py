"""Differential fuzzing: the partitioned solver vs the global solver.

The bit-identity contract of :mod:`repro.partition` has three layers, all
pinned here on seed corpora:

* **Unconditional**: on any intra-region-only workload, the partitioned
  fast path reproduces — exactly, float for float — the global
  ``bounded_ufp`` run on the substrate with the cut edges disabled.
* **Conditional**: whenever the *plain* global run routes nothing across
  the cut (always true for the trivial 1-region partition, and for most
  intra-only workloads on a multi-region composite's natural cut), the
  partitioned run equals the plain global run.  The premise is checked in
  each test rather than assumed: internal congestion can make a backbone
  detour the cheaper path for an intra request, and one pinned seed in the
  corpus does exactly that.
* **By construction**: on workloads with cross-region requests the
  partitioned solver returns the global ``bounded_ufp`` run itself.

The 1-region corpus replays the shared pinned-seed instances of
``test_differential_fuzz`` on loop trees and on C trees.  In the 1-region
and cut-disabled tests every 4th corpus seed also runs with
``max_iterations=3``, a cap the shard merge applies on its own; it binds on
most of those seeds.  Both tests also run every seed at ``max_iterations``
0 and 1, where the merge stops before or right after its first step, with
the budget already spent on some seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from compute_paths import tree_path
from test_differential_fuzz import (  # noqa: E402  (corpus shared with the fuzz suite)
    UFP_SEEDS,
    _assert_same_allocation,
    _ufp_instance,
)

from repro.core import bounded_ufp
from repro.flows import Request, UFPInstance
from repro.graphs import CapacitatedGraph
from repro.graphs.generators import multi_region_leaves, multi_region_topology
from repro.graphs.partition import multi_region_partition
from repro.partition import partitioned_bounded_ufp
from repro.utils.prng import ensure_rng

pytestmark = pytest.mark.fuzz

#: Seeds for the multi-region corpora (derived from the shared corpus so
#: the whole sweep remains pinned to one base seed).
REGION_SEEDS = UFP_SEEDS[:12]
#: Subset replayed on C trees — enough to catch a divergence, cheap
#: enough for every CI pass.
SMALL = UFP_SEEDS[:6]

_R, _C, _L = 4, 3, 2  # regions x cores x leaves of the composite corpus


def _intra_instance(seed: int, num_requests: int = 32) -> UFPInstance:
    """A multi-region composite whose requests never leave their region."""
    rng = ensure_rng(seed)
    graph = multi_region_topology(
        _R, _C, _L, 40.0, 20.0, 10.0, seed=int(rng.integers(2**31))
    )
    block = _C * (1 + _L)
    requests = []
    for _ in range(num_requests):
        region = int(rng.integers(_R))
        leaves = np.arange(region * block + _C, (region + 1) * block)
        u, v = rng.choice(leaves, size=2, replace=False)
        requests.append(
            Request(
                int(u),
                int(v),
                demand=float(rng.uniform(0.2, 1.0)),
                value=float(rng.uniform(0.5, 2.0)),
            )
        )
    return UFPInstance(graph, requests)


def _cross_instance(seed: int, num_requests: int = 24) -> UFPInstance:
    """A multi-region composite with unconstrained leaf-to-leaf requests."""
    rng = ensure_rng(seed)
    graph = multi_region_topology(
        _R, _C, _L, 40.0, 20.0, 10.0, seed=int(rng.integers(2**31))
    )
    leaves = multi_region_leaves(_R, _C, _L)
    requests = [
        Request(
            int(u),
            int(v),
            demand=float(rng.uniform(0.2, 1.0)),
            value=float(rng.uniform(0.5, 2.0)),
        )
        for u, v in (
            rng.choice(leaves, size=2, replace=False) for _ in range(num_requests)
        )
    ]
    return UFPInstance(graph, requests)


def _natural_partition(graph):
    return multi_region_partition(graph, _R, _C, _L)


def _cut_disabled(instance: UFPInstance, partition) -> UFPInstance:
    """The same workload on the substrate with the cut edges disabled."""
    graph = instance.graph
    disabled = set(graph.disabled_edges) | set(partition.cut_edge_ids.tolist())
    return UFPInstance(
        CapacitatedGraph(
            graph.num_vertices,
            graph.edge_list(),
            directed=graph.directed,
            disabled_edges=disabled,
        ),
        list(instance.requests),
    )


def _uses_cut(allocation, partition) -> bool:
    cut = set(partition.cut_edge_ids.tolist())
    return any(
        eid in cut for routed in allocation.routed for eid in routed.edge_ids
    )


def _caps(seed: int) -> tuple[int | None, ...]:
    """The ``max_iterations`` a differential runs ``seed`` at: 3 on every 4th
    corpus seed and ``None`` on the others, then 0 and 1 on every seed."""
    return (3 if UFP_SEEDS.index(seed) % 4 == 0 else None, 0, 1)


def _assert_same_budget(actual, expected) -> None:
    assert actual.stats.extra["final_dual_budget"] == (
        expected.stats.extra["final_dual_budget"]
    )
    assert actual.stats.stopped_by_budget == expected.stats.stopped_by_budget


# ---------------------------------------------------------------------- #
# 1-region partition over the shared corpus
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", UFP_SEEDS)
def test_single_region_matches_global(seed):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    for cap in _caps(seed):
        expected = bounded_ufp(instance, epsilon, max_iterations=cap)
        actual = partitioned_bounded_ufp(
            instance, epsilon, partition=1, max_iterations=cap
        )
        _assert_same_allocation(actual, expected)
        _assert_same_budget(actual, expected)
        assert actual.stats.iterations == expected.stats.iterations


@pytest.mark.parametrize("seed", SMALL)
def test_single_region_matches_global_scipy_backend(seed):
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    # Instances are rebuilt per run so one run's tree memos cannot mask
    # divergence in the other (same discipline as test_backend_parity).
    with tree_path("scipy"):
        expected = bounded_ufp(_ufp_instance(seed), epsilon)
        actual = partitioned_bounded_ufp(
            _ufp_instance(seed), epsilon, partition=1
        )
    _assert_same_allocation(actual, expected)
    _assert_same_budget(actual, expected)


# ---------------------------------------------------------------------- #
# Natural multi-region cut, intra-only workloads
# ---------------------------------------------------------------------- #
#: The one corpus seed whose plain global run shortcuts an intra request
#: through the backbone (congestion made the cut cheaper) — it exercises
#: the unconditional cut-disabled differential but not plain-global
#: identity.  Pinned so a drift in either direction is loud.
SHORTCUT_SEEDS = {518363606}


@pytest.mark.parametrize("seed", REGION_SEEDS)
def test_multi_region_intra_only_matches_cut_disabled_global(seed):
    instance = _intra_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    partition = _natural_partition(instance.graph)
    for cap in _caps(seed):
        expected = bounded_ufp(
            _cut_disabled(instance, partition), epsilon, max_iterations=cap
        )
        actual = partitioned_bounded_ufp(
            instance, epsilon, partition=partition, max_iterations=cap
        )
        _assert_same_allocation(actual, expected)
        _assert_same_budget(actual, expected)
        assert actual.stats.iterations == expected.stats.iterations
        assert actual.stats.extra["partition_cross_requests"] == 0.0


@pytest.mark.parametrize("seed", REGION_SEEDS)
def test_multi_region_intra_only_matches_plain_global(seed):
    instance = _intra_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    partition = _natural_partition(instance.graph)
    expected = bounded_ufp(instance, epsilon)
    # Bit-identity with the *plain* global run needs its routes to stay
    # internal; assert the premise matches the pinned expectation so both
    # a new shortcut seed and a vanished one fail loudly.
    assert _uses_cut(expected, partition) == (seed in SHORTCUT_SEEDS)
    if seed in SHORTCUT_SEEDS:
        return
    actual = partitioned_bounded_ufp(instance, epsilon, partition=partition)
    _assert_same_allocation(actual, expected)
    _assert_same_budget(actual, expected)


@pytest.mark.parametrize("seed", SMALL)
def test_multi_region_intra_only_scipy_backend(seed):
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    with tree_path("scipy"):
        instance = _intra_instance(seed)
        partition = _natural_partition(instance.graph)
        expected = bounded_ufp(_cut_disabled(instance, partition), epsilon)
        instance = _intra_instance(seed)
        actual = partitioned_bounded_ufp(
            instance, epsilon, partition=_natural_partition(instance.graph)
        )
    _assert_same_allocation(actual, expected)
    _assert_same_budget(actual, expected)


# ---------------------------------------------------------------------- #
# Cross-region workloads: the global run by construction
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", REGION_SEEDS)
def test_cross_region_matches_global(seed):
    instance = _cross_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    expected = bounded_ufp(instance, epsilon)
    actual = partitioned_bounded_ufp(
        instance, epsilon, partition=_natural_partition(instance.graph)
    )
    _assert_same_allocation(actual, expected)
    _assert_same_budget(actual, expected)
    assert actual.stats.extra["partition_cross_requests"] > 0
