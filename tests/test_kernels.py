"""The three hot loops of an auction round, and the tree hook.

The broad end-to-end parity suite lives in ``test_backend_parity.py`` and
the tree-level parity in ``test_tree_parity.py``; this module covers:

* :func:`repro.kernels.get_kernel` returns one kernel, whose ``dijkstra``
  is the size-selected tree (the retired selection knobs are covered in
  ``test_env_precedence.py``);
* the floating-point properties that give an edge the same dual-update
  factor whichever path array it is updated in (positional stability of
  ``np.exp`` and scalar division) — if a numpy build ever broke these,
  this is the test that should fail first, with a message pointing at the
  right invariant;
* the MUCA engine's initial bundle scores against per-bundle sums;
* the path engine's tree-cache eviction: its ``edge_mask`` probe against
  the parent-edge oracle of ``compute_paths.py`` on random workloads and
  on a fork, and on real runs after every commit and fork, checked
  against fresh trees and each cached tree's parent edges;
* end-to-end: traced payments and campaign-store content hashes are
  bit-identical across tree paths and commit paths and across ``jobs=``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from compute_paths import (
    COMMIT_PATHS,
    TREE_PATHS,
    commit_path,
    compute_path,
    stale_sources,
    tree_path,
)
from test_differential_fuzz import REPEAT_SEEDS, UFP_EMPTY, UFP_SEEDS, _ufp_instance

from repro import kernels
from repro.core import DualWeights, PathPricingEngine
from repro.core.bounded_ufp import bounded_ufp
from repro.core.bounded_ufp_repeat import bounded_ufp_repeat
from repro.core.pricing_engine import BundlePricingEngine, greedy_rounds
from repro.flows.generators import random_instance
from repro.graphs.generators import grid_graph
from repro.graphs.shortest_path import shortest_path_tree
from repro.kernels import Kernel
from repro.mechanism.payments import compute_ufp_payments
from repro.utils.prng import ensure_rng


# --------------------------------------------------------------------- #
# What is left of the registry: one kernel
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_kernel_instances_are_singletons(self):
        assert kernels.get_kernel() is kernels.get_kernel()
        assert isinstance(kernels.get_kernel(), Kernel)

    @pytest.mark.parametrize("side", [4, 12])
    def test_dijkstra_is_the_size_selected_tree(self, side):
        """The kernel's dijkstra is :func:`shortest_path_tree` (loop trees
        on the 16-vertex grid, C trees on the 144-vertex one)."""
        graph = grid_graph(side, side, 1.0)
        weights = ensure_rng(side).uniform(0.5, 2.0, size=graph.num_edges)
        got = kernels.get_kernel().dijkstra(graph, weights, 3)
        want = shortest_path_tree(graph, weights, 3)
        assert list(got.dist) == list(want.dist)
        assert list(got.parent_vertex) == list(want.parent_vertex)
        assert list(got.parent_edge) == list(want.parent_edge)
        assert got.edge_mask == want.edge_mask


# --------------------------------------------------------------------- #
# The floating-point invariants behind the dual update
# --------------------------------------------------------------------- #
class TestBitIdentityInvariants:
    def test_np_exp_is_positionally_stable(self):
        """``np.exp(x)[ids] == np.exp(x[ids])`` bit for bit: the ufunc
        applies the same scalar routine per element regardless of vector
        shape, so an edge's dual-update factor does not depend on the
        other edges of its path."""
        rng = ensure_rng(20070611)
        x = rng.uniform(-30.0, 30.0, size=4096)
        ids = rng.integers(0, x.size, size=512)
        np.testing.assert_array_equal(np.exp(x)[ids], np.exp(x[ids]))

    def test_scalar_division_is_positionally_stable(self):
        """``(s / x)[ids] == s / x[ids]`` bit for bit (IEEE division is
        correctly rounded per element)."""
        rng = ensure_rng(20070612)
        x = rng.uniform(0.1, 50.0, size=4096)
        ids = rng.integers(0, x.size, size=512)
        np.testing.assert_array_equal((3.7 / x)[ids], 3.7 / x[ids])


# --------------------------------------------------------------------- #
# Bundle scoring
# --------------------------------------------------------------------- #
class TestBundleScores:
    @pytest.mark.parametrize("seed", range(10))
    def test_tiers_agree_bit_for_bit(self, seed):
        """The MUCA engine's initial heap keys, one CSR sweep, agree bit for
        bit with the shaved ``reduceat`` expression and never exceed the
        per-bundle reference score ``weights[bundle].sum() / value``."""
        rng = ensure_rng(seed)
        n = int(rng.integers(1, 30))
        sizes = rng.integers(1, 6, size=n)
        flat = rng.integers(0, 40, size=int(sizes.sum()))
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        duals = DualWeights(rng.uniform(0.5, 100.0, size=40), 0.5)
        weights = duals.weights
        values = rng.uniform(0.5, 5.0, size=n)
        bundles = [flat[start : start + int(sizes[i])] for i, start in enumerate(starts)]
        bids = [
            SimpleNamespace(bundle=b.tolist(), value=float(v))
            for b, v in zip(bundles, values)
        ]
        engine = BundlePricingEngine(SimpleNamespace(bids=bids), duals)
        keys = {i: key for key, i in engine._heap}
        expected = (np.add.reduceat(weights[flat], starts) / values) * (1.0 - 1e-9)
        assert [keys[i] for i in range(n)] == expected.tolist()
        for i, bundle in enumerate(bundles):
            assert keys[i] <= weights[bundle].sum() / values[i]


# --------------------------------------------------------------------- #
# Tree-cache eviction against its oracle
# --------------------------------------------------------------------- #
class _FakeTree:
    """A tree as the eviction reads it: parent edges and their bitmask."""

    def __init__(self, edges):
        edges = sorted(set(edges))
        self.parent_edge = [-1] + edges
        self.edge_mask = sum(1 << e for e in edges)


def _empty_engine():
    """A path engine with no requests, whose tree cache the tests fill with
    :class:`_FakeTree` objects for ``_invalidate_edges`` to evict from."""
    graph = grid_graph(3, 3, 1.0)
    return PathPricingEngine(graph, [], DualWeights(graph.capacities, 0.5))


def _evict(engine, edge_ids, commit):
    """Run ``engine``'s eviction on commit path ``commit``; return the
    evicted sources, sorted."""
    before = set(engine._trees)
    with commit_path(commit):
        engine._invalidate_edges(edge_ids)
    return sorted(before - set(engine._trees))


class TestInvalidationIndex:
    @pytest.mark.parametrize("seed", range(15))
    def test_bitmask_index_matches_edge_set_index(self, seed):
        """Differential test: a random register/invalidate workload evicts
        the identical source sets through the engine's ``edge_mask`` probe
        and through the parent-edge oracle, and leaves both engines with the
        same cache, epochs and ``trees_invalidated``."""
        rng = ensure_rng(seed)
        engines = {commit: _empty_engine() for commit in COMMIT_PATHS}
        evictions = 0

        def invalidate(edges):
            nonlocal evictions
            want = stale_sources(engines["numpy"]._trees, edges)
            for commit, engine in engines.items():
                assert _evict(engine, edges, commit) == want, commit
            evictions += len(want)

        for step in range(120):
            op = int(rng.integers(0, 3))
            if op <= 1:  # register (engine contract: evict before re-register)
                source = int(rng.integers(0, 12))
                cached = engines["numpy"]._trees.get(source)
                if cached is not None:
                    invalidate(cached.parent_edge[1:])
                tree = _FakeTree(
                    int(e) for e in rng.integers(0, 128, size=rng.integers(1, 9))
                )
                for engine in engines.values():
                    engine._trees[source] = tree
            else:  # invalidate a random edge set
                invalidate([int(e) for e in rng.integers(0, 128, size=3)])

        a, b = engines.values()
        assert list(a._trees) == list(b._trees)
        assert a._source_epoch == b._source_epoch
        assert a.stats.trees_invalidated == b.stats.trees_invalidated == evictions > 0

    def test_snapshots_restore_across_flavors(self):
        """A fork carries the tree cache, both commit paths evict the same
        sources from it, and the forked engine keeps its cache."""
        trees = {1: _FakeTree({2, 5}), 3: _FakeTree({5, 9}), 7: _FakeTree({70})}
        engine = _empty_engine()
        engine._trees.update(trees)
        for commit in COMMIT_PATHS:
            fork = engine.fork()
            assert _evict(fork, [5], commit) == [1, 3]
            assert _evict(fork, [70], commit) == [7]
            assert _evict(fork, [2, 9], commit) == []
            assert fork._source_epoch == {1: 1, 3: 1, 7: 1}
            assert fork.stats.trees_invalidated == 3
        assert engine._trees == trees
        assert engine._source_epoch == {}
        assert engine.stats.trees_invalidated == 0


# --------------------------------------------------------------------- #
# Tree-cache invalidation of the path engine on real runs
# --------------------------------------------------------------------- #
def _assert_cached_trees_exact(engine):
    """Every cached tree equals a fresh tree under the current weights."""
    for source, tree in engine._trees.items():
        fresh = shortest_path_tree(engine._graph, engine._weights, source)
        assert list(tree.dist) == list(fresh.dist), source
        assert list(tree.parent_vertex) == list(fresh.parent_vertex), source
        assert list(tree.parent_edge) == list(fresh.parent_edge), source
        assert tree.edge_mask == fresh.edge_mask, source


@contextmanager
def _checked_engines():
    """Patch :class:`PathPricingEngine` so every commit, replay commit,
    fork and substrate rebind is checked on the spot (a fork's tree cache
    must be exact under its own weights); yields the count of checks made
    per method.

    After a commit, the evicted sources must be exactly the cached ones
    whose ``parent_edge`` array holds an edge of the committed path (read
    from the arrays, not from ``edge_mask``, so a wrong mask shows up) and
    every tree left in the cache must be exact: a stale tree and an extra
    eviction both fail.
    """
    counts = {"commit": 0, "replay_commit": 0, "fork": 0, "rebind_substrate": 0}
    commit = PathPricingEngine.commit
    replay_commit = PathPricingEngine.replay_commit
    fork = PathPricingEngine.fork
    rebind = PathPricingEngine.rebind_substrate

    def check_evictions(name, engine, before, path):
        assert set(engine._trees) == set(before) - set(stale_sources(before, path))
        _assert_cached_trees_exact(engine)
        counts[name] += 1

    def checked_commit(self, selection):
        before = dict(self._trees)
        commit(self, selection)
        check_evictions("commit", self, before, selection.edge_ids)

    def checked_replay_commit(self, index, sorted_edge_ids, edge_ids):
        before = dict(self._trees)
        replay_commit(self, index, sorted_edge_ids, edge_ids)
        check_evictions("replay_commit", self, before, edge_ids)

    def checked_fork(self):
        forked = fork(self)
        _assert_cached_trees_exact(forked)
        counts["fork"] += 1
        return forked

    def checked_rebind(self, graph, duals):
        rebind(self, graph, duals)
        _assert_cached_trees_exact(self)
        counts["rebind_substrate"] += 1

    with mock.patch.multiple(
        PathPricingEngine,
        commit=checked_commit,
        replay_commit=checked_replay_commit,
        fork=checked_fork,
        rebind_substrate=checked_rebind,
    ):
        yield counts


class TestEngineInvalidation:
    @pytest.mark.parametrize("trees", TREE_PATHS)
    @pytest.mark.parametrize(
        "seed", [seed for seed in UFP_SEEDS if seed not in UFP_EMPTY][:4]
    )
    def test_bounded_ufp(self, seed, trees):
        with tree_path(trees), _checked_engines() as counts:
            allocation = bounded_ufp(_ufp_instance(seed), [0.3, 0.5, 1.0][seed % 3])
        assert counts["commit"] == len(allocation.routed) > 0

    @pytest.mark.parametrize("trees", TREE_PATHS)
    @pytest.mark.parametrize("seed", REPEAT_SEEDS[:4])
    def test_bounded_ufp_repeat(self, seed, trees):
        instance = _ufp_instance(seed, max_requests=10)
        with tree_path(trees), _checked_engines() as counts:
            allocation = bounded_ufp_repeat(instance, [0.5, 1.0][seed % 2])
        assert counts["commit"] == len(allocation.routed) > 0

    @pytest.mark.parametrize("trees", TREE_PATHS)
    def test_traced_payments(self, trees):
        """Trace recording forks checkpoints, and replays fork them and
        re-apply recorded rounds through ``replay_commit``."""
        instance = _payment_instance(23)
        with tree_path(trees), _checked_engines() as counts:
            allocation = bounded_ufp(instance, 0.5)
            compute_ufp_payments(
                lambda i, **kw: bounded_ufp(i, 0.5, **kw),
                instance,
                allocation,
                use_trace=True,
            )
        assert counts["fork"] > 0
        assert counts["replay_commit"] > counts["commit"]

    @pytest.mark.parametrize("trees", TREE_PATHS)
    def test_rebind_substrate(self, trees):
        instance = _payment_instance(31)
        graph = instance.graph
        with tree_path(trees), _checked_engines() as counts:
            duals = DualWeights(graph.capacities, 0.5)
            engine = PathPricingEngine(graph, list(instance.requests), duals)
            for _ in zip(range(4), greedy_rounds(engine)):
                pass
            mutated = graph.with_capacities(graph.capacities * 0.75, disabled_edges=[0])
            engine.rebind_substrate(mutated, duals.with_capacities(mutated.capacities))
            rounds = list(greedy_rounds(engine))
        assert counts["rebind_substrate"] == 1
        assert counts["commit"] == 4 + len(rounds)


# --------------------------------------------------------------------- #
# End to end: payments and store hashes across compute paths and jobs
# --------------------------------------------------------------------- #
def _payment_instance(seed):
    return random_instance(
        num_vertices=12,
        edge_probability=0.3,
        capacity=12.0,
        num_requests=30,
        demand_range=(0.5, 1.0),
        seed=seed,
    )


_PATHS = [(trees, commit) for trees in TREE_PATHS for commit in COMMIT_PATHS]


class TestEndToEndParity:
    @pytest.mark.parametrize("use_trace", [True, False])
    def test_traced_payments_identical_across_kernels(self, use_trace):
        outputs = []
        for path in _PATHS:
            with compute_path(*path):
                inst = _payment_instance(23)
                allocation = bounded_ufp(inst, 0.5)
                payments = compute_ufp_payments(
                    lambda i, **kw: bounded_ufp(i, 0.5, **kw),
                    inst,
                    allocation,
                    use_trace=use_trace,
                )
                outputs.append(
                    (
                        tuple((r.request_index, r.edge_ids) for r in allocation.routed),
                        float(allocation.value),
                        payments.tobytes(),
                    )
                )
        assert outputs[0][0], "the instance routes nothing"
        assert all(out == outputs[0] for out in outputs[1:])

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_store_content_hash_identical_across_kernels(self, tmp_path, jobs):
        """The acceptance headline: a campaign's store hash is the same on
        every compute path, at jobs=1 and jobs=4."""
        from repro.scenarios.runner import run_campaign
        from repro.scenarios.store import ResultStore

        suite = {
            "name": "kernel-hash",
            "seed": 17,
            "topologies": [
                {"name": "wax", "family": "waxman", "num_vertices": 12}
            ],
            "regimes": [
                {
                    "name": "mid",
                    "capacity": {"scale_log_m": 2.0, "min": 2.0},
                    "num_requests": 14,
                }
            ],
            "modes": [
                {"name": "off", "kind": "offline", "bound": "none"},
                {
                    "name": "pay",
                    "kind": "offline",
                    "bound": "none",
                    "payments": True,
                },
            ],
        }
        hashes = []
        for path in _PATHS:
            with compute_path(*path):
                store = ResultStore(tmp_path / f"{'-'.join(path)}-{jobs}")
                result = run_campaign(suite, store=store, jobs=jobs)
                assert result.all_cells_ok
                hashes.append(store.content_hash(result.records))
        assert len(set(hashes)) == 1

    def test_records_and_report_carry_kernel_calls(self):
        """Solvers count kernel work in ``pricing_kernel_calls``; campaign
        records and the text report carry it as ``kernel_calls``."""
        from repro.scenarios.report import render_report
        from repro.scenarios.runner import run_campaign

        allocation = bounded_ufp(_payment_instance(5), 0.5)
        assert allocation.stats.extra["pricing_kernel_calls"] > 0
        suite = {
            "name": "tiny",
            "seed": 5,
            "topologies": [{"name": "g", "family": "grid", "rows": 3, "cols": 3}],
            "regimes": [{"name": "r", "capacity": 6.0, "num_requests": 6}],
            "modes": [{"name": "off", "kind": "offline", "bound": "none"}],
        }
        result = run_campaign(suite)
        for record in result.records.values():
            assert record["kernel_calls"] > 0
            json.dumps(record["kernel_calls"])  # numeric, serializable
        text = render_report(result.records, title="t", content_hash="abc123")
        assert "kernel_calls" in text
        assert "store hash: abc123" in text
