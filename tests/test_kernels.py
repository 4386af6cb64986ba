"""The compute kernel: its one instance and its commit-path primitives.

The broad end-to-end parity matrix lives in ``test_backend_parity.py`` and
the tree-level parity in ``test_tree_parity.py``; this module covers the
kernel layer itself:

* :func:`repro.kernels.get_kernel` returns one kernel, whose ``dijkstra``
  is the size-selected tree (the retired selection knobs are covered in
  ``test_env_precedence.py``);
* the floating-point properties that give an edge the same dual-update
  factor whichever path array it is updated in (positional stability of
  ``np.exp`` and scalar division) — if a numpy build ever broke these,
  this is the test that should fail first, with a message pointing at the
  right invariant;
* per-primitive differential tests against the oracles: the bitmask
  invalidation index against the edge-set index of
  :mod:`repro.kernels.oracles`, ``bundle_scores`` against per-bundle sums;
* end-to-end: traced payments and campaign-store content hashes are
  bit-identical across tree paths and commit paths and across ``jobs=``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from compute_paths import COMMIT_PATHS, TREE_PATHS, compute_path
from repro import kernels
from repro.core.bounded_ufp import bounded_ufp
from repro.flows.generators import random_instance
from repro.graphs.generators import grid_graph
from repro.graphs.shortest_path import shortest_path_tree
from repro.kernels import BitmaskIndex, Kernel
from repro.kernels.oracles import EdgeSetIndex
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
# Invalidation index
# --------------------------------------------------------------------- #
class _FakeTree:
    """A tree as the indexes read it: parent edges and their bitmask."""

    def __init__(self, edges):
        edges = sorted(set(edges))
        self.parent_edge = [-1] + edges
        self.edge_mask = sum(1 << e for e in edges)


class TestInvalidationIndex:
    @pytest.mark.parametrize("seed", range(15))
    def test_bitmask_index_matches_edge_set_index(self, seed):
        """Differential test: a random register/invalidate workload evicts
        the identical source sets from the bitmask index and the oracle."""
        rng = ensure_rng(seed)
        a, b = EdgeSetIndex(), BitmaskIndex()
        live: dict[int, _FakeTree] = {}

        def invalidate(edges):
            hit = a.invalidate(edges)
            assert b.invalidate(edges) == hit
            for s in hit:
                live.pop(s)

        for step in range(120):
            op = int(rng.integers(0, 3))
            if op <= 1:  # register (engine contract: evict before re-register)
                source = int(rng.integers(0, 12))
                if source in live:
                    invalidate(live[source].parent_edge[1:])
                tree = _FakeTree(
                    int(e) for e in rng.integers(0, 64, size=rng.integers(1, 9))
                )
                live[source] = tree
                a.register(source, tree)
                b.register(source, tree)
            else:  # invalidate a random edge set
                invalidate([int(e) for e in rng.integers(0, 64, size=3)])

    def test_snapshots_restore_across_flavors(self):
        """A checkpoint restores into a fresh index of its own flavor, and
        both flavors then evict the same sources."""
        trees = {1: _FakeTree({2, 5}), 3: _FakeTree({5, 9}), 7: _FakeTree({0})}
        a, b = EdgeSetIndex(), BitmaskIndex()
        for s, t in trees.items():
            a.register(s, t)
            b.register(s, t)
        a2, b2 = EdgeSetIndex(), BitmaskIndex()
        a2.restore(a.snapshot())
        b2.restore(b.snapshot())
        assert b2.invalidate([5]) == a2.invalidate([5]) == [1, 3]
        assert b2.invalidate([0]) == a2.invalidate([0]) == [7]
        assert b2.invalidate([2, 9]) == a2.invalidate([2, 9]) == []


# --------------------------------------------------------------------- #
# Bundle scoring
# --------------------------------------------------------------------- #
class TestBundleScores:
    @pytest.mark.parametrize("seed", range(10))
    def test_tiers_agree_bit_for_bit(self, seed):
        """The one-pass CSR sweep agrees bit for bit with the shaved
        ``reduceat`` expression and never exceeds the per-bundle reference
        score ``weights[bundle].sum() / value`` the fold compares."""
        rng = ensure_rng(seed)
        n = int(rng.integers(1, 30))
        sizes = rng.integers(1, 6, size=n)
        flat = rng.integers(0, 40, size=int(sizes.sum()))
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        weights = rng.uniform(0.01, 2.0, size=40)
        values = rng.uniform(0.5, 5.0, size=n)
        scores = Kernel().bundle_scores(weights, flat, starts, values)
        expected = (np.add.reduceat(weights[flat], starts) / values) * (1.0 - 1e-9)
        np.testing.assert_array_equal(scores, expected)
        for i, start in enumerate(starts.tolist()):
            bundle = flat[start : start + int(sizes[i])]
            assert scores[i] <= weights[bundle].sum() / values[i]


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
                allocation = bounded_ufp(inst, 0.3)
                payments = compute_ufp_payments(
                    lambda i, **kw: bounded_ufp(i, 0.3, **kw),
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
