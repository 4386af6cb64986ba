"""Units for the partitioned region-solving layer.

Covers the purely topological pieces (:mod:`repro.graphs.partition` —
partitioners, validation), the shard builder, the partitioned solver's two
paths on hand-sized instances (the intra-only shard merge and the global
fallback for cross-region traffic), and the scenario-runner wiring
(mode-spec resolution — including the ``partition: 1`` vs ``True``
regression — and a miniature end-to-end campaign).  The large pinned-seed
differential sweeps live in ``test_partition_fuzz.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_partition_fuzz import _assert_same_budget, _cut_disabled

from repro.core import PathPricingEngine, bounded_ufp
from repro.exceptions import InvalidInstanceError
from repro.flows import Request, UFPInstance
from repro.graphs import CapacitatedGraph
from repro.graphs.generators import multi_region_leaves, multi_region_topology
from repro.graphs.partition import (
    GraphPartition,
    bfs_partition,
    multi_region_partition,
    single_region_partition,
)
from repro.partition import build_shards, partitioned_bounded_ufp, resolve_partition
from repro.scenarios.runner import _resolve_cell_partition, run_campaign
from repro.scenarios.specs import enumerate_cells, normalize_suite


def _assert_same_allocation(actual, expected) -> None:
    assert [r.request_index for r in actual.routed] == [
        r.request_index for r in expected.routed
    ]
    assert [r.vertices for r in actual.routed] == [r.vertices for r in expected.routed]
    assert [r.edge_ids for r in actual.routed] == [r.edge_ids for r in expected.routed]
    assert actual.value == expected.value  # exact, not approx


def _regions_graph(
    regions: int = 3, cores: int = 2, leaves: int = 1, seed: int = 7
) -> CapacitatedGraph:
    return multi_region_topology(regions, cores, leaves, 40.0, 20.0, 10.0, seed=seed)


def _intra_requests(num_requests: int, seed: int) -> list[Request]:
    """Requests between two access leaves of one region of a 3 x 3 x 2
    composite (``_regions_graph(3, 3, 2)``)."""
    rng = np.random.default_rng(seed)
    block = 3 * (1 + 2)
    requests = []
    for _ in range(num_requests):
        r = int(rng.integers(3))
        leaves = np.arange(r * block + 3, (r + 1) * block)
        u, v = rng.choice(leaves, size=2, replace=False)
        requests.append(
            Request(
                int(u),
                int(v),
                demand=float(rng.uniform(0.2, 1.0)),
                value=float(rng.uniform(0.5, 2.0)),
            )
        )
    return requests


# ---------------------------------------------------------------------- #
# GraphPartition + partitioners
# ---------------------------------------------------------------------- #
class TestGraphPartition:
    def test_single_region_has_no_cut(self, diamond_graph):
        part = single_region_partition(diamond_graph)
        assert part.num_regions == 1
        assert part.num_cut_edges == 0
        np.testing.assert_array_equal(part.region_vertices(0), np.arange(4))
        np.testing.assert_array_equal(part.region_edge_ids(0), np.arange(5))

    def test_label_validation(self, diamond_graph):
        with pytest.raises(InvalidInstanceError, match="shape"):
            GraphPartition(diamond_graph, [0, 0, 0])
        with pytest.raises(InvalidInstanceError, match="non-negative"):
            GraphPartition(diamond_graph, [0, -1, 0, 0])
        with pytest.raises(InvalidInstanceError, match="empty"):
            GraphPartition(diamond_graph, [0, 0, 2, 2])  # region 1 missing

    def test_multi_region_cut_is_the_backbone(self):
        graph = _regions_graph(3, 2, 1)
        part = multi_region_partition(graph, 3, 2, 1)
        assert part.num_regions == 3
        # Backbone edges come first in the generator's layout: one link per
        # region pair -> C(3,2) cut edges, and nothing else is cut.
        np.testing.assert_array_equal(part.cut_edge_ids, [0, 1, 2])
        # Cut-edge endpoints are core vertices (local id < cores within block).
        block = 2 * (1 + 1)
        cut = part.cut_edge_ids
        for v in np.concatenate([graph.tails[cut], graph.heads[cut]]).tolist():
            assert v % block < 2
        # Every region's vertex set is its contiguous block, ascending.
        for r in range(3):
            np.testing.assert_array_equal(
                part.region_vertices(r), np.arange(r * block, (r + 1) * block)
            )

    def test_multi_region_layout_mismatch(self, diamond_graph):
        with pytest.raises(InvalidInstanceError, match="layout"):
            multi_region_partition(diamond_graph, 2, 2, 1)

    def test_bfs_partition_deterministic_and_complete(self):
        graph = _regions_graph(3, 3, 2, seed=11)
        a = bfs_partition(graph, 4, seed=123)
        b = bfs_partition(graph, 4, seed=123)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.num_regions == 4
        # Every vertex assigned, every region non-empty (ctor validates).
        assert set(np.unique(a.labels)) == {0, 1, 2, 3}
        c = bfs_partition(graph, 4, seed=456)
        assert c.num_regions == 4  # different seed still valid

    def test_bfs_partition_unreachable_vertices(self):
        # Two isolated vertices: BFS cannot reach them; round-robin fills in.
        graph = CapacitatedGraph(
            4, [(0, 1, 1.0)], directed=False
        )  # vertices 2, 3 isolated
        part = bfs_partition(graph, 2, seed=0)
        assert part.num_regions == 2
        assert sorted(np.unique(part.labels)) == [0, 1]

    def test_split_requests(self):
        graph = _regions_graph(2, 2, 1)
        part = multi_region_partition(graph, 2, 2, 1)
        block = 2 * (1 + 1)
        requests = [
            Request(2, 3, 1.0, 1.0),  # leaves of region 0
            Request(0, block + 1, 1.0, 1.0),  # core 0 -> core of region 1
            Request(block + 2, block + 3, 1.0, 1.0),  # leaves of region 1
        ]
        intra, cross = part.split_requests(requests)
        assert intra == [[0], [2]]
        assert cross == [1]


# ---------------------------------------------------------------------- #
# Shards
# ---------------------------------------------------------------------- #
class TestShards:
    def test_relabeling_round_trips(self):
        graph = _regions_graph(2, 2, 1)
        part = multi_region_partition(graph, 2, 2, 1)
        block = 2 * (1 + 1)
        requests = [
            Request(2, 3, 0.5, 1.0),
            Request(block + 2, block + 3, 0.5, 2.0),
            Request(2, block + 2, 0.5, 3.0),  # cross
        ]
        instance = UFPInstance(graph, requests)
        intra, cross = part.split_requests(requests)
        assert cross == [2]
        shards = build_shards(instance, part, intra)
        assert [s.num_requests for s in shards] == [1, 1]
        for r, shard in enumerate(shards):
            # Order-preserving compact relabeling, ascending in global id.
            np.testing.assert_array_equal(shard.vertices, part.region_vertices(r))
            np.testing.assert_array_equal(shard.edge_ids, part.region_edge_ids(r))
            # Capacities carried over edge by edge.
            for local, gid in enumerate(shard.edge_ids.tolist()):
                assert shard.graph.edge_capacity(local) == graph.edge_capacity(gid)
            # Round trip: local -> global -> local.
            locals_ = list(range(len(shard.vertices)))
            globals_ = shard.to_global_vertices(locals_)
            assert [shard.local_vertex[g] for g in globals_] == locals_
        # Shard-local request terminals map back to the original request.
        shard = shards[1]
        local_req = shard.requests[0]
        gidx = shard.request_indices[0]
        assert shard.vertices[local_req.source] == requests[gidx].source
        assert shard.vertices[local_req.target] == requests[gidx].target


# ---------------------------------------------------------------------- #
# The solver
# ---------------------------------------------------------------------- #
class TestPartitionedSolver:
    def test_single_region_matches_global(self, roomy_diamond_instance):
        expected = bounded_ufp(roomy_diamond_instance, 0.5)
        actual = partitioned_bounded_ufp(
            roomy_diamond_instance, 0.5, partition=1
        )
        _assert_same_allocation(actual, expected)
        assert actual.stats.extra["final_dual_budget"] == (
            expected.stats.extra["final_dual_budget"]
        )
        assert actual.stats.extra["partition_regions"] == 1.0

    def test_multi_region_intra_only_matches_global(self):
        graph = _regions_graph(3, 3, 2, seed=5)
        part = multi_region_partition(graph, 3, 3, 2)
        instance = UFPInstance(graph, _intra_requests(18, seed=17))
        expected = bounded_ufp(instance, 0.5)
        actual = partitioned_bounded_ufp(instance, 0.5, partition=part)
        _assert_same_allocation(actual, expected)
        assert actual.stats.stopped_by_budget == expected.stats.stopped_by_budget
        assert actual.stats.extra["partition_cross_requests"] == 0.0

    def test_cross_region_matches_global(self):
        graph = _regions_graph(3, 3, 2, seed=5)
        part = multi_region_partition(graph, 3, 3, 2)
        leaves = multi_region_leaves(3, 3, 2)
        rng = np.random.default_rng(29)
        requests = [
            Request(
                int(u),
                int(v),
                demand=float(rng.uniform(0.2, 1.0)),
                value=float(rng.uniform(0.5, 2.0)),
            )
            for u, v in (
                rng.choice(leaves, size=2, replace=False) for _ in range(20)
            )
        ]
        instance = UFPInstance(graph, requests)
        expected = bounded_ufp(instance, 0.5)
        actual = partitioned_bounded_ufp(instance, 0.5, partition=part)
        _assert_same_allocation(actual, expected)
        assert actual.stats.extra["final_dual_budget"] == (
            expected.stats.extra["final_dual_budget"]
        )
        assert actual.stats.stopped_by_budget == expected.stats.stopped_by_budget
        assert actual.stats.extra["partition_cross_requests"] > 0

    def test_merge_computes_at_most_one_step_past_the_consumed_ones(
        self, monkeypatch
    ):
        graph = _regions_graph(3, 3, 2, seed=5)
        part = multi_region_partition(graph, 3, 3, 2)
        instance = UFPInstance(graph, _intra_requests(60, seed=17))
        commits = []
        commit = PathPricingEngine.commit

        def counting_commit(engine, selection):
            commits.append(selection.index)
            commit(engine, selection)

        monkeypatch.setattr(PathPricingEngine, "commit", counting_commit)
        allocation = partitioned_bounded_ufp(instance, 0.5, partition=part)
        # The premise: the budget stops the merge with requests left over.
        assert allocation.stats.stopped_by_budget
        assert len(allocation.routed) < instance.num_requests
        # Each shard commits the steps the merge consumed, plus at most the
        # one head the merge pulled and did not consume.
        assert len(commits) <= len(allocation.routed) + part.num_regions

    def _assert_matches_cut_disabled_global(self, instance, part):
        expected = bounded_ufp(_cut_disabled(instance, part), 0.5)
        actual = partitioned_bounded_ufp(instance, 0.5, partition=part)
        _assert_same_allocation(actual, expected)
        _assert_same_budget(actual, expected)
        assert actual.stats.iterations == expected.stats.iterations
        return actual

    def test_no_requests_matches_cut_disabled_global(self):
        graph = _regions_graph(3, 3, 2, seed=5)
        part = multi_region_partition(graph, 3, 3, 2)
        actual = self._assert_matches_cut_disabled_global(
            UFPInstance(graph, []), part
        )
        assert actual.routed == []

    def test_region_without_internal_edges_matches_cut_disabled_global(self):
        # Region 1 is {2, 4}: every edge at 2 or 4 crosses the cut, so its
        # shard has no graph and the request 2 -> 4 is unroutable there, as
        # it is in the global run once the cut edges are disabled.
        graph = CapacitatedGraph(
            5,
            [(0, 1, 10.0), (1, 3, 10.0), (1, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0)],
            directed=False,
        )
        part = GraphPartition(graph, [0, 0, 1, 0, 1])
        requests = [Request(0, 3, 1.0, 1.0), Request(2, 4, 1.0, 1.0)]
        instance = UFPInstance(graph, requests)
        shards = build_shards(instance, part, part.split_requests(requests)[0])
        assert shards[1].graph is None and shards[1].request_indices == [1]
        actual = self._assert_matches_cut_disabled_global(instance, part)
        assert [r.request_index for r in actual.routed] == [0]

    def test_input_validation(self, roomy_diamond_instance):
        with pytest.raises(ValueError, match="epsilon"):
            partitioned_bounded_ufp(roomy_diamond_instance, 0.0, partition=1)
        graph = roomy_diamond_instance.graph
        heavy = UFPInstance(graph, [Request(0, 3, demand=2.0, value=1.0)])
        with pytest.raises(InvalidInstanceError, match="normalized"):
            partitioned_bounded_ufp(heavy, 0.5, partition=1)

    def test_resolve_partition_forms(self, diamond_graph):
        ready = single_region_partition(diamond_graph)
        assert resolve_partition(diamond_graph, ready) is ready
        assert resolve_partition(diamond_graph, 1).num_regions == 1
        assert resolve_partition(diamond_graph, 2, seed=3).num_regions == 2
        from_labels = resolve_partition(diamond_graph, [0, 0, 1, 1])
        assert from_labels.num_regions == 2
        other = CapacitatedGraph(3, [(0, 1, 1.0)], directed=True)
        with pytest.raises(InvalidInstanceError, match="different substrate"):
            resolve_partition(diamond_graph, single_region_partition(other))
        # Same vertex and edge counts, different edges: every edge of
        # `same_shape` crosses the labeling, so its shards would have no
        # edges and route nothing on `path`, where both requests fit.
        path = CapacitatedGraph(
            4, [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0)], directed=False
        )
        same_shape = CapacitatedGraph(
            4, [(0, 2, 10.0), (2, 1, 10.0), (1, 3, 10.0)], directed=False
        )
        foreign = GraphPartition(same_shape, [0, 0, 1, 1])
        with pytest.raises(InvalidInstanceError, match="different substrate"):
            resolve_partition(path, foreign)
        instance = UFPInstance(
            path, [Request(0, 1, 1.0, 1.0), Request(2, 3, 1.0, 1.0)]
        )
        assert bounded_ufp(instance, 0.5).num_selected == 2
        with pytest.raises(InvalidInstanceError, match="different substrate"):
            partitioned_bounded_ufp(instance, 0.5, partition=foreign)
        # A capacity change keeps the edge layout, so the partition still fits.
        own = GraphPartition(path, [0, 0, 1, 1])
        resized = path.with_capacities([20.0, 20.0, 20.0], disabled_edges=[1])
        assert resolve_partition(resized, own) is own


# ---------------------------------------------------------------------- #
# Scenario wiring
# ---------------------------------------------------------------------- #
def _partition_cell(partition_spec, *, family="multi_region"):
    topo = (
        {
            "name": "regions",
            "family": "multi_region",
            "regions": 2,
            "cores_per_region": 2,
            "leaves_per_core": 1,
        }
        if family == "multi_region"
        else {"name": "grid", "family": "grid", "rows": 3, "cols": 3}
    )
    suite = {
        "name": "ptest",
        "seed": 31,
        "topologies": [topo],
        "regimes": [{"name": "r", "capacity": 8.0, "num_requests": 6}],
        "modes": [
            {
                "name": "m",
                "kind": "offline",
                "epsilon": 0.5,
                "bound": "none",
                "partition": partition_spec,
            }
        ],
    }
    return enumerate_cells(normalize_suite(suite))[0]


class TestScenarioWiring:
    def test_partition_one_is_not_auto(self):
        # Regression: `1 == True` in Python, so a naive membership test
        # (`regions in ("auto", True)`) silently promoted the explicit
        # 1-region spec to the natural multi-region cut.
        from repro.scenarios.regimes import build_cell_instance

        cell = _partition_cell(1)
        instance, _topology, _base = build_cell_instance(cell)
        partition, exact = _resolve_cell_partition(cell, instance)
        assert partition.num_regions == 1
        assert exact is True

    def test_partition_auto_uses_natural_clusters(self):
        from repro.scenarios.regimes import build_cell_instance

        cell = _partition_cell("auto")
        instance, _topology, _base = build_cell_instance(cell)
        partition, exact = _resolve_cell_partition(cell, instance)
        assert partition.num_regions == 2
        assert exact is True
        # The natural cut of a 2x(2 cores, 1 leaf) composite is the backbone.
        assert partition.num_cut_edges == 1

    def test_partition_auto_rejects_other_families(self):
        from repro.scenarios.regimes import build_cell_instance

        cell = _partition_cell("auto", family="grid")
        instance, _topology, _base = build_cell_instance(cell)
        with pytest.raises(InvalidInstanceError, match="multi_region"):
            _resolve_cell_partition(cell, instance)

    def test_partition_dict_spec_runs_bfs(self):
        from repro.scenarios.regimes import build_cell_instance

        cell = _partition_cell({"regions": 3})
        instance, _topology, _base = build_cell_instance(cell)
        partition, exact = _resolve_cell_partition(cell, instance)
        assert partition.num_regions == 3
        assert exact is False

    def test_campaign_reports_partition_columns(self):
        suite = {
            "name": "ptest-campaign",
            "seed": 31,
            "topologies": [
                {
                    "name": "regions",
                    "family": "multi_region",
                    "regions": 2,
                    "cores_per_region": 2,
                    "leaves_per_core": 1,
                }
            ],
            "regimes": [{"name": "r", "capacity": 8.0, "num_requests": 8}],
            "modes": [
                {
                    "name": "part-auto",
                    "kind": "offline",
                    "epsilon": 0.5,
                    "bound": "none",
                    "partition": "auto",
                },
                {
                    "name": "part-1",
                    "kind": "offline",
                    "epsilon": 0.5,
                    "bound": "none",
                    "partition": 1,
                },
            ],
        }
        result = run_campaign(suite, jobs=1)
        assert result.all_cells_ok
        records = list(result.records.values())
        assert len(records) == 2
        by_mode = {record["mode"]: record for record in records}
        assert by_mode["part-auto"]["partition_regions"] == 2
        # Cross-region traffic runs the global solver, so the natural cut
        # is exact too.
        assert by_mode["part-auto"]["partition_cross"] > 0
        assert by_mode["part-auto"]["partition_exact"] is True
        assert by_mode["part-auto"]["partition_gap"] == 1.0
        # The trivial cut is intra-only by construction, so the runner
        # claims (and reports) bit-identity with the global solver.
        assert by_mode["part-1"]["partition_regions"] == 1
        assert by_mode["part-1"]["partition_cross"] == 0
        assert by_mode["part-1"]["partition_exact"] is True
        assert by_mode["part-1"]["partition_gap"] == 1.0

    def test_partition_rejected_on_online_modes(self):
        from repro.scenarios.runner import run_cell

        suite = {
            "name": "ptest-online",
            "seed": 31,
            "topologies": [
                {
                    "name": "regions",
                    "family": "multi_region",
                    "regions": 2,
                    "cores_per_region": 2,
                    "leaves_per_core": 1,
                }
            ],
            "regimes": [{"name": "r", "capacity": 8.0, "num_requests": 6}],
            "modes": [
                {
                    "name": "stream",
                    "kind": "online",
                    "epsilon": 0.5,
                    "arrivals": "bursty",
                    "compare_offline": False,
                    "partition": 1,
                }
            ],
        }
        cell = enumerate_cells(normalize_suite(suite))[0]
        with pytest.raises(InvalidInstanceError, match="offline"):
            run_cell(cell)
