"""The four benchmark workloads.

Each workload owns a pool of ``POOL`` inputs derived from the seed.  Ops
walk the pool in order, cycle after cycle; every op gets a freshly built
input (new graph objects, so no tree memo carries over from an earlier
op) and every cycle gets fresh durable state (store or service root), so
each cycle repeats the same work exactly.

A workload provides:

* ``start_cycle()`` — fresh per-cycle state (untimed);
* ``prepare(i)`` — build input ``i`` of the pool (untimed);
* ``run(inp)`` — the op (timed);
* ``check(i, inp, out, counters)`` — invariants and the op's output digest
  (untimed); ``counters(key, value)`` receives exact per-op counters;
* ``end_cycle()`` — a digest of the whole cycle, or ``None``.

The program's functions are looked up through their modules at call time,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import shutil
from functools import partial

import numpy as np

import repro.core as core
import repro.flows as flows
import repro.graphs.generators as graph_generators
import repro.graphs.partition as graph_partition
import repro.mechanism as mechanism
import repro.partition as partition
import repro.scenarios as scenarios
import repro.service as service
from repro.io import dumps_canonical


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, index])


def _routed_key(allocation) -> list:
    return [(r.request_index, r.vertices, r.edge_ids) for r in allocation.routed]


class Workload:
    POOL = 1

    def __init__(self, seed: int, scratch):
        self.seed = int(seed)
        self.scratch = scratch
        self.cycle = -1

    def _cycle_dir(self, prefix: str):
        """A fresh directory for this cycle; the previous one is removed."""
        if self.cycle >= 0:
            shutil.rmtree(self.scratch / f"{prefix}-{self.cycle}", ignore_errors=True)
        self.cycle += 1
        return self.scratch / f"{prefix}-{self.cycle}"

    def start_cycle(self) -> None:
        self.cycle += 1

    def end_cycle(self) -> str | None:
        return None


class CampaignLP(Workload):
    """Offline Bounded-UFP campaign cells with the LP bound, each committed
    to a result store.  The pool is every cell of one suite: the demo
    suite's topology families, two seeds each, across its regimes."""

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        demo = scenarios.get_suite("demo")
        topologies = [
            {**topology, "name": f"{topology['name']}-{variant}"}
            for topology in demo["topologies"]
            for variant in ("a", "b")
        ]
        self.suite = {
            "name": "perfbench-campaign",
            "seed": int(_rng(seed, 1, 0).integers(2**31)),
            "topologies": topologies,
            "regimes": demo["regimes"],
            "modes": [
                {"name": "offline", "kind": "offline", "epsilon": "auto", "bound": "lp"}
            ],
        }
        self.cells = scenarios.enumerate_cells(self.suite)
        self.hashes = [scenarios.cell_hash(cell) for cell in self.cells]
        self.POOL = len(self.cells)

    def start_cycle(self):
        self.store = scenarios.ResultStore(self._cycle_dir("campaign"))
        self.store.initialize(self.suite, fresh=True)

    def prepare(self, index):
        return index

    def run(self, index):
        cell = self.cells[index]
        record = scenarios.run_cell(cell).rows[0]
        self.store.append(cell.key, self.hashes[index], record)
        return record

    def check(self, index, inp, record, counters):
        ok = bool(record.get("claims_ok")) and "bound" in record
        return ok, _sha(dumps_canonical(record))

    def end_cycle(self):
        return self.store.content_hash()


class AuctionPayments(Workload):
    """Contended sealed-bid auctions: allocation plus trace-replay
    critical-value payments, no LP."""

    POOL = 48
    EPSILON = 0.5

    def prepare(self, index):
        return flows.random_instance(
            num_vertices=12,
            edge_probability=0.25,
            capacity=10.0,
            num_requests=50,
            demand_range=(0.5, 1.0),
            seed=_rng(self.seed, 2, index),
        )

    def run(self, instance):
        algorithm = partial(core.bounded_ufp, epsilon=self.EPSILON)
        allocation = algorithm(instance)
        replay_stats: dict = {}
        payments = mechanism.compute_ufp_payments(
            algorithm,
            instance,
            allocation,
            use_trace=True,
            replay_stats=replay_stats,
            jobs=1,
        )
        return allocation, payments, replay_stats

    def check(self, index, instance, out, counters):
        allocation, payments, replay_stats = out
        values = instance.values_array()
        winners = allocation.selected_indices()
        losers = [i for i in range(instance.num_requests) if i not in winners]
        ok = (
            allocation.is_feasible()
            and bool((payments >= 0.0).all())
            and bool((payments <= values + 1e-9).all())
            and not payments[losers].any()
            and bool(replay_stats)
        )
        for key in ("probes", "certificate_hits", "rounds_skipped",
                    "rounds_replayed", "rounds_recomputed"):
            counters(f"replay.{key}", replay_stats.get(f"replay_{key}", 0.0))
        return ok, _sha(_routed_key(allocation), payments.tobytes())


class ISPClearing(Workload):
    """A fresh 360-vertex, 10-region ISP composite per op, cleared by the
    global solver and by the partitioned solver over the natural cut."""

    POOL = 6
    EPSILON = 0.5
    REGIONS, CORES, LEAVES = 10, 6, 5
    REQUESTS = 900

    def prepare(self, index):
        rng = _rng(self.seed, 3, index)
        # Backbone links cost as much as core links, so an intra-region
        # route never pays off by leaving its region: that keeps the
        # global clearing inside the cut, where partitioned ≡ global.
        graph = graph_generators.multi_region_topology(
            self.REGIONS, self.CORES, self.LEAVES, 30.0, 30.0, 15.0, seed=rng
        )
        block = self.CORES * (1 + self.LEAVES)
        # Every region gets the same number of requests, in a random order:
        # one crowded region would make an op cost more for that seed alone.
        regions = rng.permutation(
            np.repeat(np.arange(self.REGIONS), self.REQUESTS // self.REGIONS)
        )
        requests = []
        for region in regions:
            region = int(region)
            leaves = np.arange(region * block + self.CORES, (region + 1) * block)
            u, v = rng.choice(leaves, size=2, replace=False)
            requests.append(
                flows.Request(
                    int(u),
                    int(v),
                    demand=float(rng.uniform(0.2, 1.0)),
                    value=float(rng.uniform(0.5, 2.0)),
                )
            )
        cut = graph_partition.multi_region_partition(
            graph, self.REGIONS, self.CORES, self.LEAVES
        )
        return flows.UFPInstance(graph, requests), cut

    def run(self, inp):
        instance, cut = inp
        global_run = core.bounded_ufp(instance, self.EPSILON)
        partitioned = partition.partitioned_bounded_ufp(
            instance, self.EPSILON, partition=cut, jobs=1
        )
        return global_run, partitioned

    def check(self, index, inp, out, counters):
        global_run, partitioned = out
        same = (
            _routed_key(global_run) == _routed_key(partitioned)
            and float(global_run.value) == float(partitioned.value)
        )
        ok = (
            same
            and global_run.is_feasible()
            and partitioned.is_feasible()
            and partitioned.stats.extra.get("partition_cross_requests") == 0.0
        )
        return ok, _sha(_routed_key(global_run), float(global_run.value).hex())


class ServiceJobs(Workload):
    """A closed loop with one in-process client: submit a small campaign
    job, run it on the supervisor, read its durable result."""

    POOL = 16

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.specs = [self._spec(index) for index in range(self.POOL)]
        self.ids = [service.job_id_for(spec) for spec in self.specs]
        self.references: dict[int, str] = {}

    def _spec(self, index):
        return {
            "kind": "campaign",
            "suite": {
                "name": f"perfbench-job-{index}",
                "seed": int(_rng(self.seed, 4, index).integers(2**31)),
                "topologies": [{"name": "g", "family": "grid", "rows": 3, "cols": 3}],
                "regimes": [
                    {"name": "r", "capacity": 6.0, "num_requests": 8},
                    {"name": "hi", "capacity": 9.0, "num_requests": 8},
                ],
                "modes": [
                    {"name": "off", "kind": "offline", "bound": "none"},
                    {"name": "on", "kind": "online"},
                ],
            },
        }

    def start_cycle(self):
        self.queue = service.JobQueue(self._cycle_dir("service"))
        self.supervisor = service.Supervisor(
            self.queue, config=service.SupervisorConfig(node="bench", jobs=1)
        )

    def prepare(self, index):
        self.wal_before = self._wal_size()
        return index

    def _wal_size(self) -> int:
        path = self.queue.wal.path
        return path.stat().st_size if path.exists() else 0

    def run(self, index):
        job, created = self.queue.submit(self.specs[index])
        ran = self.supervisor.run_one()
        return job, created, ran, self.supervisor.load_result(job.id)

    def reference(self, index) -> str:
        """The content hash of a direct ``run_campaign`` of the same suite."""
        if index not in self.references:
            suite = self.specs[index]["suite"]
            store = scenarios.ResultStore(self.scratch / f"reference-{index}")
            scenarios.run_campaign(suite, store=store, jobs=1, fresh=True)
            keys = [cell.key for cell in scenarios.enumerate_cells(suite)]
            self.references[index] = store.content_hash(keys)
        return self.references[index]

    def check(self, index, inp, out, counters):
        job, created, ran, result = out
        counters("service.wal_bytes_per_job", self._wal_size() - self.wal_before)
        ok = (
            created
            and job.id == self.ids[index]
            and ran is not None
            and ran.id == job.id
            and self.queue.get(job.id).state == "DONE"
            and result is not None
            and bool(result.get("claims_ok"))
            and not result.get("failed_cells")
            and result.get("content_hash") == self.reference(index)
        )
        digest = result.get("content_hash") if result else None
        return ok, str(digest)


WORKLOADS = {
    "campaign_lp": CampaignLP,
    "auction_payments": AuctionPayments,
    "isp_clearing": ISPClearing,
    "service_jobs": ServiceJobs,
}
