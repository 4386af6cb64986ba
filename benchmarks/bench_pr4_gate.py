"""The perf-regression gate benchmarks (PR 4).

The four PR 3 headline timings (payments on the medium instance, one
``Bounded-UFP`` medium solve, one E9 scaling cell, one E10 online batch
stream) plus the two trace-replay rows this PR commits to:

* ``payments_replay_medium`` — critical-value payments for every winner of
  the *contended* medium instance from the probe tables.  The committed baseline
  encodes the trace path's speedup over the from-scratch path; a regression
  here means the per-agent probe tables stopped paying for themselves.
* ``e4_audit_cell`` — the E4 truthfulness audit cell through the traced
  audit path.

The partitioned-solver PR adds a row pair on one medium multi-region
instance — ``partition_region_medium`` (per-shard fast path) vs
``ufp_region_medium_global`` (the global solver) — so the committed
baseline both gates the partitioned layer's performance and documents its
speedup over the global solve.

Recorded to ``BENCH_PR4.json`` in CI and compared against the committed
baseline ``benchmarks/BENCH_PR4.json`` by ``benchmarks/compare_bench.py``,
which fails the build on a >20% normalized mean-time regression.
Regenerate the baseline (on the reference machine) with::

    PYTHONPATH=src python -m pytest benchmarks/bench_pr4_gate.py -q \
        --benchmark-json=benchmarks/BENCH_PR4.json
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core import bounded_ufp
from repro.experiments import run_experiment
from repro.flows import random_instance
from repro.mechanism import compute_ufp_payments
from repro.online import OnlineAuction, bursty_arrivals

#: Every row times one untimed warm-up round, then the mean of 8.  Three
#: rounds without a warm-up let a row's normalized mean move by up to about
#: 25% between runs of the same code.  A row whose call takes a few ms
#: passes ``iterations=`` so that a round times enough calls for its 8
#: rounds to span about 2 s, as the other rows' rounds of one call each
#: (220-540 ms) do: 8 rounds of one 3-ms call sample the host's speed over
#: a 25-ms window, and such rows' normalized means spread 33-40% from run
#: to run.
_ROUNDS = {"rounds": 8, "warmup_rounds": 1}


@pytest.fixture(scope="module")
def medium_instance():
    # Mirrors bench_micro_primitives.medium_instance.
    return random_instance(
        num_vertices=20, edge_probability=0.2, capacity=50.0,
        num_requests=80, demand_range=(0.3, 1.0), seed=13,
    )


@pytest.fixture(scope="module")
def contended_medium_instance():
    # Mirrors bench_trace_replay.contended_instance: the budget rule fires
    # mid-run, so every winner pays a positive critical value.
    return random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=120, demand_range=(0.5, 1.0), seed=13,
    )


def test_gate_payments_medium(benchmark, medium_instance, jobs):
    """Critical-value payments for every winner of the medium instance,
    each probe a re-run (the path the committed baseline timed)."""
    algorithm = partial(bounded_ufp, epsilon=0.3)
    allocation = bounded_ufp(medium_instance, 0.3)

    payments = benchmark.pedantic(
        lambda: compute_ufp_payments(
            algorithm, medium_instance, allocation, jobs=jobs, use_trace=False
        ),
        **_ROUNDS,
    )
    assert np.all(payments >= 0.0)


def test_gate_payments_replay_medium(benchmark, contended_medium_instance, jobs):
    """Trace-replay payments on the contended medium instance (PR 4)."""
    algorithm = partial(bounded_ufp, epsilon=0.3)
    allocation = bounded_ufp(contended_medium_instance, 0.3)

    payments = benchmark.pedantic(
        lambda: compute_ufp_payments(
            algorithm, contended_medium_instance, allocation, jobs=jobs
        ),
        **_ROUNDS,
    )
    assert (payments > 0).sum() == allocation.num_selected


def test_gate_e4_audit_cell(benchmark, jobs):
    """The full E4 experiment (audits through the traced path) (PR 4)."""
    result = benchmark.pedantic(
        lambda: run_experiment("E4", quick=True, seed=7, jobs=jobs),
        **_ROUNDS,
    )
    assert result.all_claims_hold


def test_gate_bounded_ufp_medium(benchmark, medium_instance):
    """One full Bounded-UFP run on the medium instance (about 2.4 ms)."""
    allocation = benchmark.pedantic(
        lambda: bounded_ufp(medium_instance, 0.3), **_ROUNDS, iterations=100
    )
    assert allocation.is_feasible()


def test_gate_e9_cell(benchmark, jobs):
    """The E9 scaling sweep (quick cells) through the harness fan-out."""
    result = benchmark.pedantic(
        lambda: run_experiment("E9", quick=True, seed=7, jobs=jobs),
        **_ROUNDS,
    )
    assert result.all_claims_hold


def test_gate_campaign_cell_small(benchmark):
    """One small scenario-campaign cell end to end (PR 5): topology build,
    regime resolution, offline Bounded-UFP clearing and the LP bound."""
    from repro.scenarios import enumerate_cells, run_cell

    suite = {
        "name": "bench",
        "seed": 17,
        "topologies": [{"name": "wan", "family": "waxman", "num_vertices": 16}],
        "regimes": [
            {
                "name": "stress",
                "capacity": {"scale_log_m": 3.0, "min": 2.0},
                "num_requests": 30,
            }
        ],
        "modes": [{"name": "offline", "kind": "offline", "bound": "lp"}],
    }
    (cell,) = enumerate_cells(suite)

    # About 10.5 ms per cell.
    outcome = benchmark.pedantic(lambda: run_cell(cell), **_ROUNDS, iterations=24)
    record = outcome.rows[0]
    assert record["claims_ok"] and record["admitted"] > 0


@pytest.fixture(scope="module")
def region_medium():
    # A medium multi-region composite with an intra-region-only workload:
    # the partitioned fast path's home turf.  10 regions x (6 cores, 5
    # leaves/core) = 360 vertices / 495 edges, 900 leaf-to-leaf requests —
    # big enough that per-shard pricing wins clearly (~6x serial).
    from repro.flows import Request, UFPInstance
    from repro.graphs.generators import multi_region_topology
    from repro.graphs.partition import multi_region_partition
    from repro.utils.prng import ensure_rng

    regions, cores, leaves = 10, 6, 5
    rng = ensure_rng(41)
    graph = multi_region_topology(
        regions, cores, leaves, 60.0, 30.0, 15.0, seed=int(rng.integers(2**31))
    )
    block = cores * (1 + leaves)
    requests = []
    for _ in range(900):
        region = int(rng.integers(regions))
        pool = np.arange(region * block + cores, (region + 1) * block)
        u, v = rng.choice(pool, size=2, replace=False)
        requests.append(
            Request(
                int(u), int(v),
                demand=float(rng.uniform(0.2, 1.0)),
                value=float(rng.uniform(0.5, 2.0)),
            )
        )
    instance = UFPInstance(graph, requests)
    return instance, multi_region_partition(graph, regions, cores, leaves)


def test_gate_partition_region_medium(benchmark, region_medium):
    """Partitioned Bounded-UFP over the natural region cut (this PR).

    Read next to ``test_gate_ufp_region_medium_global`` — same instance
    through the global solver — the pair documents the per-shard speedup
    the partitioned layer exists for (~6x serial on this shape).
    """
    from repro.partition import partitioned_bounded_ufp

    instance, partition = region_medium
    allocation = benchmark.pedantic(
        lambda: partitioned_bounded_ufp(
            instance, 0.5, partition=partition, jobs=1
        ),
        **_ROUNDS,
    )
    assert allocation.is_feasible() and allocation.num_selected > 0
    assert allocation.stats.extra["partition_cross_requests"] == 0.0


def test_gate_ufp_region_medium_global(benchmark, region_medium):
    """The global solver on the region-medium instance (the partitioned
    row's comparison point)."""
    instance, _partition = region_medium
    allocation = benchmark.pedantic(lambda: bounded_ufp(instance, 0.5), **_ROUNDS)
    assert allocation.is_feasible() and allocation.num_selected > 0


def test_gate_e10_online_batch(benchmark):
    """One bursty stream through the online auction (the E10 hot path)."""
    instance = random_instance(
        num_vertices=12, edge_probability=0.2, capacity=12.0,
        num_requests=150, demand_range=(0.4, 1.0), seed=29,
    )

    def run():
        auction = OnlineAuction(instance.graph, 0.5, admission="greedy")
        return auction.run(
            bursty_arrivals(list(instance.requests), burst_size=8, seed=4)
        )

    # About 2.8 ms per stream.
    online = benchmark.pedantic(run, **_ROUNDS, iterations=90)
    assert online.is_feasible()
