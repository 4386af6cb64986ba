"""Built-in scenario suites.

Four pinned campaigns ship with the library:

* ``smoke`` — the CI smoke lane: 2 topologies × 2 regimes × offline+online,
  each cell tiny.  Exists to exercise run → kill → resume end to end in
  seconds.
* ``demo`` — the reference campaign: four topology families (fat-tree/Clos,
  Waxman WAN, Barabási–Albert scale-free, multi-region ISP composite)
  × three capacity regimes (tiny-capacity adversarial, the ``B ≈ ln m``
  boundary, the large-capacity regime of Theorem 3.1 — the latter with a
  heterogeneous mouse/elephant bid mix) × offline and online modes.
* ``capacity-ladder`` — the large-capacity stress ladder: one fat-tree and
  one Waxman topology swept across ``B = scale * ln m`` for
  ``scale ∈ {0.5, 1, 2, 4, 8}``, offline with payments on, so the ladder
  reports how ratio, admission rate and revenue move as the instance
  enters the paper's regime.
* ``chaos`` — the fault-injection lane: two small topologies, one regime,
  online modes sweeping :mod:`repro.faults` intensities (a fault-free
  baseline, link failures with repair, capacity churn, a jamming stream
  with an upfront fee, and everything at once).  Exists so the degradation
  path — revocations, refunds, requeues, jam accounting — runs end to end
  on every CI pass.
* ``partition`` — the partition-parity lane: a multi-region ISP composite
  cleared offline with the partitioned solver next to the global one, over
  the natural region cut, the trivial 1-region cut and a generic BFS cut.
  Exists so the bit-identity contract of :mod:`repro.partition` (through
  the shard merge on the 1-region cut, through the global fallback on the
  two cuts with cross-region traffic) runs end to end on every CI pass.

All are plain dicts — copy one, edit it, and pass it to
``repro.scenarios run`` as a JSON file to build your own campaign.
"""

from __future__ import annotations

from typing import Any

__all__ = ["BUILTIN_SUITES", "available_suites", "get_suite"]


def _smoke_suite() -> dict[str, Any]:
    return {
        "name": "smoke",
        "seed": 11,
        "description": "tiny run/kill/resume smoke campaign (CI lane)",
        "topologies": [
            {"name": "grid", "family": "grid", "rows": 3, "cols": 3},
            {"name": "wax", "family": "waxman", "num_vertices": 10},
        ],
        "regimes": [
            {"name": "tiny", "capacity": 2.0, "num_requests": 10},
            {
                "name": "logm",
                "capacity": {"scale_log_m": 2.0, "min": 2.0},
                "num_requests": 10,
            },
        ],
        "modes": [
            {"name": "offline", "kind": "offline", "epsilon": "auto", "bound": "lp"},
            {
                "name": "stream",
                "kind": "online",
                "epsilon": "auto",
                "arrivals": "bursty",
                "burst_size": 4,
            },
        ],
    }


def _demo_suite() -> dict[str, Any]:
    return {
        "name": "demo",
        "seed": 7,
        "description": (
            "4 topology families x 3 capacity regimes x offline+online — the "
            "pinned reference campaign"
        ),
        "topologies": [
            {"name": "clos", "family": "fat_tree", "k": 4},
            {"name": "wan", "family": "waxman", "num_vertices": 18, "alpha": 0.7},
            {
                "name": "scalefree",
                "family": "barabasi_albert",
                "num_vertices": 18,
                "attachments": 2,
            },
            {
                "name": "regions",
                "family": "multi_region",
                "regions": 3,
                "cores_per_region": 3,
                "leaves_per_core": 2,
            },
        ],
        "regimes": [
            {
                "name": "adversarial-tiny",
                "capacity": 2.0,
                "num_requests": 24,
                "demand_range": [0.5, 1.0],
            },
            {
                "name": "boundary",
                "capacity": {"scale_log_m": 1.0, "min": 2.0},
                "num_requests": 24,
            },
            {
                "name": "large-cap-mix",
                "capacity": {"scale_log_m": 6.0, "min": 4.0},
                "num_requests": 28,
                "mix": [
                    {
                        "fraction": 0.8,
                        "demand_range": [0.05, 0.25],
                        "value_range": [0.4, 1.2],
                    },
                    {
                        "fraction": 0.2,
                        "demand_range": [0.7, 1.0],
                        "value_range": [2.0, 6.0],
                        "value_proportional_to_demand": True,
                    },
                ],
            },
        ],
        "modes": [
            {"name": "offline", "kind": "offline", "epsilon": "auto", "bound": "lp"},
            {
                "name": "stream",
                "kind": "online",
                "epsilon": "auto",
                "arrivals": "poisson",
                "rate": 3.0,
                "compare_offline": True,
            },
        ],
    }


def _capacity_ladder_suite() -> dict[str, Any]:
    return {
        "name": "capacity-ladder",
        "seed": 13,
        "description": (
            "B = scale * ln(m) ladder into the Theorem 3.1 regime, payments on"
        ),
        "topologies": [
            {"name": "clos", "family": "fat_tree", "k": 4},
            {"name": "wan", "family": "waxman", "num_vertices": 20},
        ],
        "regimes": [
            {
                "name": f"B{str(scale).replace('.', 'p')}logm",
                "capacity": {"scale_log_m": scale, "min": 1.0},
                "num_requests": {"per_vertex": 3.0},
                "demand_range": [0.4, 1.0],
            }
            for scale in (0.5, 1.0, 2.0, 4.0, 8.0)
        ],
        "modes": [
            {
                "name": "auction",
                "kind": "offline",
                "epsilon": "auto",
                "bound": "lp",
                "payments": True,
            }
        ],
    }


def _chaos_suite() -> dict[str, Any]:
    base = {
        "kind": "online",
        "epsilon": "auto",
        "arrivals": "bursty",
        "burst_size": 4,
        "compare_offline": False,
    }
    return {
        "name": "chaos",
        "seed": 29,
        "description": (
            "fault-injection lane: failures, churn and jamming over small "
            "topologies (CI chaos smoke)"
        ),
        "topologies": [
            {"name": "grid", "family": "grid", "rows": 3, "cols": 3},
            {"name": "wax", "family": "waxman", "num_vertices": 12},
        ],
        "regimes": [
            {
                "name": "logm",
                "capacity": {"scale_log_m": 2.0, "min": 2.0},
                "num_requests": 16,
            }
        ],
        "modes": [
            # Intensities are deliberately violent — the lane exists to make
            # the degradation paths (revocation, refund, requeue, jam
            # accounting) actually fire on these tiny instances, not to
            # model a realistic failure rate.
            {"name": "stream", **base},
            {
                "name": "failures",
                **base,
                "faults": {"edge_failure_rate": 1.5, "failure_duration": 2},
            },
            {
                "name": "churn",
                **base,
                "faults": {
                    "churn_rate": 1.5,
                    "churn_factor_range": [0.05, 0.35],
                    "churn_edges": 6,
                    "churn_duration": 2,
                },
            },
            {
                "name": "jam",
                **base,
                "payments": True,
                "compensation_rate": 0.1,
                "faults": {
                    "jam_rate": 1.5,
                    "jam_demand_range": [0.5, 1.0],
                    "jam_value_range": [0.01, 0.05],
                    "upfront_fee": 0.02,
                },
            },
            {
                "name": "everything",
                **base,
                "payments": True,
                "compensation_rate": 0.1,
                "faults": {
                    "edge_failure_rate": 1.5,
                    "failure_duration": 2,
                    "churn_rate": 1.5,
                    "churn_factor_range": [0.05, 0.35],
                    "churn_edges": 6,
                    "churn_duration": 2,
                    "jam_rate": 1.0,
                    "jam_value_range": [0.01, 0.05],
                    "upfront_fee": 0.01,
                },
            },
        ],
    }


def _partition_suite() -> dict[str, Any]:
    return {
        "name": "partition",
        "seed": 43,
        "description": (
            "partitioned-vs-global parity lane over a multi-region ISP "
            "composite (CI partition smoke)"
        ),
        "topologies": [
            {
                "name": "regions",
                "family": "multi_region",
                "regions": 3,
                "cores_per_region": 3,
                "leaves_per_core": 2,
            },
        ],
        "regimes": [
            {
                "name": "logm",
                "capacity": {"scale_log_m": 2.0, "min": 2.0},
                "num_requests": 20,
            }
        ],
        "modes": [
            # Cross-region traffic exists in this workload, so the natural
            # cut and the generic BFS cut both fall back to the global
            # solver and must be bit-identical to it; the 1-region cut is
            # intra-only and must be bit-identical through the shard merge
            # (both claimed inside the cell).  The BFS cut also exercises
            # the arbitrary-graph partitioner end to end.
            {
                "name": "part-auto",
                "kind": "offline",
                "epsilon": "auto",
                "bound": "lp",
                "partition": "auto",
            },
            {
                "name": "part-1",
                "kind": "offline",
                "epsilon": "auto",
                "bound": "none",
                "partition": 1,
            },
            {
                "name": "part-bfs2",
                "kind": "offline",
                "epsilon": "auto",
                "bound": "none",
                "partition": {"regions": 2},
            },
        ],
    }


BUILTIN_SUITES = {
    "smoke": _smoke_suite,
    "demo": _demo_suite,
    "capacity-ladder": _capacity_ladder_suite,
    "chaos": _chaos_suite,
    "partition": _partition_suite,
}


def available_suites() -> list[str]:
    """Names of the built-in suites."""
    return sorted(BUILTIN_SUITES)


def get_suite(name: str) -> dict[str, Any]:
    """A fresh copy of a built-in suite spec by name."""
    key = name.strip().lower()
    if key not in BUILTIN_SUITES:
        raise KeyError(
            f"unknown suite {name!r}; built-ins: {', '.join(available_suites())}"
        )
    return BUILTIN_SUITES[key]()
