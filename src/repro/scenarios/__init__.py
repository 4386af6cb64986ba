"""Scenario campaigns: declarative sweeps with a resumable result store.

The experiments of :mod:`repro.experiments` each reproduce one claim of
the paper on hand-picked workloads.  This package is the broad-coverage
layer on top of the same machinery: a *suite* is a plain-dict cross
product of

* **topology families** — fat-tree/Clos datacenters, Waxman WANs,
  Barabási–Albert scale-free graphs, multi-region ISP composites, plus the
  stock grid/ring/random/ISP topologies (:mod:`repro.scenarios.topologies`);
* **demand regimes** — capacity ladders sweeping ``B`` against ``ln m``,
  tiny-capacity adversarial settings, heterogeneous bid mixes
  (:mod:`repro.scenarios.regimes`);
* **workload modes** — offline ``Bounded-UFP`` (optionally with
  critical-value payments), the repetitions variant, and online streaming
  auctions (:mod:`repro.scenarios.runner`).

Campaign cells fan out through :func:`repro.parallel.pmap` (bit-identical
at any ``jobs``) and every completed cell is committed to a persistent JSONL
:class:`~repro.scenarios.store.ResultStore` as one self-checking line
(its cell's content hash, its record and a SHA-256 of both), so
``repro.scenarios run/resume`` skips already-computed cells after a crash
or interrupt and the store's content hash certifies that a resumed
campaign equals an uninterrupted one.

Quickstart
----------
>>> from repro import scenarios
>>> result = scenarios.run_campaign(scenarios.get_suite("smoke"))
>>> result.all_cells_ok
True

Command line::

    python -m repro.scenarios list
    python -m repro.scenarios run demo --store runs/demo --jobs 4
    python -m repro.scenarios resume --store runs/demo
    python -m repro.scenarios report --store runs/demo
"""

from repro.scenarios.report import campaign_table, render_report
from repro.scenarios.runner import CampaignResult, run_campaign, run_cell
from repro.scenarios.specs import (
    CellSpec,
    cell_hash,
    enumerate_cells,
    normalize_suite,
    suite_hash,
)
from repro.scenarios.store import ResultStore
from repro.scenarios.suites import BUILTIN_SUITES, available_suites, get_suite
from repro.scenarios.topologies import available_families, build_topology

__all__ = [
    "CampaignResult",
    "CellSpec",
    "ResultStore",
    "BUILTIN_SUITES",
    "available_suites",
    "available_families",
    "build_topology",
    "campaign_table",
    "cell_hash",
    "enumerate_cells",
    "get_suite",
    "normalize_suite",
    "render_report",
    "run_campaign",
    "run_cell",
    "suite_hash",
]
