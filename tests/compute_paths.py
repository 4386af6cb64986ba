"""Test-only switches for the compute path.

These context managers let the parity suites pin the parts of the compute
path that have an alternative implementation kept as an oracle:

* ``tree_path("lists")`` runs the Python loop on every graph;
  ``tree_path("scipy")`` sets the C-tree vertex threshold to 0, so every
  graph that qualifies (weights > 0, no parallel arcs) gets C trees.  The
  program itself picks one of them by graph size
  (:func:`repro.graphs.shortest_path.shortest_path_tree`).
* ``commit_path("lists")`` swaps the path engine's tree-cache eviction
  (:meth:`PathPricingEngine._invalidate_edges`, which probes each cached
  tree's ``edge_mask``) for its oracle, :func:`stale_sources`, which reads
  each tree's ``parent_edge`` array instead, so a wrong mask shows up as a
  disagreement.  ``commit_path("numpy")`` is the production eviction,
  unchanged.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from unittest import mock

from repro.core.pricing_engine import PathPricingEngine

# repro.graphs re-exports a function named shortest_path that shadows the
# module attribute; import the module itself.
_sp = importlib.import_module("repro.graphs.shortest_path")

TREE_PATHS = ("lists", "scipy")
COMMIT_PATHS = ("lists", "numpy")


def stale_sources(trees, edge_ids) -> list[int]:
    """The sources in ``trees`` (source -> tree) whose tree has a parent
    edge in ``edge_ids``, read from ``tree.parent_edge``."""
    edges = set(edge_ids)
    return sorted(
        s for s, tree in trees.items() if not edges.isdisjoint(tree.parent_edge)
    )


def _invalidate_edges_oracle(engine, edge_ids) -> None:
    """:meth:`PathPricingEngine._invalidate_edges` with :func:`stale_sources`
    choosing the evicted trees; same epoch and counter bookkeeping."""
    for source in stale_sources(engine._trees, edge_ids):
        del engine._trees[source]
        engine._source_epoch[source] = engine._source_epoch.get(source, 0) + 1
        engine.stats.trees_invalidated += 1


@contextmanager
def tree_path(name: str):
    threshold = {"lists": sys.maxsize, "scipy": 0}[name]
    with mock.patch.object(_sp, "C_TREE_MIN_VERTICES", threshold):
        yield


@contextmanager
def commit_path(name: str):
    invalidate = {
        "lists": _invalidate_edges_oracle,
        "numpy": PathPricingEngine._invalidate_edges,
    }[name]
    with mock.patch.object(PathPricingEngine, "_invalidate_edges", invalidate):
        yield


@contextmanager
def compute_path(trees: str, commit: str):
    with tree_path(trees), commit_path(commit):
        yield
