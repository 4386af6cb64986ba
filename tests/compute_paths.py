"""Test-only switches for the compute path.

The program has one compute path (:mod:`repro.kernels`).  These context
managers let the parity suites pin the parts of it that have an
alternative implementation kept as an oracle:

* ``tree_path("lists")`` runs the Python loop on every graph;
  ``tree_path("scipy")`` sets the C-tree vertex threshold to 0, so every
  graph that qualifies (weights > 0, no parallel arcs) gets C trees.
* ``commit_path("lists")`` swaps the commit path for its oracles: the
  per-path dual update and the edge-set invalidation index.
  ``commit_path("numpy")`` is the production multiplier table and bitmask
  index, unchanged.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.core import pricing_engine
from repro.kernels import Kernel
from repro.kernels.oracles import EdgeSetIndex, reference_dual_update

# repro.graphs re-exports a function named shortest_path that shadows the
# module attribute; import the module itself.
_sp = importlib.import_module("repro.graphs.shortest_path")

TREE_PATHS = ("lists", "scipy")
COMMIT_PATHS = ("lists", "numpy")


@contextmanager
def tree_path(name: str):
    threshold = {"lists": sys.maxsize, "scipy": 0}[name]
    with mock.patch.object(_sp, "C_TREE_MIN_VERTICES", threshold):
        yield


@contextmanager
def commit_path(name: str):
    if name not in COMMIT_PATHS:
        raise KeyError(name)
    with ExitStack() as stack:
        if name == "lists":
            stack.enter_context(
                mock.patch.object(
                    Kernel,
                    "dual_update",
                    lambda self, *args: reference_dual_update(*args),
                )
            )
            stack.enter_context(
                mock.patch.object(pricing_engine, "BitmaskIndex", EdgeSetIndex)
            )
        yield


@contextmanager
def compute_path(trees: str, commit: str):
    with tree_path(trees), commit_path(commit):
        yield
