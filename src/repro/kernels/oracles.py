"""Test oracles for the compute kernel's commit path.

The straightforward forms of the two commit-path primitives that
:class:`repro.kernels.Kernel` and :class:`repro.kernels.BitmaskIndex`
replace, kept beside :func:`repro.graphs.shortest_path.reference_dijkstra`
and :mod:`repro.core.reference` so the differential tests can check the
production forms against them.  Nothing in the program runs these.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EdgeSetIndex", "reference_dual_update"]


def reference_dual_update(y, capacities, ids, epsilon, B, demand):
    """The per-path exponential dual update: ``y[ids] *= exp(eps B d /
    c[ids])`` in place; returns the budget increment as a float."""
    caps = capacities[ids]
    old = y[ids]
    new = old * np.exp(epsilon * B * demand / caps)
    y[ids] = new
    return float(caps @ (new - old))


class EdgeSetIndex:
    """The tree-cache invalidation index as dict-of-sets bookkeeping.

    Maps each registered source to the set of parent edges of its tree,
    read from ``tree.parent_edge`` (not from the tree's bitmask, so a wrong
    mask shows up as a disagreement), and each edge to the sources whose
    trees use it.  Same protocol as :class:`repro.kernels.BitmaskIndex`.
    """

    __slots__ = ("_edge_sources", "_tree_edges")

    def __init__(self):
        self._edge_sources: dict[int, set[int]] = {}
        self._tree_edges: dict[int, frozenset[int]] = {}

    def _add(self, source: int, edge_set: frozenset[int]) -> None:
        self._tree_edges[source] = edge_set
        for eid in edge_set:
            self._edge_sources.setdefault(eid, set()).add(source)

    def register(self, source: int, tree) -> None:
        self._add(source, frozenset(e for e in tree.parent_edge if e >= 0))

    def invalidate(self, edge_ids) -> list[int]:
        hit: set[int] = set()
        for eid in edge_ids:
            hit |= self._edge_sources.get(eid, set())
        for source in hit:
            for eid in self._tree_edges.pop(source):
                sources = self._edge_sources[eid]
                sources.discard(source)
                if not sources:
                    del self._edge_sources[eid]
        return sorted(hit)

    def snapshot(self) -> tuple:
        return tuple(sorted(self._tree_edges.items()))

    def restore(self, payload) -> None:
        self._edge_sources = {}
        self._tree_edges = {}
        for source, edge_set in payload:
            self._add(source, edge_set)
