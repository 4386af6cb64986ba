"""The compute kernel: the three hot loops of every auction round.

Three inner loops dominate the solvers — the shortest-path tree
(:func:`repro.graphs.shortest_path.shortest_path_tree`), the exponential
dual update of the commit path
(:meth:`repro.core.dual_state.DualWeights.apply_selection`) and the CSR
bundle scoring of the MUCA engine.  :func:`get_kernel` returns the one
:class:`Kernel` that runs them; there is no other implementation to select.

* ``dijkstra`` — C trees on large graphs, the Python loop on small ones
  (see :mod:`repro.graphs.shortest_path` for the size rule and why both
  give the same bits).
* ``dual_update`` — a *multiplier table*: the per-edge factors
  ``exp(eps B d / c_e)`` are computed once over the whole capacity vector
  per distinct ``(eps, B, d)`` and gathered per committed path.  Payment
  bisections and trace replays apply the same demands against the same
  capacities hundreds of times.
* the pricing engine's tree-cache invalidation index,
  :class:`BitmaskIndex`: each cached tree's parent-edge set is one
  Python-int bitmask, so invalidating a path is one OR and one AND-scan.

Determinism contract
--------------------
The table is bit-identical to the per-path arithmetic of
:func:`repro.kernels.oracles.reference_dual_update` by construction:
IEEE division is correctly rounded per element, so ``(s / c)[ids] ==
s / c[ids]``, and numpy's ``exp`` ufunc is positionally stable
(``np.exp(x)[ids] == np.exp(x[ids])``; ``tests/test_kernels.py``
re-verifies both).  The bitmask index evicts the same trees as the edge-set
oracle :class:`repro.kernels.oracles.EdgeSetIndex`.  ``math.exp`` is
forbidden here: it disagrees with ``np.exp`` in the last ulp on a few
percent of inputs.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.graphs.shortest_path import shortest_path_tree

__all__ = ["BitmaskIndex", "Kernel", "get_kernel"]

#: Above this edge count a full-vector exp table costs more than the
#: per-path gathers it saves under typical path lengths; the update then
#: computes the path's factors directly (the same bits either way).
_TABLE_MAX_EDGES = 4096
#: Per-capacity-vector cap on distinct (epsilon, B, demand) tables.
_TABLE_MAX_ENTRIES = 128

# capacity-array id -> (weakref to the array, {(eps, B, demand): table}).
# Keyed by id() with a weakref finalizer so a freed capacity vector drops
# its tables; the finalizer double-checks identity to survive id reuse.
# A module-global store, because the hot consumers (payment probes) build a
# fresh DualWeights per probe around a shared capacity array.
_TABLE_STORE: dict[int, tuple[weakref.ref, dict]] = {}


def _multiplier_table(capacities, epsilon, B, demand):
    key = id(capacities)
    entry = _TABLE_STORE.get(key)
    if entry is None or entry[0]() is not capacities:
        def _evict(_ref, _key=key):
            stored = _TABLE_STORE.get(_key)
            if stored is not None and stored[0]() is None:
                del _TABLE_STORE[_key]

        entry = (weakref.ref(capacities, _evict), {})
        _TABLE_STORE[key] = entry
    tables = entry[1]
    tkey = (epsilon, B, demand)
    table = tables.get(tkey)
    if table is None:
        if len(tables) >= _TABLE_MAX_ENTRIES:
            tables.clear()
        table = np.exp(epsilon * B * demand / capacities)
        tables[tkey] = table
    return table


class BitmaskIndex:
    """Which cached shortest-path trees use which edges, as int bitmasks.

    The engine contract: a source is registered only while not indexed
    (its previous tree was evicted through :meth:`invalidate` first).
    """

    __slots__ = ("_tree_masks", "_union_mask")

    def __init__(self):
        self._tree_masks: dict[int, int] = {}
        # OR of all registered masks: lets a miss (the common case for
        # off-tree repricings) exit after one AND instead of a full scan.
        self._union_mask = 0

    def register(self, source: int, tree) -> None:
        self._tree_masks[source] = tree.edge_mask
        self._union_mask |= tree.edge_mask

    def invalidate(self, edge_ids) -> list[int]:
        """Sources whose trees touch any of ``edge_ids``, sorted; drops
        them from the index.  The caller evicts the trees."""
        probe = 0
        for eid in edge_ids:
            probe |= 1 << eid
        if not (probe & self._union_mask):
            return []
        hit = [s for s, m in self._tree_masks.items() if m & probe]
        for source in hit:
            del self._tree_masks[source]
        union = 0
        for m in self._tree_masks.values():
            union |= m
        self._union_mask = union
        return sorted(hit)

    def snapshot(self) -> tuple:
        """Immutable checkpoint payload for :meth:`restore`."""
        return tuple(sorted(self._tree_masks.items()))

    def restore(self, payload) -> None:
        self._tree_masks = dict(payload)
        union = 0
        for m in self._tree_masks.values():
            union |= m
        self._union_mask = union


class Kernel:
    """The one compute kernel (see the module docstring)."""

    def dijkstra(self, graph, weights, source, targets=None, get_weights_list=None):
        """One shortest-path tree as a
        :class:`~repro.graphs.shortest_path.CompactTree`; the arguments are
        those of :func:`~repro.graphs.shortest_path.shortest_path_tree`."""
        return shortest_path_tree(graph, weights, source, targets, get_weights_list)

    def dual_update(self, y, capacities, ids, epsilon, B, demand):
        """Multiply ``y[ids]`` by ``exp(eps B d / c)`` in place; returns the
        budget increment ``sum c_e (y_e' - y_e)`` as a float."""
        if capacities.shape[0] > _TABLE_MAX_EDGES:
            mult = np.exp(epsilon * B * demand / capacities[ids])
        else:
            mult = _multiplier_table(capacities, epsilon, B, demand)[ids]
        old = y[ids]
        new = old * mult
        y[ids] = new
        return float(capacities[ids] @ (new - old))

    def bundle_scores(self, weights, flat, starts, values):
        """Per-bundle price/value lower bounds over the flattened CSR
        bundle layout (one ``np.add.reduceat`` pass).

        ``reduceat`` sums sequentially while the reference ``ndarray.sum``
        is pairwise, so the two can differ by a few ulps; the relative
        ``1e-9`` shave keeps every score a true lower bound of the
        reference score.
        """
        prices = np.add.reduceat(weights[flat], starts)
        return (prices / values) * (1.0 - 1e-9)


_KERNEL = Kernel()


def get_kernel() -> Kernel:
    """The compute kernel."""
    return _KERNEL
