"""Lazy-greedy path-pricing engine shared by the primal-dual solvers.

Every solver in this reproduction — ``Bounded-UFP``, ``Bounded-UFP-Repeat``
and ``Bounded-MUCA`` — has the same inner loop: price every live request
under the current dual weights, select the one minimizing a normalized
score, multiply the weights along the winner's path (bundle)
exponentially, repeat.  Priced naively that is one shortest-path tree per
distinct source *per iteration*; this module amortizes it down to a handful
of targeted computations per iteration by exploiting one structural fact:

**dual weights are monotone non-decreasing.**  Each update multiplies
``y_e`` by ``exp(eps B d / c_e) >= 1``, so no edge weight ever decreases
during a run.

Why lazy scores are sound
-------------------------
Let ``score_r(y) = (d_r / v_r) * dist_y(s_r, t_r)`` be the normalized score
of request ``r`` under weights ``y``.  Shortest-path distances are monotone
in the edge weights: ``y <= y'`` (componentwise) implies ``dist_y(s, t) <=
dist_{y'}(s, t)`` for every pair, because every path can only get longer.
Since the duals only grow, a score computed at any *earlier* point of the run
is a valid **lower bound** on the current score.  The engine therefore keeps
all live requests in a min-heap keyed by their last-computed score and runs
the classic lazy-greedy loop: pop the heap; if the popped entry's score is
stale, re-price just that request (one targeted shortest-path computation)
and push it back; once the top of the heap is freshly priced, no stale entry
can beat it (see *Selection order* below), so the freshly-priced top is the
exact argmin.  The same argument applies verbatim to ``Bounded-MUCA`` bundle
prices ``sum_{u in U_r} y_u / v_r`` (sums of monotone weights are monotone).

Shortest-path-tree caching with edge-set invalidation
-----------------------------------------------------
A selection touches only the edges of one path.  A cached shortest-path tree
whose *parent-edge set* is disjoint from the updated edges stays **exactly**
valid — not merely as a bound:

* every vertex keeps a shortest path avoiding the updated edges (the cached
  tree provides one), and alternative routes only got longer, so all
  distances are unchanged;
* with strictly positive weights vertices settle in ``(distance, vertex)``
  order, which is therefore unchanged, and a non-tree arc whose weight only
  grew still loses every parent comparison it lost before (parents are
  overwritten on strict improvement only);

hence a fresh Dijkstra run would reproduce the cached tree *bit for bit*,
including tie-breaking — which is what keeps the engine's selected paths
byte-identical to the reference implementation.  Each cached tree carries
its parent-edge set as a bitmask (``CompactTree.edge_mask``); a commit ORs
the selected path's edges into one mask and evicts exactly the cached trees
whose mask meets it.

Because the initial weights ``y_e = 1/c_e`` are a function of the graph
alone, the trees priced at the start of a run are additionally memoized on
:attr:`CapacitatedGraph.substrate_cache` and shared across runs — the
critical-value payment bisection re-runs the whole mechanism dozens of times
per winner on the same graph and hits this warm cache every probe.
:func:`initial_tree` reads that memo from outside an engine.

Selection order
---------------
Every selection picks the least ``(score, request index)`` pair, comparing
scores exactly.  The tie rule is deterministic and ignores the declared
``(d, v)``, which is all truthfulness asks of it.  Heap entries are
``(score, index, epoch)``, so the heap key *is* the order, and the first
fresh entry to reach the top wins: a stale key is at most its request's
true score, so ``(key, i) <= (score, i)`` and nothing below the top can
beat it.

The round loop
--------------
:func:`greedy_rounds` runs the rounds on either engine: it applies the
stopping rules (iteration cap, dual budget, nothing routable, an optional
admission threshold) in one fixed order and commits each winner.  The three
solvers of the paper, the BKV-style baseline, every online drain and every
trace replay run through it, so a replay makes the live run's decisions by
construction.

Forks
-----
``fork()`` returns an independent engine in the same state, on its own
copy of the dual weights.  It shares everything immutable (the cached
trees, which an eviction drops from a dict but never mutates, the
per-graph tree memos, the request or bid pool) and copies the heap, the
flags and the bookkeeping.  A run trace keeps forks as its checkpoints,
and a replay walks a fork of one (:mod:`repro.core.trace`).  Engines whose
pool still takes arrivals (the online auctions' live engines) are never
forked, so the shared pool never grows under a fork.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.dual_state import DualWeights
from repro.graphs.graph import CapacitatedGraph
from repro.graphs.shortest_path import CompactTree
from repro.kernels import get_kernel

__all__ = [
    "PathPricingEngine",
    "BundlePricingEngine",
    "PricingStats",
    "Selection",
    "greedy_rounds",
    "initial_tree",
]

#: Key under which shortest-path trees are memoized on
#: :attr:`CapacitatedGraph.substrate_cache`, keyed by the exact bytes of the
#: weight vector they were computed under (sound for any weights: the tree is
#: a pure function of graph + weights), plus the source vertex.
_TREE_MEMO_KEY = "pricing_engine/tree_memo"

#: Companion memo for trees computed under the *initial* weights
#: ``y = 1/c``.  Every run on a graph starts from that vector, so these are
#: the highest-value entries; they live outside the evictable memo (bounded
#: naturally by the number of distinct sources) so a cap-triggered clear of
#: mid-run trees never discards them.
_INITIAL_TREE_MEMO_KEY = "pricing_engine/tree_memo_initial"

#: Approximate memory budget for one graph's tree memo.  Each entry is
#: budgeted at ``8m`` bytes for the weight-vector key plus ``120n`` bytes
#: for the tree (generous: a compact tree takes about ``16n``); the entry
#: cap is derived from this budget (and clamped to [8, 4096]) so huge
#: graphs keep only a handful of memoized trees while the small
#: mechanism-design instances that motivate the memo (payment bisections
#: re-run the solver dozens of times) keep them all.
_TREE_MEMO_BUDGET_BYTES = 64 * 1024 * 1024


def _memo_key(weight_bytes: bytes, source: int) -> tuple[bytes, int]:
    """The key of a tree in either memo: the exact bytes of the weight
    vector it was computed under, and its source."""
    return weight_bytes, source


def initial_tree(graph: CapacitatedGraph, source: int) -> CompactTree:
    """The shortest-path tree of ``source`` under the initial weights
    ``y = 1/c``, the first tree every run on ``graph`` prices ``source``
    with.

    Once an engine on ``graph`` has priced ``source`` (every source with a
    request, after a ``bounded_ufp`` run), this is the very tree it
    memoized on :attr:`CapacitatedGraph.substrate_cache`.  On a miss the
    tree is built through the tree hook and not memoized, so no engine's
    memo hits or tree counts move.
    """
    weights = 1.0 / graph.capacities
    memo = graph.substrate_cache.get(_INITIAL_TREE_MEMO_KEY, {})
    tree = memo.get(_memo_key(weights.tobytes(), source))
    if tree is None:
        tree = get_kernel().dijkstra(graph, weights, source)
    return tree


class _TreeMemoLRU:
    """Capped LRU for the per-graph mid-run shortest-path-tree memo.

    The memo lives on :attr:`CapacitatedGraph.substrate_cache` and is keyed
    by exact weight-vector bytes, so on long-lived graphs (fuzz sweeps,
    payment bisections over thousands of probes, streaming auctions) it
    would otherwise grow without bound — one entry per distinct weight
    vector ever priced.  This container keeps entry count under ``cap`` by
    evicting the least-recently-used entry, which preserves exactly the
    entries replays keep re-hitting (probe runs revisit recent dual
    trajectories, not ancient ones).  Shared hit/miss/evict totals live
    here; per-engine views are surfaced through :class:`PricingStats`.
    """

    __slots__ = ("cap", "hits", "misses", "evictions", "_data")

    def __init__(self, cap: int) -> None:
        self.cap = int(cap)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        tree = self._data.get(key)
        if tree is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return tree

    def put(self, key, tree) -> bool:
        """Insert ``key``; returns whether an old entry was evicted."""
        data = self._data
        if key in data:
            data.move_to_end(key)
            data[key] = tree
            return False
        evicted = False
        if len(data) >= self.cap:
            data.popitem(last=False)
            self.evictions += 1
            evicted = True
        data[key] = tree
        return evicted

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)


@dataclass
class PricingStats:
    """Cache / laziness counters of one engine instance.

    ``dijkstra_calls_saved`` compares against the eager reference strategy
    (one tree per live source per iteration): it is the number of trees the
    reference would have computed minus the number actually computed.

    The tree-memo counters view the shared per-graph memo from this
    engine's perspective: ``warm_start_hits`` counts this engine's memo
    hits, ``memo_misses`` its misses, and ``memo_evictions`` the LRU
    evictions this engine's inserts triggered (the memo is capped — see
    :class:`_TreeMemoLRU`).
    """

    dijkstra_calls: int = 0
    tree_reuses: int = 0
    warm_start_hits: int = 0
    lazy_pops: int = 0
    repricings: int = 0
    trees_invalidated: int = 0
    eager_equivalent_calls: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0
    #: Hot-loop work units: shortest-path trees computed, dual updates
    #: applied, bundle-score sweeps.  The count does not depend on which
    #: tree implementation ran, so bench regressions are attributable
    #: without perturbing any pinned output.
    kernel_calls: int = 0

    @property
    def dijkstra_calls_saved(self) -> int:
        return max(0, self.eager_equivalent_calls - self.dijkstra_calls)

    def as_extra(self, prefix: str = "pricing_") -> dict[str, float]:
        """Flatten into :class:`~repro.types.RunStats`-style ``extra`` keys.

        Numeric-only by contract (scenario records coerce every value with
        ``float``).
        """
        return {
            f"{prefix}dijkstra_calls": float(self.dijkstra_calls),
            f"{prefix}tree_reuses": float(self.tree_reuses),
            f"{prefix}warm_start_hits": float(self.warm_start_hits),
            f"{prefix}lazy_pops": float(self.lazy_pops),
            f"{prefix}repricings": float(self.repricings),
            f"{prefix}trees_invalidated": float(self.trees_invalidated),
            f"{prefix}dijkstra_calls_saved": float(self.dijkstra_calls_saved),
            f"{prefix}memo_misses": float(self.memo_misses),
            f"{prefix}memo_evictions": float(self.memo_evictions),
            f"{prefix}kernel_calls": float(self.kernel_calls),
        }


@dataclass(frozen=True)
class Selection:
    """One lazy-greedy winner: the request index, its fresh (exact) score and
    the shortest path it would be routed on (``None`` for a bid)."""

    index: int
    score: float
    vertices: tuple[int, ...] | None
    edge_ids: tuple[int, ...] | None


_INF = math.inf


def _score(request, distance: float) -> float:
    # Matches the reference solvers' expression (left-to-right evaluation):
    # (d_r / v_r) * |p_r|_y.
    return request.demand / request.value * distance


class PathPricingEngine:
    """Owns the request pool, the dual weights and the shortest-path caches.

    Parameters
    ----------
    graph:
        The capacitated graph; dual weights must be strictly positive (the
        solvers initialize ``y = 1/c > 0`` and only ever grow them), which
        the tree-validity argument in the module docstring relies on.
    requests:
        Sequence of request objects exposing ``source``, ``target``,
        ``demand`` and ``value``.
    duals:
        The :class:`DualWeights` the engine prices under and updates on
        :meth:`commit`.
    remove_selected:
        Whether a selected request leaves the pool (``Bounded-UFP``) or stays
        selectable again (repetitions).
    """

    def __init__(
        self,
        graph: CapacitatedGraph,
        requests: Sequence,
        duals: DualWeights,
        *,
        remove_selected: bool = True,
    ) -> None:
        self._graph = graph
        # A list, not a tuple: streaming callers append via add_requests and
        # tuple re-concatenation would make per-arrival admission O(n).
        self._requests = list(requests)
        self._duals = duals
        self._weights = duals.weights
        self._n = graph.num_vertices
        self._kernel = get_kernel()
        # weights.tolist() / weights.tobytes() memoized between weight
        # updates (cleared on every update); tree computations and memo
        # lookups within one iteration share them.
        self._w_list: list[float] | None = None
        self._w_bytes: bytes | None = None
        entry_bytes = 8 * graph.num_edges + 3 * 40 * self._n + 512
        self._memo_cap = max(8, min(4096, _TREE_MEMO_BUDGET_BYTES // entry_bytes))
        self._bind_memos(graph)
        self._remove_selected = bool(remove_selected)
        self.stats = PricingStats()

        n = len(self._requests)
        self._selected = bytearray(n)
        self._dropped = bytearray(n)
        self._pending = n
        # Live request count per source — used only for the eager-equivalent
        # statistics (how many trees the reference strategy would compute).
        self._source_live: dict[int, int] = {}
        # source -> tree; all cached trees are exact under the current
        # weights.
        self._trees: dict[int, CompactTree] = {}
        # Bumped whenever a source's tree is evicted; heap entries carry the
        # epoch their score was computed at, so staleness is an int compare.
        self._source_epoch: dict[int, int] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._prime()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_pending(self) -> int:
        """Live requests: not yet selected (when selections remove) and not
        proven unroutable."""
        return self._pending

    @property
    def num_requests(self) -> int:
        """Total requests ever admitted into the pool (live or not)."""
        return len(self._requests)

    @property
    def duals(self) -> DualWeights:
        return self._duals

    def is_live(self, index: int) -> bool:
        """Whether the request at ``index`` is still selectable: neither
        selected (when selections remove) nor proven unroutable."""
        return not (self._selected[index] or self._dropped[index])

    def request_at(self, index: int):
        """The request at engine-global ``index`` (arrival order).

        The engine owns the pool: streaming drivers resolve
        :class:`Selection` indices and rebuild instances through this
        accessor instead of keeping a parallel copy of the request list.
        """
        return self._requests[index]

    # ------------------------------------------------------------------ #
    # Tree cache
    # ------------------------------------------------------------------ #
    def _weights_list(self) -> list[float]:
        wl = self._w_list
        if wl is None:
            wl = self._w_list = self._weights.tolist()
        return wl

    def _bind_memos(self, graph: CapacitatedGraph) -> None:
        """Share shortest-path trees across engines on ``graph`` through its
        :attr:`~repro.graphs.graph.CapacitatedGraph.substrate_cache`, keyed
        by the exact weight-vector bytes (see the module docstring)."""
        self._tree_memo = graph.substrate_cache.setdefault(
            _TREE_MEMO_KEY, _TreeMemoLRU(self._memo_cap)
        )
        self._initial_tree_memo = graph.substrate_cache.setdefault(
            _INITIAL_TREE_MEMO_KEY, {}
        )

    def _memo_get(self, source: int) -> tuple[tuple, CompactTree | None]:
        """Tree-memo lookup: ``(key, tree)``; ``tree`` is ``None`` on a
        miss."""
        wb = self._w_bytes
        if wb is None:
            wb = self._w_bytes = self._weights.tobytes()
        key = _memo_key(wb, source)
        tree = self._initial_tree_memo.get(key)
        if tree is None:
            tree = self._tree_memo.get(key)
            if tree is None:
                self.stats.memo_misses += 1
        return key, tree

    def _memo_put(self, key: tuple, tree: CompactTree) -> None:
        if self._duals.num_updates == 0:
            # Initial-weight tree: every future run starts here, so it
            # is exempt from cap eviction (bounded by #sources).
            self._initial_tree_memo[key] = tree
        elif self._tree_memo.put(key, tree):
            self.stats.memo_evictions += 1

    def _new_tree(self, source: int) -> CompactTree:
        tree = self._kernel.dijkstra(
            self._graph, self._weights, source,
            get_weights_list=self._weights_list,
        )
        self.stats.dijkstra_calls += 1
        self.stats.kernel_calls += 1
        return tree

    def _compute_tree(self, source: int) -> CompactTree:
        key, tree = self._memo_get(source)
        if tree is not None:
            self.stats.warm_start_hits += 1
            return tree
        tree = self._new_tree(source)
        self._memo_put(key, tree)
        return tree

    def _get_tree(self, source: int) -> CompactTree:
        tree = self._trees.get(source)
        if tree is None:
            tree = self._trees[source] = self._compute_tree(source)
            return tree
        self.stats.tree_reuses += 1
        return tree

    def _invalidate_edges(self, edge_ids: Sequence[int]) -> None:
        """Evict every cached tree that uses one of ``edge_ids``."""
        probe = 0
        for eid in edge_ids:
            probe |= 1 << eid
        hit = [s for s, tree in self._trees.items() if tree.edge_mask & probe]
        for source in hit:
            del self._trees[source]
            self._source_epoch[source] = self._source_epoch.get(source, 0) + 1
            self.stats.trees_invalidated += 1

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #
    def _prime(self) -> None:
        """Price every request once (at the initial weights) and build the heap."""
        for req in self._requests:
            self._source_live[req.source] = self._source_live.get(req.source, 0) + 1
        self._price_into_heap(range(len(self._requests)))

    def _price_into_heap(self, indices: Sequence[int]) -> None:
        """Price the live requests ``indices`` exactly (one tree fetch per
        source), drop the unroutable ones and heapify the rest into the
        heap."""
        by_source: dict[int, list[int]] = {}
        for idx in indices:
            by_source.setdefault(self._requests[idx].source, []).append(idx)
        heap = self._heap
        for source, idxs in by_source.items():
            epoch = self._source_epoch.get(source, 0)
            dist = self._get_tree(source).dist
            for idx in idxs:
                req = self._requests[idx]
                d = dist[req.target]
                if d == _INF:
                    self._drop(idx)
                    continue
                heap.append((_score(req, d), idx, epoch))
        heapq.heapify(heap)

    def _drop(self, idx: int) -> None:
        if not self._dropped[idx]:
            self._dropped[idx] = 1
            self._retire(idx)

    def _retire(self, idx: int) -> None:
        self._pending -= 1
        source = self._requests[idx].source
        live = self._source_live[source] - 1
        if live:
            self._source_live[source] = live
        else:
            del self._source_live[source]

    def add_requests(self, requests: Sequence) -> list[int]:
        """Admit newly-arrived requests into the live pool (streaming mode).

        Each new request is priced under the *current* dual weights and
        pushed into the lazy heap with a fresh (exact) score.  Pricing goes
        through the tree cache: a source whose cached shortest-path tree is
        untouched since its last computation (no selected path intersected
        its parent-edge set) is **not** re-priced — the cached tree is still
        exact, so the new request costs two list indexings, not a Dijkstra
        run.  Unroutable requests are dropped immediately, exactly as in
        :meth:`_prime`.

        Returns the engine-global indices assigned to ``requests`` (in
        order); indices of earlier requests never change.
        """
        new = list(requests)
        start = len(self._requests)
        self._requests.extend(new)
        self._selected.extend(bytes(len(new)))
        self._dropped.extend(bytes(len(new)))
        indices: list[int] = []
        heap = self._heap
        for offset, req in enumerate(new):
            idx = start + offset
            indices.append(idx)
            self._pending += 1
            source = req.source
            self._source_live[source] = self._source_live.get(source, 0) + 1
            tree = self._get_tree(source)
            d = tree.dist[req.target]
            if d == _INF:
                self._drop(idx)
                continue
            heapq.heappush(
                heap,
                (_score(req, d), idx, self._source_epoch.get(source, 0)),
            )
        return indices

    # ------------------------------------------------------------------ #
    # Lazy-greedy selection
    # ------------------------------------------------------------------ #
    def select(self) -> Selection | None:
        """Return the pending request with the least ``(score, index)``, or
        ``None`` when no routable request remains.  Does *not* apply the
        dual update — call :meth:`commit` with the result.

        Pop the top entry: skip it if its request is gone; if its score is
        stale, re-price it and push it back; the first fresh top wins.
        """
        if not self._pending:
            return None
        self.stats.eager_equivalent_calls += len(self._source_live)
        heap = self._heap
        stats = self.stats
        while heap:
            score, idx, epoch = heapq.heappop(heap)
            if self._selected[idx] or self._dropped[idx]:
                continue  # lazily deleted entry
            stats.lazy_pops += 1
            req = self._requests[idx]
            source = req.source
            if epoch == self._source_epoch.get(source, 0):
                # Fresh: computed from a tree that is still exactly valid.
                vertices, edge_ids = self._trees[source].path_to(req.target)
                return Selection(
                    index=idx, score=score, vertices=vertices, edge_ids=edge_ids
                )
            tree = self._get_tree(source)
            stats.repricings += 1
            d = tree.dist[req.target]
            if d == _INF:
                self._drop(idx)
                continue
            s = _score(req, d)
            heapq.heappush(heap, (s, idx, self._source_epoch.get(source, 0)))
        return None

    # ------------------------------------------------------------------ #
    # Post-selection updates
    # ------------------------------------------------------------------ #
    def commit(self, selection: Selection) -> None:
        """Apply the exponential dual update for ``selection`` and maintain
        the caches: :meth:`replay_commit`, then, when the winner stays
        selectable, its re-push."""
        # Simple paths have distinct edges, and sorting reproduces the
        # np.unique ordering, so the incremental budget arithmetic is
        # bit-identical to the reference.
        ids = np.asarray(sorted(selection.edge_ids), dtype=np.int64)
        self.replay_commit(selection.index, ids, selection.edge_ids)
        if not self._remove_selected:
            # The winner stays selectable; its own tree was just evicted, so
            # epoch -1 forces a re-pricing before it can win again.  Its old
            # score remains a valid lower bound (weights only grew).
            heapq.heappush(self._heap, (selection.score, selection.index, -1))

    def requeue(self, selection: Selection) -> None:
        """Return an *uncommitted* selection to the pool.

        For callers that inspect the argmin before deciding whether to take
        it (the threshold stop of :func:`greedy_rounds`).  Only valid when
        no weight update happened since :meth:`select` returned it: the
        selection's exact score and its source's current epoch are then
        still valid heap entries.
        """
        source = self._requests[selection.index].source
        heapq.heappush(
            self._heap,
            (selection.score, selection.index, self._source_epoch.get(source, 0)),
        )

    # ------------------------------------------------------------------ #
    # Substrate mutation (fault injection)
    # ------------------------------------------------------------------ #
    def reinstate(self, index: int) -> None:
        """Return a previously selected or dropped request to the live pool.

        The fault-tolerant auction revokes allocations whose path crosses a
        failed edge; the victim re-enters the pool here (subject to the
        auction's requeue budget).  The request becomes live-but-unpriced:
        follow with :meth:`rebind_substrate`, which re-prices every live
        request.  No-op when already live.
        """
        if self._selected[index]:
            self._selected[index] = 0
        elif self._dropped[index]:
            self._dropped[index] = 0
        else:
            return
        self._pending += 1
        source = self._requests[index].source
        self._source_live[source] = self._source_live.get(source, 0) + 1

    def rebind_substrate(self, graph: CapacitatedGraph, duals: DualWeights) -> None:
        """Re-home the engine onto a mutated substrate.

        Fault events replace the graph (edges disabled/re-enabled, edges
        resized via :meth:`CapacitatedGraph.with_capacities`) and the dual
        state (:meth:`DualWeights.with_capacities`) mid-run.  Such mutations
        break both pillars of the engine's laziness: weights may *decrease*
        (capacity growth, edge repair), so cached heap scores are no longer
        lower bounds, and cached trees were computed over arcs that may no
        longer exist.  This method therefore drops every cached tree and
        rebuilds the heap by **exact** re-pricing of all live requests —
        correctness over laziness, which is fine because fault events are
        rare relative to selections.

        Live requests that became unroutable (their source lost all paths to
        the target) are dropped, exactly as at admission.  Requests already
        selected or dropped stay that way — reinstate revoked victims with
        :meth:`reinstate` *before* calling this, so they are re-priced here.

        The per-graph tree memos are re-bound to the new graph's
        ``substrate_cache``: the old graph's memo entries are keyed to its
        arc structure and must never serve the mutated substrate.
        """
        if (
            graph.num_vertices != self._n
            or graph.num_edges != self._graph.num_edges
        ):
            raise ValueError(
                "rebind_substrate requires the same vertex and edge-id space"
            )
        self._graph = graph
        self._duals = duals
        self._weights = duals.weights
        self._w_list = None
        self._w_bytes = None
        self._bind_memos(graph)
        self._trees = {}
        for source in list(self._source_epoch):
            self._source_epoch[source] += 1
        self._heap = []
        self._price_into_heap(
            [idx for idx in range(len(self._requests)) if self.is_live(idx)]
        )

    # ------------------------------------------------------------------ #
    # Forks (the trace-replay substrate)
    # ------------------------------------------------------------------ #
    def fork(self) -> "PathPricingEngine":
        """An independent engine in this engine's state, on its own
        :meth:`DualWeights.copy` (see *Forks* in the module docstring); its
        stats start at zero.

        The attributes are assigned in ``__init__``'s order, so a fork has
        the instance layout the hot loops' attribute reads are specialized
        for: a new attribute goes in both places.
        """
        fork = PathPricingEngine.__new__(PathPricingEngine)
        duals = self._duals.copy()
        fork._graph = self._graph
        fork._requests = self._requests
        fork._duals = duals
        fork._weights = duals.weights
        fork._n = self._n
        fork._kernel = self._kernel
        fork._w_list = None
        fork._w_bytes = None
        fork._memo_cap = self._memo_cap
        fork._tree_memo = self._tree_memo
        fork._initial_tree_memo = self._initial_tree_memo
        fork._remove_selected = self._remove_selected
        fork.stats = PricingStats()
        fork._selected = bytearray(self._selected)
        fork._dropped = bytearray(self._dropped)
        fork._pending = self._pending
        fork._source_live = dict(self._source_live)
        fork._trees = dict(self._trees)
        fork._source_epoch = dict(self._source_epoch)
        fork._heap = list(self._heap)
        return fork

    def replay_commit(
        self,
        index: int,
        sorted_edge_ids: np.ndarray,
        edge_ids: Sequence[int],
    ) -> None:
        """Apply the dual update, tree invalidation and pool bookkeeping of
        request ``index`` winning on the path ``edge_ids`` (``sorted_edge_ids``
        as a sorted ``int64`` array): what :meth:`commit` does, also used by
        the trace replayer to re-apply recorded rounds without re-selecting.
        The dual arithmetic is bit-identical either way (same sorted id
        array, same demand).

        In keep-selectable mode (repetitions) the winner's pre-existing
        heap entry remains its valid lower bound, so a replay needs no
        re-push; the epoch bump from the tree eviction forces a re-pricing
        before it can win again.
        """
        req = self._requests[index]
        self._duals.apply_selection(sorted_edge_ids, req.demand, assume_unique=True)
        self.stats.kernel_calls += 1
        # Weights changed: drop the memoized list/bytes forms.
        self._w_list = None
        self._w_bytes = None
        self._invalidate_edges(edge_ids)
        if self._remove_selected:
            self._selected[index] = 1
            self._retire(index)

    def current_route(self, index: int) -> tuple[float, tuple[int, ...]]:
        """Exact shortest-path distance of ``index``'s terminals under the
        current weights and the edge ids of its tree path, through the tree
        cache (``(inf, ())`` when unroutable).  The request need not be
        live: the trace replayer follows a dropped agent this way."""
        req = self._requests[index]
        tree = self._get_tree(req.source)
        distance = tree.dist[req.target]
        if distance == _INF:
            return distance, ()
        return distance, tree.path_to(req.target)[1]

    def drop_request(self, index: int) -> None:
        """Remove a live request from the pool: the trace replayer runs an
        agent's excluded run this way, and :func:`greedy_rounds` drops a
        guard-rejected winner.  Lingering heap entries are lazily deleted,
        as for unroutable drops."""
        self._drop(index)


class _EmptyBidPool:
    """The zero-bid stand-in :meth:`BundlePricingEngine.streaming` builds
    from (the constructor only reads ``.bids``)."""

    bids: tuple = ()


_EMPTY_BID_POOL = _EmptyBidPool()


class BundlePricingEngine:
    """The ``Bounded-MUCA`` counterpart: items instead of edges, bundle price
    sums instead of shortest paths.

    Bundle prices ``sum_{u in U_r} y_u`` are monotone non-decreasing for the
    same reason as path lengths, so the identical lazy-greedy argument
    applies; instead of tree invalidation, a CSR item->bids incidence index
    marks exactly the bids sharing an item with the winner as stale.  Initial
    scores are computed in one vectorized CSR pass (``np.add.reduceat`` over
    the flattened bundles) and used as heap lower bounds; a bid wins only
    with a score recomputed by the reference expression, so selections are
    bit-identical.
    """

    def __init__(self, instance, duals: DualWeights) -> None:
        """``instance`` is a MUCA instance exposing ``.bids``; streaming
        drivers that have no instance yet use :meth:`streaming` instead."""
        self._duals = duals
        bids = instance.bids
        n = len(bids)
        self._bundles = [np.asarray(b.bundle, dtype=np.int64) for b in bids]
        self._values = [b.value for b in bids]
        self._selected = bytearray(n)
        # All entries start dirty: the vectorized initial scores are heap
        # ordering keys only, never winning scores.
        self._dirty = bytearray(b"\x01") * n
        self._pending = n
        self.stats = PricingStats()

        item_to_bids: dict[int, list[int]] = {}
        for i, bundle in enumerate(self._bundles):
            for u in bundle.tolist():
                item_to_bids.setdefault(u, []).append(i)
        self._item_to_bids = item_to_bids

        if n:
            flat = np.concatenate(self._bundles)
            sizes = np.array([b.size for b in self._bundles], dtype=np.int64)
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(sizes[:-1], out=starts[1:])
            # One CSR sweep.  reduceat sums sequentially while the reference
            # ndarray.sum is pairwise, so for large bundles the two can
            # differ by a few ulps in either direction.  Heap keys must be
            # true lower bounds of the reference scores; a relative 1e-9
            # shave (orders of magnitude above the worst-case summation
            # error, which is bounded by ~bundle_size * 2^-52 relative)
            # guarantees it, at the cost of at most one extra heap pop per
            # bid.
            prices = np.add.reduceat(duals.weights[flat], starts)
            values = np.asarray(self._values, dtype=np.float64)
            scores = (prices / values) * (1.0 - 1e-9)
            self.stats.kernel_calls += 1
            self._heap = [(float(scores[i]), i) for i in range(n)]
            heapq.heapify(self._heap)
        else:
            self._heap = []

    @property
    def num_pending(self) -> int:
        return self._pending

    @property
    def duals(self) -> DualWeights:
        return self._duals

    @classmethod
    def streaming(cls, duals: DualWeights) -> "BundlePricingEngine":
        """An engine with an empty bid pool, for streaming drivers that
        feed every arrival through :meth:`add_bids`."""
        return cls(_EMPTY_BID_POOL, duals)

    def add_bids(self, bids: Sequence) -> list[int]:
        """Admit newly-arrived bids into the live pool (streaming mode).

        Each new bid is priced exactly under the *current* item weights
        (one cheap bundle sum — no other bid is touched, and bids that do
        not share an item with a past winner stay clean) and pushed into
        the lazy heap.  Returns the engine-global indices assigned, in
        order; earlier indices never change.
        """
        indices: list[int] = []
        for bid in bids:
            idx = len(self._bundles)
            bundle = np.asarray(bid.bundle, dtype=np.int64)
            self._bundles.append(bundle)
            self._values.append(bid.value)
            self._selected.append(0)
            self._dirty.append(0)
            self._pending += 1
            for u in bundle.tolist():
                self._item_to_bids.setdefault(u, []).append(idx)
            heapq.heappush(self._heap, (self._price(idx), idx))
            indices.append(idx)
        return indices

    def _price(self, idx: int) -> float:
        # Reference expression: path_length(bundle) / value, with the bundle
        # ids in the Bid's sorted order so the numpy summation order (and
        # hence rounding) matches bit for bit.
        return self._duals.path_length(self._bundles[idx]) / self._values[idx]

    def select(self) -> Selection | None:
        """Return the pending bid with the least ``(score, index)`` (a
        :class:`Selection` without a path), or ``None`` when no bid
        remains.  Same lazy loop as :meth:`PathPricingEngine.select`, with
        a dirty flag for staleness; :meth:`commit` applies the update."""
        if not self._pending:
            return None
        stats = self.stats
        stats.eager_equivalent_calls += self._pending
        heap = self._heap
        while heap:
            score, idx = heapq.heappop(heap)
            if self._selected[idx]:
                continue
            stats.lazy_pops += 1
            if self._dirty[idx]:
                self._dirty[idx] = 0
                stats.repricings += 1
                heapq.heappush(heap, (self._price(idx), idx))
                continue
            return Selection(index=idx, score=score, vertices=None, edge_ids=None)
        return None  # pragma: no cover - pending > 0 implies a live entry

    def commit(self, selection: Selection) -> None:
        """Apply the dual update of the selected bid and retire it."""
        self.replay_commit(selection.index)

    def replay_commit(self, index: int) -> None:
        """Apply the dual update and bookkeeping of bid ``index`` winning —
        what :meth:`commit` does, also used by the trace replayer to
        re-apply recorded rounds without re-selecting.  The dual arithmetic
        is bit-identical either way (same bundle id array, same order)."""
        self._duals.apply_selection(self._bundles[index], 1.0, assume_unique=True)
        self.stats.kernel_calls += 1
        self._selected[index] = 1
        self._pending -= 1
        for u in self._bundles[index].tolist():
            for j in self._item_to_bids[u]:
                if not self._selected[j]:
                    self._dirty[j] = 1

    def fork(self) -> "BundlePricingEngine":
        """An independent engine in this engine's state, on its own
        :meth:`DualWeights.copy`; it shares the bid pool's bundles, values
        and item incidence (see :meth:`PathPricingEngine.fork`, whose
        attribute-order rule applies here too)."""
        fork = BundlePricingEngine.__new__(BundlePricingEngine)
        fork._duals = self._duals.copy()
        fork._bundles = self._bundles
        fork._values = self._values
        fork._selected = bytearray(self._selected)
        fork._dirty = bytearray(self._dirty)
        fork._pending = self._pending
        fork.stats = PricingStats()
        fork._item_to_bids = self._item_to_bids
        fork._heap = list(self._heap)
        return fork

    def current_price(self, index: int) -> float:
        """Exact bundle price ``sum_{u in U_r} y_u`` under current weights."""
        return self._duals.path_length(self._bundles[index])

    def drop_request(self, index: int) -> None:
        """Remove a live bid from the pool without a dual update (the trace
        replayer's excluded run); its heap entries are lazily deleted."""
        if not self._selected[index]:
            self._selected[index] = 1
            self._pending -= 1


def greedy_rounds(
    engine: PathPricingEngine | BundlePricingEngine,
    *,
    cap: float = _INF,
    threshold: float = _INF,
    trace=None,
    guard: Callable[[Selection], bool] | None = None,
) -> Iterator[Selection]:
    """Run primal-dual rounds on ``engine`` and yield each committed winner.

    The one round loop of ``Bounded-UFP``, ``Bounded-UFP-Repeat`` and
    ``Bounded-MUCA``, of the BKV-style baseline, and of the online drains
    and trace replays built on them.  Each round, in this order:

    1. stop if the pool is empty, ``cap`` rounds have been committed, or
       the dual budget ``sum_e c_e y_e`` exceeds the duals'
       ``budget_limit`` (``e^{eps (B - 1)}``; the baseline scales the
       exponent by ``beta``);
    2. select the least ``(score, index)`` winner; stop if nothing is
       routable;
    3. if its score exceeds ``threshold``, requeue it and stop (scores only
       grow, so nothing pending can come back under it);
    4. if ``guard`` rejects it, drop it without a commit and go on;
    5. otherwise commit its dual update, record it on ``trace`` (a
       :class:`~repro.core.trace.TraceRecorder`) and yield it.

    The yield comes after the commit, so a caller that stops iterating
    early leaves the engine just after that winner's round.  A trace
    replay makes the live run's decisions because both run this loop.
    """
    duals = engine.duals
    committed = 0
    while engine.num_pending and committed < cap and duals.within_budget:
        selection = engine.select()
        if selection is None:
            return
        if selection.score > threshold:
            engine.requeue(selection)
            return
        if guard is not None and not guard(selection):
            engine.drop_request(selection.index)
            continue
        engine.commit(selection)
        if trace is not None:
            trace.record_round(engine, selection)
        committed += 1
        yield selection
