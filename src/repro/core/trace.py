"""Run-trace + checkpoint subsystem: suffix-resume probe replays.

Critical-value payments, truthfulness audits and online batch payments all
ask the same question thousands of times: *"re-run the mechanism with one
declaration changed — is request r still selected?"*  Each such probe run
shares a long identical prefix with the recorded base run, because the
primal-dual greedy loop is oblivious to a declaration until its score can
contend for a round.  This module makes that sharing explicit:

* a :class:`TraceRecorder`, passed as ``trace=`` to ``bounded_ufp``,
  ``bounded_ufp_repeat``, ``bounded_muca`` or the online
  :func:`~repro.online.auction.drain_engine`, which hand it to
  :func:`~repro.core.pricing_engine.greedy_rounds`, records the
  **acceptance trace** of one run — per committed round: the winner, its
  exact selection score, a lower bound on the runner-up score, and the
  dual-update edge set — plus periodic **checkpoints**: a
  :class:`~repro.core.dual_state.DualWeights` copy and a
  :meth:`~repro.core.pricing_engine.PathPricingEngine.fork` engine snapshot
  (cached shortest-path trees are immutable and shared by reference, so a
  checkpoint is heap + flags + bookkeeping, not a deep copy);
* a :class:`TraceReplayer` (:class:`BundleTraceReplayer` for MUCA) answers
  probes by computing the probe's **divergence round**, restoring the last
  checkpoint at or before it, cheaply re-applying the recorded dual updates
  up to the divergence round (no shortest-path work), and re-running the
  rounds only for the suffix — with an early exit the moment the probed
  request is selected.  The suffix, like the recorded run, runs through
  ``greedy_rounds``, so it makes the live run's decisions by construction.

Why the divergence round is sound
---------------------------------
Let the probe replace request ``r``'s declaration ``(d, v)`` by ``(d',
v')``; terminals never change.  At every round ``j`` of the base run the
pool, the duals and hence every *other* request's score are unchanged, so
the probe run can only deviate at a round where ``r``'s own score matters:

* a round the base run gave to ``r`` (``winners[j] == r``) — with a changed
  score ``r`` may no longer win it; or
* a round ``r``'s probe score could win.  The probe score at round ``j``
  is ``(d'/v') * dist_j(r)`` and distances are monotone non-decreasing over
  a run (duals only grow), so the recorded initial distance gives the sound
  lower bound ``probe_lb = (d'/v') * dist_0(r)``.  Each round selects the
  least ``(score, index)`` pair, so if ``probe_lb`` exceeds the round's
  recorded winner score ``r`` cannot win that round — the same "a lower
  bound above the winner cannot matter" argument the lazy engine itself
  rests on.  The comparison keeps a safety band for the rounding of the
  bound arithmetic and for exact ties.

The divergence round is the earliest of the two, found by binary search
over the running maximum of the recorded winner scores.  Everything before
it is replayed **by transcript** — the recorded dual updates are re-applied
bit-identically (same sorted edge-id arrays, same demands, same incremental
budget arithmetic) — and everything after it is re-run live on the restored
engine.  Because the lazy engine's selections are a pure function of
(pending pool, duals) regardless of its cache/heap internals, the resumed
suffix reproduces the from-scratch probe run's allocation bit for bit;
``tests/test_trace_replay.py`` enforces this across the pinned
differential-fuzz corpus, on loop trees and on C trees.

Two probe answers are free:

* if the divergence round is past the end of the trace, the probe run *is*
  the base run (and provably ends the same way), so ``r`` is not selected —
  no replay at all;
* in the online threshold policy, a probe whose score lower bound exceeds
  the admission threshold can never be admitted.

Certificates for bisection brackets
-----------------------------------
The recorded round where ``r`` won also yields sound bisection brackets
(used by :func:`repro.mechanism.payments.compute_ufp_payments`): for any
score-*increasing* probe (``d'/v' >= d/v``) the prefix up to ``r``'s
winning round ``k`` is unchanged, so

* if the probe score at round ``k`` (bounded via the recorded winning score
  ``s_k = (d/v) * dist_k``) stays a safety band below the recorded
  runner-up lower bound (and below the admission threshold in drain mode),
  ``r`` still wins round ``k`` — certified **selected**, a sound ``high``;
* in the online threshold policy, a probe score above the threshold at
  round ``k`` stays above it forever (scores are monotone) — certified
  **not admitted**, a sound ``low``.
"""

from __future__ import annotations

import inspect
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import (
    BundlePricingEngine,
    PathPricingEngine,
    Selection,
    greedy_rounds,
)
from repro.flows.allocation import Allocation, RoutedRequest
from repro.types import RunStats

__all__ = [
    "TraceRecorder",
    "RunTrace",
    "TraceRound",
    "TraceCheckpoint",
    "TraceReplayer",
    "BundleTraceReplayer",
    "ReplayStats",
    "make_replayer",
    "supports_trace",
]

#: Safety margins for every divergence / certificate comparison.  Bounds
#: derived from recorded scores (``score / ratio``, ``demand * dist / cap``)
#: carry a few roundings each; a relative ``1e-9`` plus an absolute
#: ``1e-12`` dominates them at any score magnitude, at the cost of
#: replaying a handful of extra rounds near exact ties.
_REL_MARGIN = 1e-9
_ABS_MARGIN = 1e-12


def _upper(x: float) -> float:
    """A safe upper bound of ``x`` under the module's margins."""
    return x + _REL_MARGIN * abs(x) + _ABS_MARGIN


def _lower(x: float) -> float:
    """A safe lower bound of ``x`` under the module's margins."""
    return x - _REL_MARGIN * abs(x) - _ABS_MARGIN


def supports_trace(algorithm: Callable) -> bool:
    """Whether ``algorithm`` accepts a ``trace=`` keyword (so the trace
    machinery can record a base run through it).  Wrappers that swallow
    keywords via ``**kwargs`` count as supporting; plain lambdas do not —
    callers fall back to from-scratch probe runs for those."""
    try:
        sig = inspect.signature(algorithm)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    if "trace" in sig.parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
    )


class TraceRound:
    """One committed round of a recorded run."""

    __slots__ = (
        "index",
        "score",
        "vertices",
        "edge_ids",
        "sorted_edge_array",
        "demand",
        "runner_up_lb",
    )

    def __init__(
        self,
        index: int,
        score: float,
        vertices: tuple | None,
        edge_ids: tuple | None,
        sorted_edge_array: np.ndarray | None,
        demand: float,
        runner_up_lb: float,
    ) -> None:
        self.index = index
        self.score = score
        self.vertices = vertices
        self.edge_ids = edge_ids
        self.sorted_edge_array = sorted_edge_array
        self.demand = demand
        self.runner_up_lb = runner_up_lb


class TraceCheckpoint:
    """State *before* round ``round_index``: a dual-weight copy plus an
    engine snapshot (trees shared by reference)."""

    __slots__ = ("round_index", "duals", "engine")

    def __init__(self, round_index: int, duals: DualWeights, engine) -> None:
        self.round_index = round_index
        self.duals = duals
        self.engine = engine


class RunTrace:
    """The acceptance trace of one recorded solver run."""

    __slots__ = (
        "mode",
        "graph",
        "instance",
        "requests",
        "epsilon",
        "iteration_cap",
        "admission",
        "score_threshold",
        "rounds",
        "score_env",
        "first_win",
        "initial_dist",
        "checkpoints",
        "stopped_by_budget",
        "completed",
        "start_iteration",
        "pool_exhausted",
        "dist_obs",
    )

    def __init__(self, *, mode: str) -> None:
        if mode not in ("ufp", "repeat", "muca", "drain"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.graph = None
        self.instance = None
        self.requests: tuple = ()
        self.epsilon = 0.0
        self.iteration_cap: int | None = None
        self.admission: str | None = None
        self.score_threshold = math.inf
        self.rounds: list[TraceRound] = []
        # Running maximum of the winner scores (the raw ones stay on the
        # rounds), which divergence lookups binary-search.  While duals only
        # grow each round takes the least score of a pool whose scores only
        # grow, so the raw scores are already non-decreasing; the running
        # max makes that hold by construction.
        self.score_env: list[float] = []
        self.first_win: dict[int, int] = {}
        self.initial_dist: list[float] = []
        self.checkpoints: list[TraceCheckpoint] = []
        self.stopped_by_budget = False
        self.completed = False
        # Global iteration offset of round 0 (non-zero for sub-traces, the
        # excluded runs) and whether the run ended with no live request left.
        self.start_iteration = 0
        self.pool_exhausted = False
        # Per-request distance (bundle-price) lower-bound observations
        # harvested from the checkpoint heaps at finish: (round, bound)
        # pairs, rounds increasing, bounds running-max.  A heap entry's
        # score is a sound lower bound on its request's score from the
        # checkpoint's round onwards (scores only grow), so dividing out
        # the declared ratio yields later-round distance bounds for free —
        # far tighter divergence rounds than the initial distance alone.
        self.dist_obs: dict[int, list[tuple[int, float]]] = {}

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def num_checkpoints(self) -> int:
        return len(self.checkpoints)


class TraceRecorder:
    """Collects the acceptance trace and periodic checkpoints of one run.

    Pass an instance as ``trace=`` to :func:`repro.core.bounded_ufp`,
    :func:`repro.core.bounded_ufp_repeat`, :func:`repro.core.bounded_muca`
    or :func:`repro.online.auction.drain_engine`.  The caller brackets the
    run with ``begin_*_run``/:meth:`finish`; in between,
    :func:`~repro.core.pricing_engine.greedy_rounds` (given the recorder as
    ``trace=``) calls :meth:`record_selected` and :meth:`record_committed`
    each round.  After the run, :attr:`trace` holds the completed
    :class:`RunTrace` and :func:`make_replayer` builds the matching
    replayer.

    ``checkpoint_interval=None`` (default) starts at every 8 rounds and
    doubles whenever more than ``max_checkpoints`` snapshots accumulate
    (thinning to every other one), bounding memory at roughly
    ``max_checkpoints * (O(m) duals + O(pool) engine state)`` for runs of
    any length.
    """

    def __init__(
        self,
        checkpoint_interval: int | None = None,
        *,
        max_checkpoints: int = 17,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if max_checkpoints < 2:
            raise ValueError("max_checkpoints must be >= 2")
        self._interval = checkpoint_interval or 8
        self._adaptive = checkpoint_interval is None
        self._max_checkpoints = max_checkpoints
        self.trace: RunTrace | None = None
        self._active: RunTrace | None = None

    # ------------------------------------------------------------------ #
    # Solver-facing hooks
    # ------------------------------------------------------------------ #
    def begin_path_run(
        self,
        *,
        mode: str,
        engine: PathPricingEngine,
        duals: DualWeights,
        epsilon: float,
        iteration_cap: int | None,
        instance=None,
        requests: Sequence | None = None,
        admission: str | None = None,
        score_threshold: float = math.inf,
        initial_dist: Sequence[float] | None = None,
        start_iteration: int = 0,
    ) -> None:
        """Start recording a path-mode run (``ufp``/``repeat``/``drain``).

        Must be called right after engine construction: the initial
        distances are read from the freshly-primed tree cache (one list
        indexing per request) and checkpoint 0 captures the pristine state.
        ``initial_dist``/``start_iteration`` are the sub-trace hooks: a
        replayer recording an excluded continuation supplies the distances
        it cares about and the global iteration offset of round 0.
        """
        t = RunTrace(mode=mode)
        t.instance = instance
        t.graph = instance.graph if instance is not None else engine._graph
        t.requests = tuple(
            requests if requests is not None else instance.requests
        )
        t.epsilon = float(epsilon)
        t.iteration_cap = iteration_cap
        t.admission = admission
        t.score_threshold = float(score_threshold)
        t.start_iteration = int(start_iteration)
        if initial_dist is not None:
            t.initial_dist = list(initial_dist)
        else:
            t.initial_dist = [
                engine.current_distance(i) for i in range(len(t.requests))
            ]
        self._active = t
        self.trace = None
        self._take_checkpoint(engine, duals)

    def begin_bundle_run(
        self,
        *,
        engine: BundlePricingEngine,
        duals: DualWeights,
        epsilon: float,
        iteration_cap: int | None,
        instance,
    ) -> None:
        """Start recording a ``bounded_muca`` run.  ``initial_dist`` holds
        the exact initial bundle prices (the bundle-price analogue of a
        source-target distance)."""
        t = RunTrace(mode="muca")
        t.instance = instance
        t.requests = tuple(instance.bids)
        t.epsilon = float(epsilon)
        t.iteration_cap = iteration_cap
        t.initial_dist = [
            engine.current_price(i) for i in range(len(t.requests))
        ]
        self._active = t
        self.trace = None
        self._take_checkpoint(engine, duals)

    def record_selected(self, engine, selection: Selection) -> None:
        """Record one winner.  :func:`greedy_rounds` calls it *between*
        ``select()`` and ``commit()``: the runner-up lower bound must be
        read before the winner's dual update inflates everyone else's
        scores.  A bid (no path) is recorded with unit demand."""
        self._require_active()
        path = selection.edge_ids is not None
        self._append_round(
            TraceRound(
                index=selection.index,
                score=selection.score,
                vertices=selection.vertices,
                edge_ids=selection.edge_ids,
                sorted_edge_array=(
                    np.asarray(sorted(selection.edge_ids), dtype=np.int64)
                    if path
                    else None
                ),
                demand=engine.request_at(selection.index).demand if path else 1.0,
                runner_up_lb=engine.peek_min_bound(),
            )
        )

    def record_committed(self, engine, duals: DualWeights) -> None:
        """Post-commit hook: decide whether to checkpoint the new state."""
        t = self._require_active()
        last = t.checkpoints[-1].round_index
        if len(t.rounds) - last >= self._interval:
            self._take_checkpoint(engine, duals)

    def finish(
        self, engine, duals: DualWeights, *, stopped_by_budget: bool
    ) -> None:
        """Seal the trace (taking a final checkpoint so threshold-mode tail
        probes resume at the end state for free) and publish it."""
        t = self._require_active()
        if t.checkpoints[-1].round_index < len(t.rounds):
            self._take_checkpoint(engine, duals)
        t.stopped_by_budget = bool(stopped_by_budget)
        t.pool_exhausted = not engine.num_pending
        self._harvest_observations(t)
        t.completed = True
        self.trace = t
        self._active = None

    def extra_stats(self) -> dict[str, float]:
        """Trace-size counters for :class:`~repro.types.RunStats` ``extra``."""
        t = self.trace if self.trace is not None else self._active
        if t is None:
            return {}
        return {
            "trace_rounds": float(len(t.rounds)),
            "trace_checkpoints": float(len(t.checkpoints)),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _require_active(self) -> RunTrace:
        if self._active is None:
            raise RuntimeError(
                "TraceRecorder hooks called outside a begin_*/finish window"
            )
        return self._active

    def _append_round(self, round_: TraceRound) -> None:
        t = self._active
        t.rounds.append(round_)
        env = t.score_env
        env.append(round_.score if not env or round_.score > env[-1] else env[-1])
        t.first_win.setdefault(round_.index, len(t.rounds) - 1)

    def _take_checkpoint(self, engine, duals: DualWeights) -> None:
        t = self._active
        t.checkpoints.append(
            TraceCheckpoint(len(t.rounds), duals.copy(), engine.fork())
        )
        if self._adaptive and len(t.checkpoints) > self._max_checkpoints:
            # Thin to every other checkpoint (round 0 stays) and double the
            # interval: memory stays bounded for arbitrarily long runs.
            t.checkpoints = t.checkpoints[::2]
            self._interval *= 2

    @staticmethod
    def _harvest_observations(t: RunTrace) -> None:
        """Turn checkpoint heap entries into per-request distance bounds.

        An entry ``(score, idx, ...)`` present at checkpoint round ``c`` is
        a sound lower bound on ``idx``'s score at round ``c`` and every
        later round (scores are monotone; the engine keeps entries as lower
        bounds by construction), so ``score / declared_ratio`` bounds the
        distance (bundle price) from round ``c`` on.
        """
        if t.mode == "muca":
            ratios = [1.0 / bid.value for bid in t.requests]
        else:
            ratios = [req.demand / req.value for req in t.requests]
        raw: dict[int, list[tuple[int, float]]] = {}
        for checkpoint in t.checkpoints:
            c = checkpoint.round_index
            if c == 0:
                continue  # initial_dist already covers round 0
            for entry in checkpoint.engine.heap:
                score, idx = entry[0], entry[1]
                ratio = ratios[idx]
                if not (ratio > 0.0) or not math.isfinite(score):
                    continue
                raw.setdefault(idx, []).append((c, _lower(score / ratio)))
        obs: dict[int, list[tuple[int, float]]] = {}
        for idx, points in raw.items():
            points.sort()
            best = t.initial_dist[idx] if idx < len(t.initial_dist) else 0.0
            if not math.isfinite(best):
                continue
            monotone: list[tuple[int, float]] = []
            for c, bound in points:
                if bound > best:
                    best = bound
                    monotone.append((c, bound))
            if monotone:
                obs[idx] = monotone
        t.dist_obs = obs


@dataclass
class ReplayStats:
    """Work counters of one replayer (aggregated over all its probes)."""

    probes: int = 0
    cache_hits: int = 0
    trivial_probes: int = 0
    certificate_hits: int = 0
    rounds_skipped: int = 0
    rounds_replayed: int = 0
    rounds_recomputed: int = 0

    def as_extra(self, prefix: str = "replay_") -> dict[str, float]:
        return {
            f"{prefix}probes": float(self.probes),
            f"{prefix}cache_hits": float(self.cache_hits),
            f"{prefix}trivial_probes": float(self.trivial_probes),
            f"{prefix}certificate_hits": float(self.certificate_hits),
            f"{prefix}rounds_skipped": float(self.rounds_skipped),
            f"{prefix}rounds_replayed": float(self.rounds_replayed),
            f"{prefix}rounds_recomputed": float(self.rounds_recomputed),
        }


class _ReplayerBase:
    """Divergence arithmetic shared by the path and bundle replayers."""

    def __init__(self, trace: RunTrace) -> None:
        if not trace.completed:
            raise ValueError("cannot replay an unfinished trace")
        self._trace = trace
        self._cp_rounds = [cp.round_index for cp in trace.checkpoints]
        self._probe_memo: dict[tuple[int, float, float], bool] = {}
        self.stats = ReplayStats()

    @property
    def trace(self) -> RunTrace:
        return self._trace

    def declared(self, index: int):
        """The base run's declaration at ``index``."""
        return self._trace.requests[index]

    def _probe_lb(self, index: int, demand: float, value: float) -> float:
        """Sound lower bound on the probe's score at *every* round (initial
        distance/price, scores only grow)."""
        return self._probe_score(demand, value, self._trace.initial_dist[index])

    def _probe_score(self, demand: float, value: float, dist: float) -> float:
        return demand / value * dist

    def _divergence(self, index: int, demand: float, value: float) -> int:
        """First round the probe could deviate at (``num_rounds`` = never).

        Piecewise over the harvested distance observations: within each
        observation segment the probe's score is bounded below by the
        segment's distance bound, and the first round whose winner-score
        envelope reaches that bound (binary search — the envelope is
        monotone) is a divergence candidate.
        """
        t = self._trace
        total = t.num_rounds
        first_win = t.first_win.get(index, total)
        env = t.score_env
        segments = [(0, t.initial_dist[index])]
        segments.extend(t.dist_obs.get(index, ()))
        catch_up = total
        for position, (start, dist_bound) in enumerate(segments):
            if start >= first_win:
                break
            end = (
                segments[position + 1][0]
                if position + 1 < len(segments)
                else total
            )
            threshold = _lower(self._probe_score(demand, value, dist_bound))
            j = bisect_left(env, threshold, start, min(end, total))
            if j < min(end, total):
                catch_up = j
                break
        return min(first_win, catch_up)

    def _checkpoint_for(self, round_index: int) -> TraceCheckpoint:
        """Last checkpoint at or before ``round_index``."""
        pos = bisect_right(self._cp_rounds, round_index) - 1
        return self._trace.checkpoints[pos]

    def _rounds_left(self, round_index: int) -> float:
        """Rounds the run's iteration cap still allows from ``round_index``."""
        t = self._trace
        if t.iteration_cap is None:
            return math.inf
        return t.iteration_cap - t.start_iteration - round_index

    # -------------------------------------------------------------- #
    # Certificates (trace-tightened bisection brackets)
    # -------------------------------------------------------------- #
    def certified_selected_interval(
        self, index: int, demand: float
    ) -> tuple[float, float] | None:
        """Values certified *selected* for probes ``(demand, v)``.

        Returns ``(v_min, v_max)``: every probe value in the interval is
        sound to treat as selected without running it, or ``None`` when no
        certificate exists.  Derivation (see module docstring): the probe
        must be score-increasing relative to the base declaration
        (``v <= v_max`` keeps the prefix up to the recorded winning round
        ``k`` unchanged) and its score at round ``k`` must stay a safety
        band below the recorded runner-up lower bound — and below the
        admission threshold in drain mode (``v >= v_min``).  A ``v_min`` of
        ``0.0`` means round ``k`` had no contender: the critical value is
        exactly zero.
        """
        t = self._trace
        k = t.first_win.get(index)
        if k is None:
            return None
        round_k = t.rounds[k]
        orig = self._orig_ratio(index)
        if not (orig > 0.0) or not math.isfinite(orig):
            return None
        v_max = _lower(demand / orig)
        cap_score = round_k.runner_up_lb
        if t.mode == "drain" and t.admission == "threshold":
            cap_score = min(cap_score, t.score_threshold)
        if cap_score == math.inf:
            return (0.0, v_max)
        cap = _lower(cap_score)
        if cap <= 0.0:
            return None
        dist_ub = _upper(round_k.score / orig)
        v_min = _upper(demand * dist_ub / cap)
        if v_min > v_max:
            return None
        return (v_min, v_max)

    def not_selected_below(self, index: int, demand: float) -> float:
        """Largest bound ``L`` with probes ``(demand, v)``, ``v <= L``,
        certified *not* selected — ``0.0`` when no certificate applies.

        Only the online threshold policy yields one: at the recorded
        admission round the probe's exact distance is pinned by the winning
        score, and a score strictly above the threshold there stays above
        it forever (scores are monotone), so the request is never admitted.
        """
        t = self._trace
        if t.mode != "drain" or t.admission != "threshold":
            return 0.0
        k = t.first_win.get(index)
        if k is None:
            return 0.0
        orig = self._orig_ratio(index)
        if not (orig > 0.0) or not math.isfinite(orig):
            return 0.0
        dist_lb = _lower(t.rounds[k].score / orig)
        if dist_lb <= 0.0:
            return 0.0
        bound = _lower(demand * dist_lb / t.score_threshold)
        # The prefix-identity argument needs a score-increasing probe.
        return max(0.0, min(bound, _lower(demand / orig)))

    def _orig_ratio(self, index: int) -> float:
        raise NotImplementedError


class TraceReplayer(_ReplayerBase):
    """Suffix-resume replays for path-mode traces (ufp / repeat / drain).

    One persistent scratch :class:`DualWeights` and one persistent replay
    engine are reused across every probe: a probe restores the checkpoint
    at or before its divergence round in place, swaps the probed
    declaration in, re-applies the recorded dual updates up to the
    divergence round and re-runs the greedy loop for the suffix only.

    Bisection probes get a second level of sharing: the first boolean probe
    of a winner that diverges exactly at its recorded winning round ``k``
    records the **excluded continuation** — the run from round ``k`` with
    that winner removed — as a sub-trace of its own (with checkpoints).
    Every later probe of that winner replays against the sub-trace: a probe
    whose score (bounded below by the winner's exact distance at round
    ``k``) never catches the continuation's winner scores is answered with
    *zero* replay work — not selected when the continuation ended on the
    budget/cap rule, selected when it ended with the pool exhausted (the
    probed request is the only routable request left).  Probes that do
    catch resume from the sub-trace checkpoint just before the catch round.
    """

    def __init__(
        self,
        trace: RunTrace,
        *,
        engine: PathPricingEngine | None = None,
        duals: DualWeights | None = None,
        stats: ReplayStats | None = None,
        swap_state: list | None = None,
    ) -> None:
        super().__init__(trace)
        if trace.mode not in ("ufp", "repeat", "drain"):
            raise ValueError(f"not a path-mode trace: {trace.mode!r}")
        if engine is not None:
            # Sub-replayer: share the parent's scratch state (probes are
            # strictly sequential, and checkpoints of both traces describe
            # the same request pool).
            self._engine = engine
            self._duals = duals
        else:
            base = trace.checkpoints[0]
            self._duals = base.duals.copy()
            self._engine = PathPricingEngine(
                trace.graph,
                list(trace.requests),
                self._duals,
                remove_selected=trace.mode != "repeat",
            )
        if stats is not None:
            self.stats = stats
        # The score above which the recorded drain stops admitting (inf
        # unless the trace is a threshold drain).
        self._threshold = (
            trace.score_threshold if trace.admission == "threshold" else math.inf
        )
        # Which declaration is currently swapped into the shared engine —
        # shared with sub-replayers so any of them can undo a prior swap.
        self._swap_state: list = swap_state if swap_state is not None else [None]
        self._subs: dict[int, "TraceReplayer"] = {}

    def _orig_ratio(self, index: int) -> float:
        orig = self._trace.requests[index]
        return orig.demand / orig.value

    # -------------------------------------------------------------- #
    # Probes
    # -------------------------------------------------------------- #
    def probe_selected(self, index: int, request) -> bool:
        """Whether the probe run selects ``index`` (memoized, early-exit)."""
        if request.value <= 0.0:
            return False
        key = (index, float(request.demand), float(request.value))
        cached = self._probe_memo.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.probes += 1
        selected, _, _ = self._probe(index, request, want_rounds=False)
        self._probe_memo[key] = selected
        return selected

    def probe(self, index: int, request) -> Allocation:
        """Full probe replay: the returned *allocation* (selections, paths,
        value) is bit-identical to running the solver from scratch on the
        perturbed instance; its :class:`~repro.types.RunStats` describe the
        replay (this probe's end state and this replayer's cumulative work
        counters), not a from-scratch run.  ``drain`` traces have no
        instance — use :meth:`probe_selections`."""
        t = self._trace
        if t.instance is None:
            raise ValueError("probe() needs an instance-backed trace")
        if request.value <= 0.0:
            raise ValueError("probe value must be positive")
        self.stats.probes += 1
        selected, rounds, resumed = self._probe(index, request, want_rounds=True)
        instance = t.instance.replace_request(index, request)
        routed = [
            RoutedRequest(
                request_index=r.index,
                request=instance.requests[r.index],
                vertices=r.vertices,
                edge_ids=r.edge_ids,
                copies=1,
            )
            for r in rounds
        ]
        if not resumed:
            # The probe run is the base run verbatim, end state included.
            stopped = t.stopped_by_budget
        elif t.mode == "repeat":
            stopped = not self._duals.within_budget
        else:
            stopped = bool(self._engine.num_pending) and not self._duals.within_budget
        label = {"ufp": "Bounded-UFP", "repeat": "Bounded-UFP-Repeat"}[t.mode]
        stats = RunStats(
            iterations=len(rounds),
            shortest_path_calls=self._engine.stats.dijkstra_calls,
            stopped_by_budget=stopped,
            extra=self.stats.as_extra(),
        )
        return Allocation(
            instance=instance,
            routed=routed,
            stats=stats,
            algorithm=f"Replay-{label}(eps={t.epsilon:g})",
        )

    def probe_selections(self, index: int, request) -> list[TraceRound]:
        """Drain-mode full probe: the admitted rounds, in admission order
        (prefix rounds come from the trace, suffix rounds from the live
        resume)."""
        if request.value <= 0.0:
            raise ValueError("probe value must be positive")
        self.stats.probes += 1
        _, rounds, _ = self._probe(index, request, want_rounds=True)
        return rounds

    # -------------------------------------------------------------- #
    # Replay machinery
    # -------------------------------------------------------------- #
    def _probe(
        self, index: int, request, *, want_rounds: bool
    ) -> tuple[bool, list[TraceRound], bool]:
        """Returns ``(selected, rounds, resumed)``; ``resumed`` is False when
        the probe run was proven identical to the recorded run (no state was
        touched)."""
        t = self._trace
        total = t.num_rounds
        if t.initial_dist[index] == math.inf:
            # Unroutable terminals: the probe run is the base run verbatim.
            self.stats.trivial_probes += 1
            return False, list(t.rounds) if want_rounds else [], False
        div = self._divergence(index, request.demand, request.value)
        if div >= total and not self._tail_possible(index, request):
            # The probe run replays the base run end to end (and provably
            # stops the same way), never selecting the probed request.
            self.stats.trivial_probes += 1
            return False, list(t.rounds) if want_rounds else [], False

        if not want_rounds and div == t.first_win.get(index, -1):
            # Bisection territory: every probe of this winner that stays
            # inert up to its winning round shares the excluded
            # continuation.  Recording it costs no more than one direct
            # replay (the continuation is the probe run with the winner
            # held out), so it is built on first use and every later probe
            # of this winner is answered against it.
            sub = self._subs.get(index)
            if sub is None:
                sub = self._subs[index] = self._record_excluded(index)
            return sub._probe(index, request, want_rounds=False)

        checkpoint = self._checkpoint_for(div)
        self._restore(index, request, checkpoint)
        start = checkpoint.round_index
        for r in range(start, div):
            tr = t.rounds[r]
            self._engine.replay_commit(tr.index, tr.sorted_edge_array, tr.edge_ids)
        self.stats.rounds_skipped += start
        self.stats.rounds_replayed += div - start

        selected, suffix = self._run_suffix(index, div, want_rounds)
        rounds: list[TraceRound] = []
        if want_rounds:
            rounds = list(t.rounds[:div])
            rounds.extend(suffix)
        return selected, rounds, True

    def _tail_possible(self, index: int, request) -> bool:
        """Could the probe still be selected *after* an identically-replayed
        horizon?  Offline/greedy base traces provably end identically with
        the probed request unselected (it is pending and routable, so the
        run ended on the budget or iteration rule — request-independent).
        Threshold drains may admit the probe post-horizon unless its score
        bound already exceeds the threshold; excluded-run sub-traces ended
        on pool exhaustion have the probe as the only routable request
        left, which the trivial path answers via the recorded end state.
        """
        t = self._trace
        if t.mode == "drain" and t.admission == "threshold":
            lb = self._probe_lb(index, request.demand, request.value)
            return lb <= _upper(t.score_threshold)
        return t.pool_exhausted

    #: Sample the excluded winner's exact distance every this many rounds
    #: while recording a continuation (one cached-or-fresh tree lookup per
    #: sample).
    _OBSERVE_EVERY = 4

    def _record_excluded(self, index: int) -> "TraceReplayer":
        """Record the continuation from ``index``'s winning round with
        ``index`` removed from the pool, as a replayable sub-trace."""
        t = self._trace
        k = t.first_win[index]
        checkpoint = self._checkpoint_for(k)
        self._restore(index, t.requests[index], checkpoint)
        engine = self._engine
        duals = self._duals
        for r in range(checkpoint.round_index, k):
            tr = t.rounds[r]
            engine.replay_commit(tr.index, tr.sorted_edge_array, tr.edge_ids)
        self.stats.rounds_skipped += checkpoint.round_index
        self.stats.rounds_replayed += k - checkpoint.round_index
        # The winner's exact distance at round k: with the prefix pinned,
        # every inert probe's score from here on is >= (d'/v') * dist_k —
        # a far tighter bound than the base trace's initial distance.
        dist_k = engine.current_distance(index)
        engine.drop_request(index)

        initial = [math.inf] * len(t.requests)
        initial[index] = dist_k
        recorder = TraceRecorder()
        recorder.begin_path_run(
            mode=t.mode,
            engine=engine,
            duals=duals,
            epsilon=t.epsilon,
            iteration_cap=t.iteration_cap,
            instance=t.instance,
            requests=t.requests,
            admission=t.admission,
            score_threshold=t.score_threshold,
            initial_dist=initial,
            start_iteration=k,
        )
        observations: list[tuple[int, float]] = []
        last_dist = t.initial_dist[index]
        rounds = greedy_rounds(
            engine, cap=self._rounds_left(k), threshold=self._threshold, trace=recorder
        )
        for local_round, _ in enumerate(rounds, 1):
            self.stats.rounds_recomputed += 1
            if local_round % self._OBSERVE_EVERY == 0:
                dist = engine.current_distance(index)
                if dist > last_dist:
                    last_dist = dist
                    observations.append((local_round, _lower(dist)))
        recorder.finish(engine, duals, stopped_by_budget=not duals.within_budget)
        sub_trace = recorder.trace
        if observations:
            # Exact distances of the excluded winner sampled along the
            # continuation (dropped requests leave no heap entries for the
            # harvest to pick up) — these make most not-selected probes
            # provably inert segment by segment, i.e. free.
            sub_trace.dist_obs[index] = observations
        return TraceReplayer(
            sub_trace,
            engine=engine,
            duals=duals,
            stats=self.stats,
            swap_state=self._swap_state,
        )

    def _restore(self, index: int, request, checkpoint: TraceCheckpoint) -> None:
        engine = self._engine
        swapped = self._swap_state[0]
        if swapped is not None:
            prev_index, prev_request = swapped
            engine.set_request(prev_index, prev_request)
            self._swap_state[0] = None
        original = self._trace.requests[index]
        if request is not original:
            engine.set_request(index, request)
            self._swap_state[0] = (index, original)
        self._duals.restore_from(checkpoint.duals)
        engine.restore(checkpoint.engine, drop_index=index)
        # Excluded-run checkpoints carry the probed request as dropped.
        engine.revive(index)
        engine.push_fresh(index)

    def _run_suffix(
        self, index: int, start_round: int, want_rounds: bool
    ) -> tuple[bool, list[TraceRound]]:
        suffix: list[TraceRound] = []
        selected = False
        rounds = greedy_rounds(
            self._engine,
            cap=self._rounds_left(start_round),
            threshold=self._threshold,
        )
        for sel in rounds:
            suffix.append(self._as_round(sel))
            if sel.index == index:
                selected = True
                if not want_rounds:
                    break
        self.stats.rounds_recomputed += len(suffix)
        return selected, suffix

    def _as_round(self, sel: Selection) -> TraceRound:
        req = self._engine.request_at(sel.index)
        return TraceRound(
            index=sel.index,
            score=sel.score,
            vertices=sel.vertices,
            edge_ids=sel.edge_ids,
            sorted_edge_array=None,
            demand=req.demand,
            runner_up_lb=math.nan,
        )


class BundleTraceReplayer(_ReplayerBase):
    """Suffix-resume replays for ``bounded_muca`` traces (value probes)."""

    def __init__(self, trace: RunTrace) -> None:
        super().__init__(trace)
        if trace.mode != "muca":
            raise ValueError(f"not a muca trace: {trace.mode!r}")
        base = trace.checkpoints[0]
        self._duals = base.duals.copy()
        self._engine = BundlePricingEngine(trace.instance, self._duals)
        self._swapped_index: int | None = None

    def _orig_ratio(self, index: int) -> float:
        return 1.0 / self._trace.requests[index].value

    def _probe_score(self, demand: float, value: float, dist: float) -> float:
        # Bundle price / value, matching BundlePricingEngine._price.
        return dist / value

    def probe_selected(self, index: int, value: float) -> bool:
        """Whether the probe run (bid ``index`` declaring ``value``) wins."""
        value = float(value)
        if value <= 0.0:
            return False
        key = (index, 1.0, value)
        cached = self._probe_memo.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        selected, _ = self._probe(index, value, want_winners=False)
        self._probe_memo[key] = selected
        return selected

    def probe_winners(self, index: int, value: float) -> list[int]:
        """Full probe replay: the winner indices, in selection order —
        bit-identical to re-running ``bounded_muca`` on the perturbed
        auction."""
        if value <= 0.0:
            raise ValueError("probe value must be positive")
        _, winners = self._probe(index, float(value), want_winners=True)
        return winners

    def _probe(
        self, index: int, value: float, *, want_winners: bool
    ) -> tuple[bool, list[int]]:
        t = self._trace
        self.stats.probes += 1
        total = t.num_rounds
        div = self._divergence(index, 1.0, value)
        if div >= total:
            self.stats.trivial_probes += 1
            winners = [r.index for r in t.rounds] if want_winners else []
            return False, winners

        checkpoint = self._checkpoint_for(div)
        self._restore(index, value, checkpoint)
        start = checkpoint.round_index
        engine = self._engine
        for r in range(start, div):
            engine.replay_commit(t.rounds[r].index)
        self.stats.rounds_skipped += start
        self.stats.rounds_replayed += div - start

        winners: list[int] = [r.index for r in t.rounds[:div]] if want_winners else []
        selected = False
        for sel in greedy_rounds(engine, cap=self._rounds_left(div)):
            self.stats.rounds_recomputed += 1
            if want_winners:
                winners.append(sel.index)
            if sel.index == index:
                selected = True
                if not want_winners:
                    break
        return selected, winners

    def _restore(self, index: int, value: float, checkpoint: TraceCheckpoint) -> None:
        engine = self._engine
        if self._swapped_index is not None:
            prev = self._swapped_index
            engine.set_value(prev, self._trace.requests[prev].value)
            self._swapped_index = None
        if value != self._trace.requests[index].value:
            engine.set_value(index, value)
            self._swapped_index = index
        self._duals.restore_from(checkpoint.duals)
        engine.restore(checkpoint.engine, drop_index=index)
        engine.push_fresh(index)


def make_replayer(trace: RunTrace) -> TraceReplayer | BundleTraceReplayer:
    """Build the replayer matching a trace's mode."""
    if trace.mode == "muca":
        return BundleTraceReplayer(trace)
    return TraceReplayer(trace)
