"""Run traces and per-agent probe tables: critical values from one excluded run.

Critical-value payments, truthfulness audits and online batch payments all
ask the same question thousands of times: *"re-run the mechanism with agent
``i``'s declaration changed — is ``i`` selected?"*  This module answers it
from one recorded run:

* a :class:`TraceRecorder`, passed as ``trace=`` to ``bounded_ufp``,
  ``bounded_ufp_repeat``, ``bounded_muca`` or an online batch drain, which
  hand it to :func:`~repro.core.pricing_engine.greedy_rounds`, records the
  base run of an instance — per committed round: the winner, its exact
  score and the dual-update edge set — plus periodic **checkpoints**: a
  :class:`~repro.core.dual_state.DualWeights` copy and a
  :meth:`~repro.core.pricing_engine.PathPricingEngine.fork` engine snapshot
  (cached shortest-path trees are immutable and shared by reference, so a
  checkpoint is heap + flags + bookkeeping, not a deep copy);
* a :class:`TraceReplayer` (:class:`BundleTraceReplayer` for MUCA) answers
  ``probe_selected(index, declaration)``, where the declaration is a
  ``Request`` (a ``Bid`` for MUCA), from a per-agent **table** built from
  one *excluded run*: the run with that agent removed from the pool.  It is
  one of the selection oracles of :mod:`repro.mechanism.payments`.

Why one excluded run answers every probe
----------------------------------------
A declaration is invisible to the greedy loop until the round it wins: each
round commits the least ``(score, index)`` pair of the live pool, and
nothing else in a round depends on who is in the pool.  So a probe run of
agent ``i`` under any declaration ``(d', v')`` equals ``i``'s excluded run
up to the first round ``t`` with::

    (d' / v' * x_t, i) < (s_t, j_t)

where ``x_t`` is ``i``'s exact distance at the start of the excluded run's
round ``t`` (its bundle price, with score ``x_t / v'``, for MUCA) and
``(s_t, j_t)`` is that round's winning score and index; the probe run
selects ``i`` there.  If no round qualifies, the probe run stops where the
excluded run stopped, with ``i`` still pending.  It then selects ``i`` only
if the excluded run ended with budget and iteration cap to spare (it ran out
of routable requests, or its next winner priced above the admission
threshold), ``i``'s final distance ``x_end`` is finite and its score there
is at most the threshold (``inf`` offline).  Scores use the engine's own
float expressions and are compared exactly, so every answer equals the
from-scratch run's.

Agent ``i``'s table holds one row ``(x_t, s_t, j_t)`` per round.  Removing
an agent changes nothing before the round ``k`` it first wins, so the rows
before ``k`` are the base run's rounds.  From ``k`` on, the replayer
restores the checkpoint at or before ``k``, re-applies the recorded dual
updates up to ``k``, drops ``i`` and runs ``greedy_rounds`` with the base
run's remaining cap and threshold.  A loser's excluded run is the base run
itself.  Two things keep tables cheap:

* **lazy prefix** — ``i`` lost every round before ``k`` under its own
  declaration, so those rows can only select a probe whose score lies below
  the declaration's (``d'/v' < d/v``; ``v' > v`` for bundles).  Payment
  bisections never probe above the declared value and never need them; the
  first probe that does (an audit misreport) builds them by walking the base
  run from checkpoint 0;
* **path-tracked distance** — ``x_t`` is re-read only after a commit whose
  path shares an edge with ``i``'s current shortest path.  Otherwise that
  path kept its weights and every other arc only rose, so the distance is
  unchanged bit for bit: the engine's tree-validity argument applied to one
  target.

``tests/test_trace_replay.py`` checks the answers against from-scratch runs
across the pinned differential-fuzz corpus, on loop trees and on C trees.
"""

from __future__ import annotations

import inspect
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import (
    BundlePricingEngine,
    PathPricingEngine,
    Selection,
    greedy_rounds,
)

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
    """One committed round of a recorded run (``edge_ids`` is ``None`` for
    a bid)."""

    __slots__ = ("index", "score", "edge_ids", "sorted_edge_array")

    def __init__(
        self,
        index: int,
        score: float,
        edge_ids: tuple | None,
        sorted_edge_array: np.ndarray | None,
    ) -> None:
        self.index = index
        self.score = score
        self.edge_ids = edge_ids
        self.sorted_edge_array = sorted_edge_array


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
        "instance",
        "requests",
        "iteration_cap",
        "admission",
        "score_threshold",
        "rounds",
        "first_win",
        "checkpoints",
        "completed",
    )

    def __init__(self, *, mode: str) -> None:
        if mode not in ("ufp", "repeat", "muca", "drain"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.instance = None
        self.requests: tuple = ()
        self.iteration_cap: int | None = None
        self.admission: str | None = None
        self.score_threshold = math.inf
        self.rounds: list[TraceRound] = []
        self.first_win: dict[int, int] = {}
        self.checkpoints: list[TraceCheckpoint] = []
        self.completed = False

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


#: Rounds between checkpoints at the start of a recorded run.
CHECKPOINT_INTERVAL = 8

#: Checkpoints kept before the recorder thins them and doubles the interval.
MAX_CHECKPOINTS = 17


class TraceRecorder:
    """Collects the acceptance trace and periodic checkpoints of one run.

    Pass an instance as ``trace=`` to :func:`repro.core.bounded_ufp`,
    :func:`repro.core.bounded_ufp_repeat`, :func:`repro.core.bounded_muca`
    or an online batch drain (``repro.online.auction._BatchDrain``).  The
    solver brackets the run with ``begin_*_run``/:meth:`finish`; in between,
    :func:`~repro.core.pricing_engine.greedy_rounds` (given the recorder as
    ``trace=``) calls :meth:`record_round` after each commit.  After the
    run, :attr:`trace` holds the completed :class:`RunTrace` and
    :func:`make_replayer` builds the matching replayer.

    Checkpoints start at every :data:`CHECKPOINT_INTERVAL` rounds; the
    interval doubles whenever more than :data:`MAX_CHECKPOINTS` snapshots
    accumulate (thinning to every other one), bounding memory at roughly
    ``MAX_CHECKPOINTS * (O(m) duals + O(pool) engine state)`` for runs of
    any length.
    """

    def __init__(self) -> None:
        self._interval = CHECKPOINT_INTERVAL
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
        iteration_cap: int | None,
        instance,
        admission: str | None = None,
        score_threshold: float = math.inf,
    ) -> None:
        """Start recording a path-mode run (``ufp``/``repeat``/``drain``)
        of ``instance``.

        Must be called right after engine construction: checkpoint 0
        captures the pristine state.
        """
        t = RunTrace(mode=mode)
        t.instance = instance
        t.requests = tuple(instance.requests)
        t.iteration_cap = iteration_cap
        t.admission = admission
        t.score_threshold = float(score_threshold)
        self._begin(t, engine)

    def begin_bundle_run(
        self,
        *,
        engine: BundlePricingEngine,
        iteration_cap: int | None,
        instance,
    ) -> None:
        """Start recording a ``bounded_muca`` run."""
        t = RunTrace(mode="muca")
        t.instance = instance
        t.requests = tuple(instance.bids)
        t.iteration_cap = iteration_cap
        self._begin(t, engine)

    def record_round(self, engine, selection: Selection) -> None:
        """Record one committed winner and checkpoint when due.
        :func:`greedy_rounds` calls it right after ``commit()``."""
        t = self._require_active()
        edge_ids = selection.edge_ids
        t.rounds.append(
            TraceRound(
                index=selection.index,
                score=selection.score,
                edge_ids=edge_ids,
                sorted_edge_array=(
                    None
                    if edge_ids is None
                    else np.asarray(sorted(edge_ids), dtype=np.int64)
                ),
            )
        )
        t.first_win.setdefault(selection.index, len(t.rounds) - 1)
        if len(t.rounds) - t.checkpoints[-1].round_index >= self._interval:
            self._take_checkpoint(engine)

    def finish(self, engine) -> None:
        """Seal the trace (taking a final checkpoint, where loser tables
        start) and publish it."""
        t = self._require_active()
        if t.checkpoints[-1].round_index < len(t.rounds):
            self._take_checkpoint(engine)
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
    def _begin(self, t: RunTrace, engine) -> None:
        self._active = t
        self.trace = None
        self._take_checkpoint(engine)

    def _require_active(self) -> RunTrace:
        if self._active is None:
            raise RuntimeError(
                "TraceRecorder hooks called outside a begin_*/finish window"
            )
        return self._active

    def _take_checkpoint(self, engine) -> None:
        t = self._active
        t.checkpoints.append(
            TraceCheckpoint(len(t.rounds), engine.duals.copy(), engine.fork())
        )
        if len(t.checkpoints) > MAX_CHECKPOINTS:
            # Thin to every other checkpoint (round 0 stays) and double the
            # interval: memory stays bounded for arbitrarily long runs.
            t.checkpoints = t.checkpoints[::2]
            self._interval *= 2


@dataclass
class ReplayStats:
    """Work counters of probe tables: probes answered, and rounds restored
    from a checkpoint (skipped), re-applied from the trace (replayed) or
    re-run live (recomputed) while building tables."""

    probes: int = 0
    rounds_skipped: int = 0
    rounds_replayed: int = 0
    rounds_recomputed: int = 0

    def __iadd__(self, other: "ReplayStats") -> "ReplayStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_extra(self, prefix: str = "replay_") -> dict[str, float]:
        return {
            f"{prefix}{f.name}": float(getattr(self, f.name)) for f in fields(self)
        }


class _Table:
    """One agent's probe table (see the module docstring).

    ``rows`` are the excluded run's rounds from the agent's first win on,
    ``prefix`` the base run's rounds before it (``None`` until a probe needs
    them), each as ``(x_t, s_t, j_t)``.  ``end_open`` says whether the
    excluded run ended with budget and cap to spare and a finite ``end_x``.
    """

    __slots__ = ("rows", "prefix", "end_open", "end_x", "stats")

    def __init__(self, rows, end_open: bool, end_x: float, stats: ReplayStats):
        self.rows = rows
        self.prefix: list | None = None
        self.end_open = end_open
        self.end_x = end_x
        self.stats = stats


class _ReplayerBase:
    """Table building shared by the path and bundle replayers.  Subclasses
    own one scratch engine and :class:`DualWeights`, restored in place from
    a checkpoint for every table walk, and define :meth:`_read` (the
    agent's exact distance or bundle price, plus what a commit must touch to
    change it), :meth:`_touches` and :meth:`_replay`."""

    _engine: PathPricingEngine | BundlePricingEngine
    _duals: DualWeights

    def __init__(self, trace: RunTrace) -> None:
        if not trace.completed:
            raise ValueError("cannot replay an unfinished trace")
        self._trace = trace
        self._cp_rounds = [cp.round_index for cp in trace.checkpoints]
        # The score above which the recorded run stops admitting (inf unless
        # the trace is a threshold drain).
        self._threshold = (
            trace.score_threshold if trace.admission == "threshold" else math.inf
        )
        self._tables: dict[int, _Table] = {}

    @property
    def trace(self) -> RunTrace:
        return self._trace

    def declared(self, index: int):
        """The base run's declaration at ``index``."""
        return self._trace.requests[index]

    def agent_stats(self, index: int) -> ReplayStats:
        """The work of building and probing ``index``'s table so far."""
        table = self._tables.get(index)
        return table.stats if table is not None else ReplayStats()

    def _probe_table(self, index: int) -> _Table:
        """``index``'s table, built on its first probe; counts one probe."""
        table = self._tables.get(index)
        if table is None:
            table = self._tables[index] = self._build(index)
        table.stats.probes += 1
        return table

    def _walk_to(self, round_index: int, stats: ReplayStats) -> None:
        """Put the scratch state at the start of base round ``round_index``:
        restore the last checkpoint at or before it and re-apply the
        recorded rounds in between."""
        t = self._trace
        checkpoint = t.checkpoints[bisect_right(self._cp_rounds, round_index) - 1]
        self._duals.restore_from(checkpoint.duals)
        self._engine.restore(checkpoint.engine)
        for r in range(checkpoint.round_index, round_index):
            self._replay(t.rounds[r])
        stats.rounds_skipped += checkpoint.round_index
        stats.rounds_replayed += round_index - checkpoint.round_index

    def _build(self, index: int) -> _Table:
        """Run ``index``'s excluded run from its first winning round."""
        t = self._trace
        total = t.num_rounds
        k = t.first_win.get(index, total)
        stats = ReplayStats()
        self._walk_to(k, stats)
        self._engine.drop_request(index)
        cap = math.inf if t.iteration_cap is None else t.iteration_cap - k
        rows, x = self._rows(
            index, greedy_rounds(self._engine, cap=cap, threshold=self._threshold)
        )
        assert k < total or not rows, "a loser's excluded run is the base run"
        stats.rounds_recomputed += len(rows)
        end_open = len(rows) < cap and self._duals.within_budget and x != math.inf
        return _Table(rows, end_open, x, stats)

    def _prefix(self, index: int, table: _Table) -> list:
        """The base run's rows before ``index``'s first win, built on first
        use by walking the base run from checkpoint 0."""
        if table.prefix is None:
            t = self._trace
            self._walk_to(0, table.stats)
            rounds = t.rounds[: t.first_win.get(index, t.num_rounds)]
            table.prefix, _ = self._rows(index, self._replayed(rounds))
            table.stats.rounds_replayed += len(rounds)
        return table.prefix

    def _rows(self, index: int, rounds) -> tuple[list, float]:
        """One ``(x_t, s_t, j_t)`` row per round of ``rounds``, an iterator
        that commits each round before yielding it, and ``index``'s
        distance after the last one."""
        x, key = self._read(index)
        rows = []
        for round_ in rounds:
            rows.append((x, round_.score, round_.index))
            if self._touches(key, round_):
                x, key = self._read(index)
        return rows, x

    def _replayed(self, rounds: Sequence[TraceRound]):
        """Re-apply recorded ``rounds`` one by one, yielding each."""
        for round_ in rounds:
            self._replay(round_)
            yield round_

    def _read(self, index: int) -> tuple[float, object]:
        raise NotImplementedError

    def _touches(self, key, round_) -> bool:
        raise NotImplementedError

    def _replay(self, round_: TraceRound) -> None:
        raise NotImplementedError


class TraceReplayer(_ReplayerBase):
    """Probe tables for path-mode traces (ufp / repeat / drain)."""

    def __init__(self, trace: RunTrace) -> None:
        super().__init__(trace)
        if trace.mode not in ("ufp", "repeat", "drain"):
            raise ValueError(f"not a path-mode trace: {trace.mode!r}")
        self._duals = trace.checkpoints[0].duals.copy()
        self._engine = PathPricingEngine(
            trace.instance.graph,
            list(trace.requests),
            self._duals,
            remove_selected=trace.mode != "repeat",
        )

    def probe_selected(self, index: int, request) -> bool:
        """Whether the run with ``index`` declaring ``request`` (same
        terminals) selects it."""
        if request.value <= 0.0:
            return False
        table = self._probe_table(index)
        # The engine's score is demand / value * distance, left to right.
        ratio = request.demand / request.value
        declared = self._trace.requests[index]
        if ratio < declared.demand / declared.value:
            for x, s, j in self._prefix(index, table):
                score = ratio * x
                if score < s or (score == s and index < j):
                    return True
        for x, s, j in table.rows:
            score = ratio * x
            if score < s or (score == s and index < j):
                return True
        return table.end_open and ratio * table.end_x <= self._threshold

    def _read(self, index: int) -> tuple[float, frozenset]:
        distance, edge_ids = self._engine.current_route(index)
        return distance, frozenset(edge_ids)

    def _touches(self, key: frozenset, round_) -> bool:
        return not key.isdisjoint(round_.edge_ids)

    def _replay(self, round_: TraceRound) -> None:
        self._engine.replay_commit(
            round_.index, round_.sorted_edge_array, round_.edge_ids
        )


class BundleTraceReplayer(_ReplayerBase):
    """Probe tables for ``bounded_muca`` traces (value probes: a probed
    ``Bid`` keeps the declared bundle)."""

    def __init__(self, trace: RunTrace) -> None:
        super().__init__(trace)
        if trace.mode != "muca":
            raise ValueError(f"not a muca trace: {trace.mode!r}")
        self._duals = trace.checkpoints[0].duals.copy()
        self._engine = BundlePricingEngine(trace.instance, self._duals)

    def probe_selected(self, index: int, bid) -> bool:
        """Whether the run with bid ``index`` declaring ``bid`` (same
        bundle) wins."""
        value = bid.value
        if value <= 0.0:
            return False
        table = self._probe_table(index)
        # Only a value above the declared one can score below it.
        if value > self._trace.requests[index].value:
            for x, s, j in self._prefix(index, table):
                score = x / value
                if score < s or (score == s and index < j):
                    return True
        for x, s, j in table.rows:
            score = x / value
            if score < s or (score == s and index < j):
                return True
        return table.end_open and table.end_x / value <= self._threshold

    def _read(self, index: int) -> tuple[float, None]:
        return self._engine.current_price(index), None

    def _touches(self, key: None, round_) -> bool:
        # A bundle price is one short sum: re-read it every round.
        return True

    def _replay(self, round_: TraceRound) -> None:
        self._engine.replay_commit(round_.index)


def make_replayer(trace: RunTrace) -> TraceReplayer | BundleTraceReplayer:
    """Build the replayer matching a trace's mode."""
    if trace.mode == "muca":
        return BundleTraceReplayer(trace)
    return TraceReplayer(trace)
