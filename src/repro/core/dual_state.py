"""The exponential dual-weight state shared by the primal-dual algorithms.

All three algorithms of the paper maintain a dual variable ``y_e`` per edge
(or ``y_u`` per item), initialized to ``1 / c_e`` and multiplied by
``exp(eps * B * d / c_e)`` whenever a request of demand ``d`` is routed
through ``e``.  The budget ``sum_e c_e y_e`` doubles as the stopping rule:
once it exceeds ``e^{eps (B - 1)}`` the algorithm stops, and the feasibility
proof (Lemma 3.3) shows no capacity can have been violated before that point.

Keeping this state in one place lets ``Bounded-UFP``, ``Bounded-MUCA`` and
``Bounded-UFP-Repeat`` share the exact arithmetic (and lets tests probe the
analysis invariants — Claims 3.6 and 3.7 — on live runs).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["DualWeights"]


class DualWeights:
    """Mutable dual-weight vector ``y`` over edges (or items).

    Parameters
    ----------
    capacities:
        The per-edge capacities ``c_e`` (per-item multiplicities for MUCA).
    epsilon:
        The accuracy parameter of the algorithm.
    capacity_bound:
        ``B``: when ``None`` it defaults to ``min(capacities)``, which is the
        paper's definition for normalized demands.

    Notes
    -----
    The budget ``sum_e c_e y_e`` is maintained incrementally in O(path
    length) per update rather than recomputed in O(m); a full recomputation
    is available through :meth:`recompute_budget` and the two are compared in
    the property tests to guard against drift.
    """

    __slots__ = (
        "_capacities",
        "_epsilon",
        "_B",
        "_y",
        "_budget",
        "_updates",
        "_last_delta",
    )

    def __init__(
        self,
        capacities: np.ndarray | Sequence[float],
        epsilon: float,
        *,
        capacity_bound: float | None = None,
    ) -> None:
        capacities = np.asarray(capacities, dtype=np.float64)
        if capacities.ndim != 1 or capacities.size == 0:
            raise ValueError("capacities must be a non-empty 1-D array")
        if np.any(capacities <= 0):
            raise ValueError("capacities must be positive")
        if not 0.0 < float(epsilon) <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        self._capacities = capacities
        self._epsilon = float(epsilon)
        self._B = float(capacity_bound) if capacity_bound is not None else float(capacities.min())
        if self._B <= 0:
            raise ValueError("capacity bound B must be positive")
        # Line 4 of Algorithm 1: y_e = 1 / c_e.
        self._y = 1.0 / capacities
        self._budget = float(self._capacities @ self._y)  # equals m initially
        self._updates = 0
        self._last_delta = 0.0

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    @property
    def weights(self) -> np.ndarray:
        """The current dual weights ``y`` (read-only view)."""
        view = self._y.view()
        view.flags.writeable = False
        return view

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def capacity_bound(self) -> float:
        """``B`` as used in the update exponent and the stopping rule."""
        return self._B

    @property
    def budget(self) -> float:
        """``sum_e c_e y_e`` — the first part of the dual objective, D1."""
        return self._budget

    @property
    def budget_limit(self) -> float:
        """The stopping threshold ``e^{eps (B - 1)}`` of line 5 / line 3."""
        return math.exp(self._epsilon * (self._B - 1.0))

    @property
    def within_budget(self) -> bool:
        """Whether the main loop is still allowed to run another iteration."""
        return self._budget <= self.budget_limit

    @property
    def num_updates(self) -> int:
        """Number of weight-update operations applied so far."""
        return self._updates

    @property
    def last_budget_increment(self) -> float:
        """The exact float added to the budget by the most recent
        :meth:`apply_selection` (``0.0`` before any update).

        The partitioned solver's coordinator reconstructs the *global*
        incremental budget by summing shard increments in global commit
        order; exposing the increment itself (rather than differencing
        ``budget`` snapshots, which re-rounds) keeps that reconstruction
        bit-identical to the global solver's arithmetic.
        """
        return self._last_delta

    def weight_of(self, index: int) -> float:
        return float(self._y[index])

    def path_length(self, edge_ids: Sequence[int] | np.ndarray) -> float:
        """``sum_{e in p} y_e`` for a path/bundle given by edge ids.

        Pre-built ``np.ndarray`` id arrays (the pricing engine keeps one per
        bid / path) are used directly, skipping the ``np.asarray`` round-trip;
        raw Python sequences are converted as before.
        """
        if isinstance(edge_ids, np.ndarray):
            if edge_ids.size == 0:
                return 0.0
            return float(self._y[edge_ids].sum())
        if len(edge_ids) == 0:
            return 0.0
        return float(self._y[np.asarray(edge_ids, dtype=np.int64)].sum())

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def apply_selection(
        self,
        edge_ids: Sequence[int] | np.ndarray,
        demand: float,
        *,
        assume_unique: bool = False,
    ) -> None:
        """Apply line 10 of Algorithm 1: ``y_e *= exp(eps B d / c_e)`` for
        every edge of the selected path (or every item of the bundle with
        ``demand = 1`` for MUCA).

        With ``assume_unique=True`` the caller guarantees ``edge_ids`` is a
        *sorted* integer array of distinct ids (simple paths and bundles
        always are once sorted) and the ``np.unique`` round-trip is skipped.
        Sortedness matters for bit-reproducibility: the incremental budget
        update is a dot product whose floating-point rounding depends on the
        summation order, and ``np.unique`` output is sorted.
        """
        if demand <= 0:
            raise ValueError("demand must be positive")
        if assume_unique:
            ids = np.asarray(edge_ids, dtype=np.int64)
        else:
            # Paths are simple and bundles are sets, so ids are normally
            # distinct; de-duplicating here keeps the incremental budget
            # correct even for callers that pass repeated ids.
            ids = np.unique(np.asarray(edge_ids, dtype=np.int64))
        if ids.size == 0:
            return
        # np.exp, never math.exp: the two disagree in the last ulp on a few
        # percent of inputs.
        caps = self._capacities[ids]
        old = self._y[ids]
        new = old * np.exp(self._epsilon * self._B * float(demand) / caps)
        self._y[ids] = new
        delta = float(caps @ (new - old))
        self._budget += delta
        self._updates += 1
        self._last_delta = delta

    def recompute_budget(self) -> float:
        """Recompute ``sum_e c_e y_e`` from scratch (used to verify the
        incremental bookkeeping in tests)."""
        return float(self._capacities @ self._y)

    def with_capacities(
        self, capacities: np.ndarray | Sequence[float]
    ) -> "DualWeights":
        """A new state over a resized substrate, preserving congestion.

        Capacity churn (an edge shrinking or an edge coming back after a
        failure) changes ``c_e`` mid-run.  The paper's analysis keys the
        exponent on the *multiplier* ``y_e * c_e`` — the accumulated
        ``exp(eps B sum d / c_e)`` factor over the edge's history — so the
        fault-tolerant auction carries that multiplier across the resize:
        ``y'_e = y_e * c_e / c'_e``.  Fresh edges (old weight still at its
        ``1 / c_e`` initial value) land exactly on ``1 / c'_e``, and the
        budget contribution ``c'_e y'_e = c_e y_e`` of every edge is
        unchanged, so the stopping rule does not jump on a resize.  The
        update counter carries over (the weights are not in their initial
        state), and ``epsilon``/``B`` are preserved — the guarantee tracked
        is the one the run was started with.
        """
        new_caps = np.asarray(capacities, dtype=np.float64)
        if new_caps.shape != self._capacities.shape:
            raise ValueError("with_capacities requires the same edge count")
        if np.any(new_caps <= 0):
            raise ValueError("capacities must be positive")
        clone = DualWeights.__new__(DualWeights)
        clone._capacities = new_caps
        clone._epsilon = self._epsilon
        clone._B = self._B
        clone._y = self._y * (self._capacities / new_caps)
        clone._budget = float(new_caps @ clone._y)
        clone._updates = self._updates
        clone._last_delta = self._last_delta
        return clone

    def copy(self) -> "DualWeights":
        """A copy with its own weight vector (the capacities are shared:
        they never change).  Engine forks and online batch drains start
        from one."""
        clone = DualWeights.__new__(DualWeights)
        clone._capacities = self._capacities
        clone._epsilon = self._epsilon
        clone._B = self._B
        clone._y = self._y.copy()
        clone._budget = self._budget
        clone._updates = self._updates
        clone._last_delta = self._last_delta
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DualWeights(m={self._y.size}, eps={self._epsilon:g}, B={self._B:g}, "
            f"budget={self._budget:.6g}/{self.budget_limit:.6g})"
        )
