"""Online streaming multi-unit auctions: incremental ``Bounded-MUCA``.

The auction specialization streams the same way the flow problem does: item
prices ``y_u`` only ever grow, so the :class:`BundlePricingEngine`'s cached
bundle scores stay valid lower bounds across batches, and a newly arrived
bid is priced with one bundle sum — bids that share no item with a past
winner are never re-priced.  The dual budget rule makes the running winner
set feasible at every prefix of the stream, exactly as in the offline
Theorem 4.1 argument.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import Bid, MUCAInstance
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import BundlePricingEngine, PricingStats, greedy_rounds
from repro.types import RunStats

__all__ = ["OnlineMUCAAuction", "BidAdmission"]


@dataclass(frozen=True)
class BidAdmission:
    """One admitted bid: its arrival-order index, the batch that admitted it
    and its exact normalized bundle price at admission time."""

    bid_index: int
    batch: int
    score: float


class OnlineMUCAAuction:
    """Incremental ``Bounded-MUCA`` over a stream of bid arrivals.

    Parameters mirror :class:`repro.online.auction.OnlineAuction`, minus the
    path-specific knobs: item ``multiplicities`` play the role of edge
    capacities, and admission is greedy (drain the pool while the dual
    budget allows — the exact online analogue of Algorithm 2's loop).
    """

    def __init__(
        self,
        multiplicities: np.ndarray | Sequence[float],
        epsilon: float,
        *,
        name: str = "online-muca",
    ) -> None:
        self._multiplicities = np.asarray(multiplicities, dtype=np.float64)
        self._epsilon = float(epsilon)
        self._name = str(name)
        self._duals = DualWeights(self._multiplicities, self._epsilon)
        self._engine = BundlePricingEngine.streaming(self._duals)
        self._bids: list[Bid] = []
        self._admissions: list[BidAdmission] = []
        self._num_batches = 0
        self._wall_time = 0.0

    @property
    def duals(self) -> DualWeights:
        return self._duals

    @property
    def pricing_stats(self) -> PricingStats:
        return self._engine.stats

    @property
    def num_arrived(self) -> int:
        return len(self._bids)

    @property
    def num_admitted(self) -> int:
        return len(self._admissions)

    @property
    def within_budget(self) -> bool:
        return self._duals.within_budget

    def submit(self, bids: Sequence[Bid]) -> list[BidAdmission]:
        """Process one arrival batch of bids and return the admissions."""
        start = _time.perf_counter()
        batch_index = self._num_batches
        self._num_batches += 1
        self._bids.extend(bids)
        self._engine.add_bids(bids)

        admissions = [
            BidAdmission(
                bid_index=selection.index, batch=batch_index, score=selection.score
            )
            for selection in greedy_rounds(self._engine)
        ]
        self._admissions.extend(admissions)
        self._wall_time += _time.perf_counter() - start
        return admissions

    def run(self, batches: Iterable[Sequence[Bid]]) -> MUCAAllocation:
        """Consume a whole stream of bid batches and finalize."""
        for batch in batches:
            self.submit(batch)
        return self.finalize()

    def finalize(self) -> MUCAAllocation:
        """Snapshot the run as a standard :class:`MUCAAllocation` over the
        accumulated instance (winners in admission order)."""
        instance = MUCAInstance(
            self._multiplicities,
            list(self._bids),
            name=self._name,
            metadata={
                "kind": "online-muca-stream",
                "epsilon": self._epsilon,
                "num_batches": self._num_batches,
            },
        )
        stats = RunStats(
            iterations=len(self._admissions),
            shortest_path_calls=0,
            stopped_by_budget=not self._duals.within_budget,
            wall_time_s=self._wall_time,
            extra={
                "final_dual_budget": self._duals.budget,
                "dual_budget_limit": self._duals.budget_limit,
                "epsilon": self._epsilon,
                "capacity_bound": self._duals.capacity_bound,
                "num_batches": float(self._num_batches),
                **self._engine.stats.as_extra(prefix="pricing_bundle_"),
            },
        )
        return MUCAAllocation(
            instance=instance,
            winners=[admission.bid_index for admission in self._admissions],
            stats=stats,
            algorithm=f"Online-Bounded-MUCA(eps={self._epsilon:g}, greedy)",
        )
