"""Winner sets for the multi-unit combinatorial auction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.auctions.instance import Bid, MUCAInstance
from repro.exceptions import InfeasibleAllocationError, InvalidInstanceError
from repro.types import RunStats

__all__ = ["MUCAAllocation", "item_loads"]


def item_loads(instance: MUCAInstance, winner_indices: Iterable[int]) -> np.ndarray:
    """Number of allocated copies of every item for the given winner set."""
    loads = np.zeros(instance.num_items, dtype=np.float64)
    for idx in winner_indices:
        for u in instance.bids[idx].bundle:
            loads[u] += 1.0
    return loads


@dataclass
class MUCAAllocation:
    """The outcome of a multi-unit combinatorial auction algorithm.

    Attributes
    ----------
    instance:
        The auction instance as declared.
    winners:
        Indices of winning bids, in selection order.
    stats:
        Execution statistics of the producing algorithm.
    algorithm:
        Name of the algorithm that produced the allocation.
    """

    instance: MUCAInstance
    winners: list[int] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)
    algorithm: str = ""

    @classmethod
    def from_winners(
        cls,
        instance: MUCAInstance,
        winners: Sequence[int],
        *,
        algorithm: str = "",
        stats: RunStats | None = None,
    ) -> "MUCAAllocation":
        """Build an allocation from winner indices, validating index ranges."""
        normalized: list[int] = []
        for idx in winners:
            idx = int(idx)
            if not 0 <= idx < instance.num_bids:
                raise InvalidInstanceError(f"winner index {idx} out of range")
            normalized.append(idx)
        return cls(
            instance=instance,
            winners=normalized,
            stats=stats or RunStats(),
            algorithm=algorithm,
        )

    @classmethod
    def empty(cls, instance: MUCAInstance, *, algorithm: str = "") -> "MUCAAllocation":
        return cls(instance=instance, winners=[], algorithm=algorithm)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def value(self) -> float:
        """Total value of the winning bids."""
        return float(sum(self.instance.bids[i].value for i in self.winners))

    @property
    def num_winners(self) -> int:
        return len(set(self.winners))

    def winning_bids(self) -> list[Bid]:
        return [self.instance.bids[i] for i in self.winners]

    def is_winner(self, bid_index: int) -> bool:
        return int(bid_index) in set(self.winners)

    def item_loads(self) -> np.ndarray:
        """Allocated copies of every item."""
        return item_loads(self.instance, self.winners)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def is_feasible(self, *, tolerance: float = 1e-9) -> bool:
        loads = self.item_loads()
        return bool(np.all(loads <= self.instance.multiplicities + tolerance))

    def validate(self, *, tolerance: float = 1e-9) -> None:
        """Raise :class:`InfeasibleAllocationError` when a bid wins twice or
        an item is over-allocated."""
        if len(set(self.winners)) != len(self.winners):
            raise InfeasibleAllocationError("a bid appears more than once among winners")
        loads = self.item_loads()
        mult = self.instance.multiplicities
        over = np.nonzero(loads > mult + tolerance)[0]
        if over.size:
            u = int(over[0])
            raise InfeasibleAllocationError(
                f"item {u} over-allocated: {loads[u]:g} copies > multiplicity {mult[u]:g}"
            )

    def __iter__(self) -> Iterator[int]:
        return iter(self.winners)

    def __len__(self) -> int:
        return len(self.winners)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MUCAAllocation(algorithm={self.algorithm!r}, winners={self.num_winners}, "
            f"value={self.value:g})"
        )
