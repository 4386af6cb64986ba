"""Shared light-weight value types used across the :mod:`repro` package.

The heavier domain objects (graphs, instances, allocations) live in their own
subpackages; this module only holds the small enums and frozen dataclasses
that several subpackages need without creating import cycles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "Direction",
    "SolverStatus",
    "RunStats",
    "E_OVER_E_MINUS_1",
    "ufp_capacity_threshold",
]

#: The constant ``e / (e - 1)`` — the approximation ratio the paper's
#: Bounded-UFP and Bounded-MUCA algorithms approach (Theorems 3.1 and 4.1).
E_OVER_E_MINUS_1: float = math.e / (math.e - 1.0)


def ufp_capacity_threshold(num_edges: int, epsilon: float) -> float:
    """Return the capacity bound ``ln(m) / eps**2`` required by Theorem 3.1.

    Parameters
    ----------
    num_edges:
        ``m``, the number of edges of the graph (or items of the auction).
    epsilon:
        The accuracy parameter of the algorithm, in ``(0, 1]``.
    """
    if num_edges < 1:
        raise ValueError("num_edges must be at least 1")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    return math.log(max(num_edges, 2)) / (epsilon * epsilon)


class Direction(enum.Enum):
    """Orientation of a capacitated graph."""

    DIRECTED = "directed"
    UNDIRECTED = "undirected"

    @property
    def is_directed(self) -> bool:
        return self is Direction.DIRECTED


class SolverStatus(enum.Enum):
    """Normalized status of an LP / ILP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"

    @property
    def ok(self) -> bool:
        return self is SolverStatus.OPTIMAL


@dataclass(frozen=True)
class RunStats:
    """Execution statistics reported by the iterative algorithms.

    Attributes
    ----------
    iterations:
        Number of main-loop iterations executed.
    shortest_path_calls:
        Number of single-source shortest path computations performed.
    stopped_by_budget:
        ``True`` when the run terminated because the dual budget
        ``sum_e c_e y_e`` exceeded ``e^{eps (B - 1)}`` (the paper's stopping
        rule), ``False`` when it terminated because every request was handled.
    wall_time_s:
        Wall-clock time of the run in seconds.
    extra:
        Algorithm-specific counters (e.g. number of lazy Dijkstra reuses).
    """

    iterations: int = 0
    shortest_path_calls: int = 0
    stopped_by_budget: bool = False
    wall_time_s: float = 0.0
    extra: Mapping[str, float] = field(default_factory=dict)

    def merged(self, **updates: float) -> "RunStats":
        """Return a copy with ``extra`` extended by ``updates``."""
        merged = dict(self.extra)
        merged.update(updates)
        return RunStats(
            iterations=self.iterations,
            shortest_path_calls=self.shortest_path_calls,
            stopped_by_budget=self.stopped_by_budget,
            wall_time_s=self.wall_time_s,
            extra=merged,
        )

