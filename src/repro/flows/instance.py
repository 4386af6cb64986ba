"""The B-bounded unsplittable flow instance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError
from repro.flows.request import Request, normalize_requests
from repro.graphs.graph import CapacitatedGraph
from repro.types import ufp_capacity_threshold

__all__ = ["UFPInstance"]


@dataclass(frozen=True)
class UFPInstance:
    """A complete instance of the B-bounded unsplittable flow problem.

    Attributes
    ----------
    graph:
        The edge-capacitated graph ``G = (V, E)``.
    requests:
        The connection requests ``R``; each has public terminals and an
        agent-controlled ``(demand, value)`` type.
    name:
        Optional label used by the experiment harness.

    Notes
    -----
    The paper normalizes demands to ``(0, 1]`` so that the capacity bound is
    simply ``B = min_e c_e``.  The constructor validates vertex ranges and
    positivity but deliberately does *not* reject demands above 1 — the
    normalized form is obtained with :meth:`normalized`, and algorithms that
    require it call :meth:`capacity_bound` / :meth:`meets_capacity_assumption`
    to decide whether the large-capacity assumption holds.
    """

    graph: CapacitatedGraph
    requests: tuple[Request, ...]
    name: str = ""
    metadata: dict = field(default_factory=dict, compare=False)

    def __init__(
        self,
        graph: CapacitatedGraph,
        requests: Iterable[Request | Sequence[float]],
        *,
        name: str = "",
        metadata: dict | None = None,
    ) -> None:
        reqs = tuple(normalize_requests(requests))
        for req in reqs:
            for vertex in (req.source, req.target):
                if not 0 <= vertex < graph.num_vertices:
                    raise InvalidInstanceError(
                        f"request {req.name!r} references vertex {vertex}, but the "
                        f"graph has only {graph.num_vertices} vertices"
                    )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "requests", reqs)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "metadata", dict(metadata or {}))

    # ------------------------------------------------------------------ #
    # Sizes and bounds
    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def max_demand(self) -> float:
        """``max_r d_r`` over the declared demands (0 when there are none)."""
        if not self.requests:
            return 0.0
        return max(r.demand for r in self.requests)

    @property
    def min_demand(self) -> float:
        if not self.requests:
            return 0.0
        return min(r.demand for r in self.requests)

    @property
    def total_value(self) -> float:
        return float(sum(r.value for r in self.requests))

    def capacity_bound(self) -> float:
        """``B`` — the ratio ``min_e c_e / max_r d_r``.

        With demands normalized to ``(0, 1]`` and ``max_r d_r = 1`` this is
        exactly ``min_e c_e`` as in the paper; for unnormalized instances the
        ratio form is the meaningful quantity.
        """
        if self.graph.num_edges == 0:
            raise InvalidInstanceError("instance graph has no edges")
        max_d = self.max_demand
        if max_d <= 0.0:
            return self.graph.min_capacity
        return self.graph.min_capacity / max_d

    def meets_capacity_assumption(self, epsilon: float) -> bool:
        """Whether ``B >= ln(m) / eps^2`` (the Theorem 3.1 assumption)."""
        return self.capacity_bound() >= ufp_capacity_threshold(self.num_edges, epsilon)

    def minimum_epsilon(self) -> float:
        """The smallest ``eps`` for which the capacity assumption holds
        (``sqrt(ln m / B)``), clipped to ``(0, 1]``.  Returns ``inf`` when
        even ``eps = 1`` is insufficient."""
        b = self.capacity_bound()
        if b <= 0:
            return math.inf
        eps = math.sqrt(math.log(max(self.num_edges, 2)) / b)
        return eps if eps <= 1.0 else math.inf

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def normalized(self) -> "UFPInstance":
        """Return an equivalent instance with demands scaled into ``(0, 1]``.

        Both the demands and the capacities are divided by ``max_r d_r``,
        which leaves the set of feasible solutions (and their values)
        unchanged while matching the paper's normalized formulation.
        """
        max_d = self.max_demand
        if max_d <= 0.0 or math.isclose(max_d, 1.0):
            return self
        graph = self.graph.with_capacities(self.graph.capacities / max_d)
        requests = [r.with_demand(r.demand / max_d) for r in self.requests]
        return UFPInstance(graph, requests, name=self.name, metadata=dict(self.metadata))

    def replace_request(self, index: int, new_request: Request) -> "UFPInstance":
        """Return a copy with the request at ``index`` replaced.

        The replacement keeps its position so that algorithms that break ties
        by list order see the same ordering — important when auditing
        monotonicity, where only one agent's declaration may change.
        """
        if not 0 <= index < len(self.requests):
            raise IndexError(index)
        reqs = list(self.requests)
        reqs[index] = new_request
        return UFPInstance(self.graph, reqs, name=self.name, metadata=dict(self.metadata))

    def request_index(self, request: Request) -> int:
        """Index of ``request`` in the instance (by name when set, else identity)."""
        for i, r in enumerate(self.requests):
            if r is request or (request.name and r.name == request.name):
                return i
        raise KeyError(f"request {request!r} not part of this instance")

    def demands_array(self) -> np.ndarray:
        """Demands as a numpy array aligned with request order."""
        return np.array([r.demand for r in self.requests], dtype=np.float64)

    def values_array(self) -> np.ndarray:
        """Values as a numpy array aligned with request order."""
        return np.array([r.value for r in self.requests], dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"UFPInstance({label} n={self.num_vertices}, m={self.num_edges}, "
            f"|R|={self.num_requests})"
        )
