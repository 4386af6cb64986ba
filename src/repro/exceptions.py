"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so
downstream code can catch a single base class.  Subclasses are intentionally
fine grained: infeasibility of a produced allocation is a different failure
mode from a malformed instance, and experiments distinguish them.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidRequestError",
    "InfeasibleAllocationError",
    "NoPathError",
    "LPSolveError",
    "MechanismError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class InvalidInstanceError(ReproError):
    """An instance (graph, request set, auction) violates its own invariants."""


class InvalidRequestError(InvalidInstanceError):
    """A single request or bundle is malformed (non-positive demand, etc.)."""


class InfeasibleAllocationError(ReproError):
    """An allocation violates edge capacities or item multiplicities."""


class NoPathError(ReproError):
    """No path exists between the source and target of a request."""


class LPSolveError(ReproError):
    """The underlying LP solver failed or returned an unusable status."""


class MechanismError(ReproError):
    """A mechanism-layer failure (e.g. payment computation on a loser)."""


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no data."""
