"""Randomized rounding of the fractional LP (Raghavan–Thompson).

For ``B = Omega(ln m / eps^2)`` the classical technique — solve the
fractional relaxation, scale it down by ``(1 - eps)`` and round each request
independently (selecting path ``s`` with probability proportional to its
fractional weight) — yields a ``(1 + eps)``-approximation with high
probability.  The paper's point is that this near-optimal algorithm is *not
monotone* (a request that raises its value can change the LP solution and the
coin flips in a way that turns it from a winner into a loser), so it cannot
be used as a truthful mechanism; experiment E4/E8 demonstrates both facts
empirically: near-optimal value, failed monotonicity audit.

Two safety nets keep the output feasible on every run (the classical
analysis only gives feasibility with high probability):

* the fractional solution is scaled by ``1 - eps`` before rounding, and
* requests whose rounded path would overflow an edge are dropped in rounding
  order (a standard alteration step).
"""

from __future__ import annotations

import time

import numpy as np

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import MUCAInstance
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.lp.fractional_muca import solve_fractional_muca
from repro.lp.fractional_ufp import solve_fractional_ufp
from repro.types import RunStats
from repro.utils.prng import ensure_rng

__all__ = ["randomized_rounding_ufp", "randomized_rounding_muca"]


def randomized_rounding_ufp(
    instance: UFPInstance,
    epsilon: float = 0.1,
    *,
    seed: int | np.random.Generator | None = None,
) -> Allocation:
    """Randomized rounding of the fractional UFP optimum.

    The edge-flow optimum of :func:`~repro.lp.solve_fractional_ufp` is
    decomposed into paths
    (:meth:`~repro.lp.FractionalUFPResult.path_distribution`): request
    ``r`` routes the fraction ``x_s`` along path ``s``, with ``sum_s x_s =
    X_r``.

    Parameters
    ----------
    instance:
        The UFP instance.
    epsilon:
        Scaling parameter: each request is selected with probability
        ``(1 - eps) * sum_s x_s`` and, if selected, routed along path ``s``
        with probability proportional to ``x_s``.
    seed:
        Randomness source (the rounding is inherently randomized — which is
        precisely why it cannot be derandomized into a monotone rule by
        simple means).
    """
    if not 0.0 < float(epsilon) < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rng = ensure_rng(seed)
    start = time.perf_counter()

    residual = instance.graph.capacities.copy()
    routed: list[RoutedRequest] = []
    # An edgeless graph routes nothing and has no relaxation to solve.
    lp = solve_fractional_ufp(instance) if instance.num_edges else None

    for idx, req in enumerate(instance.requests if lp else ()):
        distribution = lp.path_distribution(idx)
        if not distribution:
            continue
        total = sum(fraction for _, _, fraction in distribution)
        accept_probability = (1.0 - float(epsilon)) * min(total, 1.0)
        if rng.random() >= accept_probability:
            continue
        weights = np.array([fraction for _, _, fraction in distribution], dtype=np.float64)
        weights = weights / weights.sum()
        choice = int(rng.choice(len(distribution), p=weights))
        vertices, edge_ids, _ = distribution[choice]
        ids = np.asarray(edge_ids, dtype=np.int64)
        if np.any(residual[ids] + 1e-12 < req.demand):
            continue
        residual[ids] -= req.demand
        routed.append(
            RoutedRequest(request_index=idx, request=req, vertices=vertices, edge_ids=edge_ids)
        )

    stats = RunStats(
        iterations=instance.num_requests,
        wall_time_s=time.perf_counter() - start,
        extra={"lp_objective": lp.objective if lp else 0.0, "epsilon": float(epsilon)},
    )
    return Allocation(
        instance=instance,
        routed=routed,
        stats=stats,
        algorithm=f"RandomizedRounding-UFP(eps={float(epsilon):g})",
    )


def randomized_rounding_muca(
    instance: MUCAInstance,
    epsilon: float = 0.1,
    *,
    seed: int | np.random.Generator | None = None,
) -> MUCAAllocation:
    """Randomized rounding of the fractional auction LP."""
    if not 0.0 < float(epsilon) < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rng = ensure_rng(seed)
    start = time.perf_counter()

    lp = solve_fractional_muca(instance)
    residual = instance.multiplicities.copy()
    winners: list[int] = []
    for idx, bid in enumerate(instance.bids):
        probability = (1.0 - float(epsilon)) * float(np.clip(lp.fractions[idx], 0.0, 1.0))
        if rng.random() >= probability:
            continue
        ids = np.asarray(bid.bundle, dtype=np.int64)
        if np.any(residual[ids] + 1e-12 < 1.0):
            continue
        residual[ids] -= 1.0
        winners.append(idx)

    stats = RunStats(
        iterations=instance.num_bids,
        wall_time_s=time.perf_counter() - start,
        extra={"lp_objective": lp.objective, "epsilon": float(epsilon)},
    )
    return MUCAAllocation(
        instance=instance,
        winners=winners,
        stats=stats,
        algorithm=f"RandomizedRounding-MUCA(eps={float(epsilon):g})",
    )
