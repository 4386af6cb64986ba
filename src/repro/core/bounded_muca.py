"""Algorithm 2 of the paper: ``Bounded-MUCA``.

The single-minded multi-unit combinatorial auction is the special case of the
UFP integer program in which every request's "path set" is the singleton
``{U_r}`` and every demand is one unit of each bundle item.  Algorithm 2 is
therefore Algorithm 1 with the path-selection step removed: dual weights
``y_u = 1 / c_u`` live on items, each iteration picks the unhandled bid
minimizing ``(1 / v_r) * sum_{u in U_r} y_u`` and multiplies the weights of
its bundle items by ``exp(eps B / c_u)``.

Theorem 4.1: with parameter ``eps/6`` this is a feasible
``(1 + eps) e/(e-1)``-approximation for the ``ln(m)/eps^2``-bounded auction,
monotone and exact with respect to every bid's value — and, because a
sub-bundle can only have a smaller weight sum, monotone with respect to the
declared bundle as well, so the induced mechanism is truthful even for
*unknown* single-minded bidders (Corollary 4.2).
"""

from __future__ import annotations

import math
import time
import warnings
from typing import Literal

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import MUCAInstance
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import BundlePricingEngine
from repro.exceptions import CapacityBoundError
from repro.types import RunStats

__all__ = ["bounded_muca"]

CapacityCheck = Literal["ignore", "warn", "strict"]


def _check_capacity_assumption(
    instance: MUCAInstance, epsilon: float, mode: CapacityCheck
) -> None:
    if mode == "ignore":
        return
    if instance.meets_capacity_assumption(epsilon):
        return
    needed = math.log(max(instance.num_items, 2)) / (epsilon * epsilon)
    message = (
        f"auction has B = {instance.capacity_bound():.3g} but Theorem 4.1 requires "
        f"B >= ln(m)/eps^2 = {needed:.3g} for eps = {epsilon:g}"
    )
    if mode == "strict":
        raise CapacityBoundError(message)
    warnings.warn(message, stacklevel=3)


def bounded_muca(
    instance: MUCAInstance,
    epsilon: float,
    *,
    capacity_check: CapacityCheck = "ignore",
    max_iterations: int | None = None,
    trace=None,
) -> MUCAAllocation:
    """Run ``Bounded-MUCA(epsilon)`` (Algorithm 2) on an auction instance.

    Parameters
    ----------
    instance:
        The B-bounded multi-unit auction.
    epsilon:
        The accuracy parameter in ``(0, 1]``; pass
        :func:`repro.core.bounded_ufp.recommended_epsilon` of the target
        accuracy to obtain the Theorem 4.1 guarantee.
    capacity_check:
        As in :func:`repro.core.bounded_ufp.bounded_ufp`.
    max_iterations:
        Optional hard cap on iterations (the natural bound is the number of
        bids).

    Returns
    -------
    MUCAAllocation
        Winner indices in selection order; always feasible.

    Notes
    -----
    Ties in the normalized bundle weight are broken by bid index, which does
    not depend on the declared values and therefore preserves monotonicity.
    """
    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    _check_capacity_assumption(instance, float(epsilon), capacity_check)

    start = time.perf_counter()
    duals = DualWeights(instance.multiplicities, float(epsilon))

    # Lazy-greedy bundle pricing: scores are vectorized once over a CSR
    # bid-item incidence layout, then kept as heap lower bounds (item weights
    # only grow); each iteration re-prices only the bids sharing an item with
    # a recent winner, with the reference fuzzy tie-breaking by bid index.
    engine = BundlePricingEngine(instance, duals)
    winners: list[int] = []
    iterations = 0
    stopped_by_budget = False
    iteration_cap = max_iterations if max_iterations is not None else instance.num_bids

    if trace is not None:
        trace.begin_bundle_run(
            engine=engine,
            duals=duals,
            epsilon=float(epsilon),
            iteration_cap=iteration_cap,
            instance=instance,
        )
        hook = lambda idx, score: trace.record_selected_bundle(  # noqa: E731
            engine, idx, score
        )
    else:
        hook = None

    while engine.num_pending and iterations < iteration_cap:
        # Line 3: stopping rule on the dual budget sum_u c_u y_u.
        if not duals.within_budget:
            stopped_by_budget = True
            break

        # Lines 4-6: select the bid minimizing (1 / v_r) * sum_{u in U_r} y_u,
        # multiply its bundle's item weights by exp(eps B / c_u) (one unit per
        # item) and record the winner.
        selected = engine.select_and_commit(pre_commit_hook=hook)
        if selected is None:  # pragma: no cover - pending implies a best
            break
        winners.append(selected[0])
        iterations += 1
        if trace is not None:
            trace.record_committed(engine, duals)

    if engine.num_pending and not stopped_by_budget and not duals.within_budget:
        stopped_by_budget = True

    if trace is not None:
        trace.finish(engine, duals, stopped_by_budget=stopped_by_budget)

    stats = RunStats(
        iterations=iterations,
        shortest_path_calls=0,
        stopped_by_budget=stopped_by_budget,
        wall_time_s=time.perf_counter() - start,
        extra={
            "final_dual_budget": duals.budget,
            "dual_budget_limit": duals.budget_limit,
            "epsilon": float(epsilon),
            "capacity_bound": duals.capacity_bound,
            **engine.stats.as_extra(prefix="pricing_bundle_"),
            **(trace.extra_stats() if trace is not None else {}),
        },
    )
    return MUCAAllocation(
        instance=instance,
        winners=winners,
        stats=stats,
        algorithm=f"Bounded-MUCA(eps={float(epsilon):g})",
    )
