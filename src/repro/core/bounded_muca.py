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

import time
from typing import Callable

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import MUCAInstance
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import BundlePricingEngine, greedy_rounds
from repro.types import RunStats

__all__ = ["bounded_muca"]


def bounded_muca(
    instance: MUCAInstance,
    epsilon: float,
    *,
    max_iterations: int | None = None,
    trace=None,
) -> MUCAAllocation:
    """Run ``Bounded-MUCA(epsilon)`` (Algorithm 2) on an auction instance.

    Parameters
    ----------
    instance:
        The B-bounded multi-unit auction.  Any ``B`` runs and the output is
        always feasible; whether Theorem 4.1's ``B >= ln(m)/eps^2`` holds is
        :meth:`MUCAInstance.meets_capacity_assumption`.
    epsilon:
        The accuracy parameter in ``(0, 1]``; pass
        :func:`repro.core.bounded_ufp.recommended_epsilon` of the target
        accuracy to obtain the Theorem 4.1 guarantee.
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
    return _greedy_bundle_run(
        instance,
        epsilon,
        max_iterations=max_iterations,
        trace=trace,
    )


def _greedy_bundle_run(
    instance: MUCAInstance,
    epsilon: float,
    *,
    max_iterations: int | None,
    trace,
    make_duals: Callable[..., DualWeights] = DualWeights,
) -> MUCAAllocation:
    """The body of ``Bounded-MUCA`` and of the BKV-style auction baseline,
    which passes its own dual state (``make_duals`` is called with the
    multiplicities and ``epsilon``)."""
    if not 0.0 < float(epsilon) <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")

    start = time.perf_counter()
    duals = make_duals(instance.multiplicities, float(epsilon))

    # Lazy-greedy bundle pricing: scores are vectorized once over a CSR
    # bid-item incidence layout, then kept as heap lower bounds (item weights
    # only grow); each iteration re-prices only the bids sharing an item with
    # a recent winner; exact ties go to the lower bid index.
    engine = BundlePricingEngine(instance, duals)
    iteration_cap = max_iterations if max_iterations is not None else instance.num_bids

    if trace is not None:
        trace.begin_bundle_run(
            engine=engine,
            iteration_cap=iteration_cap,
            instance=instance,
        )

    # Lines 3-6 run inside greedy_rounds: stop on the dual budget
    # sum_u c_u y_u, select the bid minimizing (1 / v_r) * sum_{u in U_r} y_u
    # and multiply its bundle's item weights by exp(eps B / c_u).
    winners = [
        selection.index
        for selection in greedy_rounds(engine, cap=iteration_cap, trace=trace)
    ]
    stopped_by_budget = bool(engine.num_pending) and not duals.within_budget

    if trace is not None:
        trace.finish(engine)

    stats = RunStats(
        iterations=len(winners),
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
