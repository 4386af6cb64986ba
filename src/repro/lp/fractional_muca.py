"""The fractional relaxation of the multi-unit combinatorial auction ILP.

The auction ILP is the "paths are fixed" special case of the Figure 1 ILP:
each bid ``r`` has a single 0/1 variable ``x_r``, items ``u`` constrain
``sum_{r : u in U_r} x_r <= c_u``.  Its relaxation is a plain packing LP and
is solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.auctions.instance import MUCAInstance
from repro.lp.model import AssembledLP
from repro.lp.solver import solve_lp

__all__ = ["FractionalMUCAResult", "bid_packing_program", "solve_fractional_muca"]


@dataclass(frozen=True)
class FractionalMUCAResult:
    """Solution of the fractional auction relaxation.

    Attributes
    ----------
    objective:
        The fractional optimum ``sum_r v_r x_r``.
    fractions:
        Array over bids with the fractional acceptance ``x_r in [0, 1]``.
    item_duals:
        Dual prices ``y_u`` of the multiplicity constraints.
    """

    objective: float
    fractions: np.ndarray
    item_duals: np.ndarray


def bid_packing_program(instance: MUCAInstance) -> AssembledLP:
    """Assemble the auction relaxation of ``instance`` in solver form.

    One variable ``x_r in [0, 1]`` per bid, in bid order, with objective
    ``v_r``; one ``<=`` row per item ``u``, in item order, with a 1 for
    every bid containing ``u`` and right-hand side ``c_u``.  An item no bid
    wants keeps its empty row, so the row duals are indexed by item.
    """
    bids = instance.bids
    sizes = np.fromiter((len(bid.bundle) for bid in bids), dtype=np.int64, count=len(bids))
    items = np.fromiter(
        (u for bid in bids for u in bid.bundle), dtype=np.int64, count=int(sizes.sum())
    )
    # A stable sort by item keeps each row's bids in bid order.
    owners = np.repeat(np.arange(len(bids)), sizes)[np.argsort(items, kind="stable")]
    indptr = np.zeros(instance.num_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(items, minlength=instance.num_items), out=indptr[1:])
    bounds = np.zeros((len(bids), 2))
    bounds[:, 1] = 1.0
    return AssembledLP(
        c=instance.values_array(),
        bounds=bounds,
        A_ub=sparse.csr_matrix(
            (np.ones(len(items)), owners, indptr), shape=(instance.num_items, len(bids))
        ),
        b_ub=instance.multiplicities,
    )


def solve_fractional_muca(instance: MUCAInstance) -> FractionalMUCAResult:
    """Solve the fractional relaxation of a multi-unit auction instance; a
    failed solve raises :class:`~repro.exceptions.LPSolveError`."""
    solution = solve_lp(bid_packing_program(instance))
    return FractionalMUCAResult(
        objective=float(solution.objective),
        fractions=solution.x,
        item_duals=solution.ineq_duals,
    )
