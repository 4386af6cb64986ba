"""Linear programs in solver form.

:class:`AssembledLP` is what the solver takes: the objective, the variable
bounds and CSR constraint blocks, already assembled.  Every model of the
package (the edge-flow relaxation, the auction relaxation and the path
master) builds it directly from arrays; no dense intermediate is ever
materialized.

The canonical form used throughout is::

    maximize     c @ x
    subject to   A_ub @ x <= b_ub
                 A_eq @ x == b_eq
                 lb <= x <= ub
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.types import SolverStatus

__all__ = ["AssembledLP", "LPSolution"]


@dataclass(frozen=True)
class AssembledLP:
    """A linear program in solver form (maximization).

    Attributes
    ----------
    c:
        Objective coefficients, one per variable.
    bounds:
        Array of shape ``(num_variables, 2)``: lower then upper bound of each
        variable (``inf`` where unbounded).
    A_ub, b_ub:
        The ``<=`` block as a CSR matrix and its right-hand side; both
        ``None`` when there are no such constraints.
    A_eq, b_eq:
        The ``==`` block, likewise.
    """

    c: np.ndarray
    bounds: np.ndarray
    A_ub: sparse.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    A_eq: sparse.csr_matrix | None = None
    b_eq: np.ndarray | None = None

    @property
    def num_variables(self) -> int:
        return len(self.c)

    @property
    def num_le_constraints(self) -> int:
        return 0 if self.b_ub is None else len(self.b_ub)

    @property
    def num_eq_constraints(self) -> int:
        return 0 if self.b_eq is None else len(self.b_eq)


@dataclass(frozen=True)
class LPSolution:
    """The result of solving an :class:`AssembledLP`.

    Attributes
    ----------
    status:
        Normalized solver status.
    objective:
        Objective value of the returned point (in the *maximization* sense
        of the program), ``nan`` when no point is available.
    x:
        Primal values indexed like the program's variables.
    ineq_duals:
        Dual multipliers of the ``<=`` constraints, one per row, with the
        sign convention that they are non-negative for a maximization
        problem (shadow price of relaxing the constraint).
    eq_duals:
        Dual multipliers of the ``==`` constraints.
    """

    status: SolverStatus
    objective: float
    x: np.ndarray
    ineq_duals: np.ndarray
    eq_duals: np.ndarray

    @property
    def ok(self) -> bool:
        return self.status.ok

    def value_of(self, indices: Sequence[int]) -> np.ndarray:
        """Primal values of a subset of variables."""
        return self.x[np.asarray(indices, dtype=np.int64)]
