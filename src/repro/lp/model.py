"""Linear programs in solver form, and a small sparse builder for them.

:class:`AssembledLP` is what the solver takes: the objective, the variable
bounds and CSR constraint blocks, already assembled.  Structured models
with many variables (the edge-flow relaxation) build it directly from
arrays.  :class:`LinearProgram` is the builder for small models: assembly
code reads like the mathematical formulation (named variables, one
constraint per call) and :meth:`LinearProgram.assemble` turns the collected
terms into CSR — no dense intermediate is ever materialized.

The canonical form used throughout is::

    maximize     c @ x
    subject to   A_ub @ x <= b_ub
                 A_eq @ x == b_eq
                 lb <= x <= ub
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import LPSolveError
from repro.types import SolverStatus

__all__ = ["AssembledLP", "LinearProgram", "LPSolution"]


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
        The ``<=`` block as a CSR matrix and its right-hand side; ``None``
        when there are no such constraints, as :func:`scipy.optimize.linprog`
        expects.
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

    def matrices(self) -> dict:
        """The program as :func:`scipy.optimize.linprog` keyword arguments
        (``c`` in the maximization sense)."""
        return {
            "c": self.c,
            "A_ub": self.A_ub,
            "b_ub": self.b_ub,
            "A_eq": self.A_eq,
            "b_eq": self.b_eq,
            "bounds": self.bounds,
        }


@dataclass(frozen=True)
class LPSolution:
    """The result of solving a :class:`LinearProgram`.

    Attributes
    ----------
    status:
        Normalized solver status.
    objective:
        Objective value of the returned point (in the *maximization* sense
        used by the builder), ``nan`` when no point is available.
    x:
        Primal values indexed like the builder's variables.
    ineq_duals:
        Dual multipliers of the ``<=`` constraints, one per constraint in the
        order added, with the sign convention that they are non-negative for
        a maximization problem (shadow price of relaxing the constraint).
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


@dataclass
class LinearProgram:
    """Incrementally build a sparse LP in maximization form.

    Examples
    --------
    >>> lp = LinearProgram()
    >>> x = lp.add_variable(objective=1.0, upper=2.0)
    >>> y = lp.add_variable(objective=1.0, upper=2.0)
    >>> _ = lp.add_le_constraint({x: 1.0, y: 1.0}, 3.0)
    >>> sol = lp.solve()
    >>> round(sol.objective, 6)
    3.0
    """

    _objective: list[float] = field(default_factory=list)
    _lower: list[float] = field(default_factory=list)
    _upper: list[float] = field(default_factory=list)
    _names: list[str] = field(default_factory=list)
    # COO triplets for <= and == constraints.
    _ub_rows: list[int] = field(default_factory=list)
    _ub_cols: list[int] = field(default_factory=list)
    _ub_vals: list[float] = field(default_factory=list)
    _ub_rhs: list[float] = field(default_factory=list)
    _eq_rows: list[int] = field(default_factory=list)
    _eq_cols: list[int] = field(default_factory=list)
    _eq_vals: list[float] = field(default_factory=list)
    _eq_rhs: list[float] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return len(self._objective)

    @property
    def num_le_constraints(self) -> int:
        return len(self._ub_rhs)

    @property
    def num_eq_constraints(self) -> int:
        return len(self._eq_rhs)

    def add_variable(
        self,
        *,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
        name: str = "",
    ) -> int:
        """Add a variable and return its index."""
        if lower > upper:
            raise LPSolveError(f"variable bounds [{lower}, {upper}] are empty")
        self._objective.append(float(objective))
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._names.append(name or f"x{len(self._objective) - 1}")
        return len(self._objective) - 1

    def add_variables(
        self,
        count: int,
        *,
        objective: float | Sequence[float] = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
        prefix: str = "x",
    ) -> list[int]:
        """Add ``count`` variables sharing bounds; returns their indices."""
        if np.isscalar(objective):
            objective = [float(objective)] * count
        objective = list(objective)
        if len(objective) != count:
            raise LPSolveError("objective vector length mismatch")
        return [
            self.add_variable(objective=objective[i], lower=lower, upper=upper,
                              name=f"{prefix}{i}")
            for i in range(count)
        ]

    def _check_terms(self, terms: Mapping[int, float]) -> None:
        for var in terms:
            if not 0 <= int(var) < self.num_variables:
                raise LPSolveError(f"unknown variable index {var}")

    def add_le_constraint(self, terms: Mapping[int, float], rhs: float) -> int:
        """Add ``sum_j terms[j] * x_j <= rhs``; returns the constraint row index."""
        self._check_terms(terms)
        row = len(self._ub_rhs)
        for var, coeff in terms.items():
            if coeff != 0.0:
                self._ub_rows.append(row)
                self._ub_cols.append(int(var))
                self._ub_vals.append(float(coeff))
        self._ub_rhs.append(float(rhs))
        return row

    def add_eq_constraint(self, terms: Mapping[int, float], rhs: float) -> int:
        """Add ``sum_j terms[j] * x_j == rhs``; returns the constraint row index."""
        self._check_terms(terms)
        row = len(self._eq_rhs)
        for var, coeff in terms.items():
            if coeff != 0.0:
                self._eq_rows.append(row)
                self._eq_cols.append(int(var))
                self._eq_vals.append(float(coeff))
        self._eq_rhs.append(float(rhs))
        return row

    # ------------------------------------------------------------------ #
    # Assembly / solving
    # ------------------------------------------------------------------ #
    def assemble(self) -> AssembledLP:
        """The program in solver form, with canonical CSR constraint blocks
        (empty blocks are ``None``)."""
        n = self.num_variables
        c = np.asarray(self._objective, dtype=np.float64)
        A_ub = None
        b_ub = None
        if self._ub_rhs:
            A_ub = sparse.coo_matrix(
                (self._ub_vals, (self._ub_rows, self._ub_cols)),
                shape=(len(self._ub_rhs), n),
            ).tocsr()
            b_ub = np.asarray(self._ub_rhs, dtype=np.float64)
        A_eq = None
        b_eq = None
        if self._eq_rhs:
            A_eq = sparse.coo_matrix(
                (self._eq_vals, (self._eq_rows, self._eq_cols)),
                shape=(len(self._eq_rhs), n),
            ).tocsr()
            b_eq = np.asarray(self._eq_rhs, dtype=np.float64)
        bounds = np.column_stack((self._lower, self._upper)).astype(np.float64, copy=False)
        return AssembledLP(c=c, bounds=bounds, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)

    def matrices(self) -> dict:
        """The assembled program as :func:`scipy.optimize.linprog` keyword
        arguments; see :meth:`AssembledLP.matrices`."""
        return self.assemble().matrices()

    def solve(self, **solver_options) -> LPSolution:
        """Solve the LP with HiGHS; see :func:`repro.lp.solver.solve_lp`."""
        from repro.lp.solver import solve_lp

        return solve_lp(self, **solver_options)
