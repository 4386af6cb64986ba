"""The HiGHS solve wrapper: one :class:`~repro.lp.model.AssembledLP` in, a
normalized status, the primal point and the row duals out.

HiGHS (through :func:`scipy.optimize.linprog`) is the only method; a
program without variables is answered here, row by row, without a solver
call.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import LPSolveError
from repro.lp.model import AssembledLP, LPSolution
from repro.types import SolverStatus

__all__ = ["solve_lp"]

_STATUS_MAP = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.ITERATION_LIMIT,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.ERROR,
}


def solve_lp(program: AssembledLP, *, raise_on_failure: bool = True) -> LPSolution:
    """Solve a program in maximization form with HiGHS.

    Parameters
    ----------
    program:
        The :class:`~repro.lp.model.AssembledLP` to solve.
    raise_on_failure:
        When ``True`` (default) a non-optimal status raises
        :class:`~repro.exceptions.LPSolveError`; otherwise the failed status
        is returned in the solution object.

    Notes
    -----
    scipy minimizes, so the objective is negated on the way in and the
    returned objective / duals are flipped back to the maximization
    convention: inequality duals are reported non-negative (shadow price of
    relaxing ``<=`` by one unit increases the maximum by that price).  A
    program without variables never reaches HiGHS: each of its rows reads
    ``0 <= b`` or ``0 == b``, so it is optimal with zero duals when every
    row holds and infeasible otherwise.
    """
    n_ub = program.num_le_constraints
    n_eq = program.num_eq_constraints
    if program.num_variables == 0:
        holds = (program.b_ub is None or bool(np.all(program.b_ub >= 0))) and (
            program.b_eq is None or not np.any(program.b_eq)
        )
        if holds:
            return LPSolution(
                status=SolverStatus.OPTIMAL,
                objective=0.0,
                x=np.zeros(0),
                ineq_duals=np.zeros(n_ub),
                eq_duals=np.zeros(n_eq),
            )
        status = SolverStatus.INFEASIBLE
        message = "a constant row of the program without variables cannot hold"
    else:
        result = linprog(
            c=-program.c,
            A_ub=program.A_ub,
            b_ub=program.b_ub,
            A_eq=program.A_eq,
            b_eq=program.b_eq,
            bounds=program.bounds,
            method="highs",
        )
        status = _STATUS_MAP.get(int(result.status), SolverStatus.ERROR)
        message = result.message
        if status.ok:
            # HiGHS reports marginals for the minimization problem; for the
            # maximization problem the shadow price of a <= constraint is
            # the negated marginal, which is non-negative.
            if n_ub and result.ineqlin is not None:
                ineq_duals = -np.asarray(result.ineqlin.marginals, dtype=np.float64)
            else:
                ineq_duals = np.zeros(n_ub)
            if n_eq and result.eqlin is not None:
                eq_duals = -np.asarray(result.eqlin.marginals, dtype=np.float64)
            else:
                eq_duals = np.zeros(n_eq)
            return LPSolution(
                status=status,
                objective=float(-result.fun),
                x=np.asarray(result.x, dtype=np.float64),
                ineq_duals=ineq_duals,
                eq_duals=eq_duals,
            )

    if raise_on_failure:
        raise LPSolveError(f"LP solve failed with status {status.value!r}: {message}")
    return LPSolution(
        status=status,
        objective=float("nan"),
        x=np.full(program.num_variables, np.nan),
        ineq_duals=np.full(n_ub, np.nan),
        eq_duals=np.full(n_eq, np.nan),
    )
