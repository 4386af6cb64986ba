"""scipy/HiGHS solve wrapper with normalized statuses and duals."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import LPSolveError
from repro.lp.model import AssembledLP, LinearProgram, LPSolution
from repro.types import SolverStatus

__all__ = ["solve_lp"]

_STATUS_MAP = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.ITERATION_LIMIT,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.ERROR,
}


def solve_lp(
    program: AssembledLP | LinearProgram,
    *,
    method: str = "highs",
    raise_on_failure: bool = True,
    **options,
) -> LPSolution:
    """Solve a program in maximization form.

    Parameters
    ----------
    program:
        An :class:`~repro.lp.model.AssembledLP`, or a
        :class:`~repro.lp.model.LinearProgram` builder (assembled here).
    method:
        scipy ``linprog`` method; HiGHS (the default) is the only one the
        library is tested with.
    raise_on_failure:
        When ``True`` (default) a non-optimal status raises
        :class:`~repro.exceptions.LPSolveError`; otherwise the failed status
        is returned in the solution object.

    Notes
    -----
    scipy minimizes, so the objective is negated on the way in and the
    returned objective / duals are flipped back to the maximization
    convention: inequality duals are reported non-negative (shadow price of
    relaxing ``<=`` by one unit increases the maximum by that price).
    """
    if program.num_variables == 0:
        return LPSolution(
            status=SolverStatus.OPTIMAL,
            objective=0.0,
            x=np.zeros(0),
            ineq_duals=np.zeros(0),
            eq_duals=np.zeros(0),
        )

    mats = program.matrices()
    result = linprog(
        c=-mats["c"],
        A_ub=mats["A_ub"],
        b_ub=mats["b_ub"],
        A_eq=mats["A_eq"],
        b_eq=mats["b_eq"],
        bounds=mats["bounds"],
        method=method,
        options=options or None,
    )

    status = _STATUS_MAP.get(int(result.status), SolverStatus.ERROR)
    if not status.ok and raise_on_failure:
        raise LPSolveError(
            f"LP solve failed with status {status.value!r}: {result.message}"
        )

    n_ub = program.num_le_constraints
    n_eq = program.num_eq_constraints
    if status.ok:
        x = np.asarray(result.x, dtype=np.float64)
        objective = float(-result.fun)
        # HiGHS reports marginals for the minimization problem; for the
        # maximization problem the shadow price of a <= constraint is the
        # negated marginal, which is non-negative.
        if n_ub and result.ineqlin is not None:
            ineq_duals = -np.asarray(result.ineqlin.marginals, dtype=np.float64)
        else:
            ineq_duals = np.zeros(n_ub)
        if n_eq and result.eqlin is not None:
            eq_duals = -np.asarray(result.eqlin.marginals, dtype=np.float64)
        else:
            eq_duals = np.zeros(n_eq)
    else:
        x = np.full(program.num_variables, np.nan)
        objective = float("nan")
        ineq_duals = np.full(n_ub, np.nan)
        eq_duals = np.full(n_eq, np.nan)

    return LPSolution(
        status=status,
        objective=objective,
        x=x,
        ineq_duals=ineq_duals,
        eq_duals=eq_duals,
    )
