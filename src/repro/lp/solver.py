"""The HiGHS solve wrapper: one :class:`~repro.lp.model.AssembledLP` in, a
normalized status, the primal point and the row duals out.

HiGHS is the only method.  The program goes straight to the HiGHS binding
scipy ships, ``scipy.optimize._highspy._core`` (its vendored copy of
highspy, HiGHS's own Python API), with the model and options
:func:`scipy.optimize.linprog` would give it; a program without variables
is answered here, row by row, without a solver call.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from scipy.optimize._highspy import _core as highs

from repro.exceptions import LPSolveError
from repro.lp.model import AssembledLP, LPSolution
from repro.types import SolverStatus

__all__ = ["solve_lp"]

#: ``linprog(method="highs")``'s option set, in its order.
_OPTIONS = (
    ("presolve", "on"),
    ("simplex_strategy", int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
    ("highs_debug_level", int(highs.HighsDebugLevel.kHighsDebugLevelNone)),
    ("output_flag", False),
    ("log_to_console", False),
)

#: HiGHS model statuses as linprog reads them; any other reads ``ERROR``.
_STATUS_MAP = {
    highs.HighsModelStatus.kOptimal: SolverStatus.OPTIMAL,
    highs.HighsModelStatus.kTimeLimit: SolverStatus.ITERATION_LIMIT,
    highs.HighsModelStatus.kIterationLimit: SolverStatus.ITERATION_LIMIT,
    highs.HighsModelStatus.kInfeasible: SolverStatus.INFEASIBLE,
    highs.HighsModelStatus.kModelError: SolverStatus.INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: SolverStatus.UNBOUNDED,
}

#: linprog's post-solve tolerance on bounds, slacks and residuals.
_TOLERANCE = np.sqrt(1e-9) * 10

_ROWWISE = int(highs.MatrixFormat.kRowwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)
_CONTINUOUS = np.int32(highs.HighsVarType.kContinuous)
#: Seeds the concatenation of the matrix's index arrays, which a program
#: without rows leaves empty.
_NO_INDICES = np.zeros(0, dtype=np.int32)


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
    HiGHS minimizes, so the costs are negated on the way in and the
    returned objective / duals are flipped back to the maximization
    convention: inequality duals are reported non-negative (shadow price of
    relaxing ``<=`` by one unit increases the maximum by that price).

    The program reaches ``scipy.optimize._highspy._core`` as one row-wise
    model, its arrays passed as they are: the ``<=`` rows (``-inf <= A_ub x
    <= b_ub``), then the ``==`` rows (``b_eq <= A_eq x <= b_eq``), every
    column continuous.  HiGHS stores it column-wise on load, as the same
    CSC matrix ``linprog(method="highs")`` passes that binding, and the
    options are the ones linprog sets: presolve on, the dual simplex
    strategy, debug level none and no output.  So HiGHS runs
    linprog's solve, and every bit of the objective, ``x`` and the duals is
    linprog's; the tests keep linprog as the oracle.  The status is the
    model status as linprog maps it, then linprog's post-solve check: an
    optimum with a NaN, or with ``x`` outside its bounds, a ``<=`` slack
    below zero or an ``==`` residual away from zero by more than
    ``10·sqrt(1e-9)``, reads ``ERROR``.

    A program without variables never reaches HiGHS: each of its rows
    reads ``0 <= b`` or ``0 == b``, so it is optimal with zero duals when
    every row holds and infeasible otherwise.
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
        b_ub = np.zeros(0) if program.b_ub is None else program.b_ub
        b_eq = np.zeros(0) if program.b_eq is None else program.b_eq
        solver = highs._Highs()
        for option, value in _OPTIONS:
            solver.setOptionValue(option, value)
        loaded = _pass_model(solver, program, b_ub, b_eq) != highs.HighsStatus.kError
        ran = loaded and solver.run() != highs.HighsStatus.kError
        # linprog reads a model HiGHS refuses to load as a model error.
        model_status = solver.getModelStatus() if loaded else highs.HighsModelStatus.kModelError
        status = _STATUS_MAP.get(model_status, SolverStatus.ERROR)
        message = f"HiGHS model status {solver.modelStatusToString(model_status)}"
        if status.ok and ran:
            objective = solver.getInfo().objective_function_value
            solution = solver.getSolution()
            x = np.array(solution.col_value)
            rows = np.array(solution.row_value)
            # Comparisons with NaN are false, so a NaN fails the check too.
            if (
                not np.isnan(objective)
                and np.all(x >= program.bounds[:, 0] - _TOLERANCE)
                and np.all(x <= program.bounds[:, 1] + _TOLERANCE)
                and np.all(b_ub - rows[:n_ub] >= -_TOLERANCE)
                and np.all(np.abs(b_eq - rows[n_ub:]) <= _TOLERANCE)
            ):
                # HiGHS reports duals for the minimization problem; for the
                # maximization problem the shadow price of a <= constraint
                # is the negated dual, which is non-negative.
                duals = -np.array(solution.row_dual)
                return LPSolution(
                    status=status,
                    objective=float(-objective),
                    x=x,
                    ineq_duals=duals[:n_ub],
                    eq_duals=duals[n_ub:],
                )
            message = f"the optimum misses a bound or a row by more than {_TOLERANCE:.2e}"
        if status.ok:
            status = SolverStatus.ERROR

    if raise_on_failure:
        raise LPSolveError(f"LP solve failed with status {status.value!r}: {message}")
    return LPSolution(
        status=status,
        objective=float("nan"),
        x=np.full(program.num_variables, np.nan),
        ineq_duals=np.full(n_ub, np.nan),
        eq_duals=np.full(n_eq, np.nan),
    )


def _pass_model(solver, program: AssembledLP, b_ub: np.ndarray, b_eq: np.ndarray):
    """Load the program into ``solver`` as HiGHS's row-wise minimization
    model through the array overload of ``passModel``, which takes the CSR
    arrays as they are instead of copying them element by element into a
    ``HighsLp``.  That overload reads the model as empty unless
    ``integrality`` has one entry per column, so every column is marked
    continuous.  Returns the load's ``HighsStatus``."""
    blocks = [block for block in (program.A_ub, program.A_eq) if block is not None]
    offsets = list(accumulate([0] + [block.nnz for block in blocks]))
    start = np.concatenate(
        [_NO_INDICES, *(block.indptr[:-1] + offset for block, offset in zip(blocks, offsets))]
    )
    num_rows = len(b_ub) + len(b_eq)
    # HiGHS reads each array to the length these counts give it, so a
    # program whose sizes disagree is refused here, as a HighsLp load
    # refuses it.
    if program.bounds.shape != (program.num_variables, 2) or len(start) != num_rows:
        return highs.HighsStatus.kError
    return solver.passModel(
        program.num_variables,
        num_rows,
        offsets[-1],
        _ROWWISE,
        _MINIMIZE,
        0.0,
        -program.c,
        program.bounds[:, 0],
        program.bounds[:, 1],
        np.concatenate((np.full(len(b_ub), -np.inf), b_eq)),
        np.concatenate((b_ub, b_eq)),
        start,
        np.concatenate([_NO_INDICES, *(block.indices for block in blocks)]),
        np.concatenate([np.zeros(0), *(block.data for block in blocks)]),
        np.full(program.num_variables, _CONTINUOUS),
    )
