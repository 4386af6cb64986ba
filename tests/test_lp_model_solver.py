"""Tests for the HiGHS solve wrapper on assembled programs."""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import LPSolveError
from repro.lp import AssembledLP, LPSolution, solve_lp
from repro.lp import solver as solver_module
from repro.lp.fractional_muca import bid_packing_program
from repro.lp.fractional_ufp import edge_flow_program
from repro.types import SolverStatus

from test_lp_fractional import (  # the LP cases of the model tests
    _SUITE_CELLS,
    _auction_with_unwanted_item,
    _multigraph_instance,
    _packing_auction,
    _single_item_auction,
    _suite_cell,
)


def _program(objective, upper=np.inf, *, le=(), eq=()):
    """An :class:`AssembledLP` over variables ``0 <= x_j <= upper`` with the
    rows ``le`` / ``eq``, each a ``({variable: coefficient}, rhs)`` pair."""
    n = len(objective)
    bounds = np.zeros((n, 2))
    bounds[:, 1] = upper

    def block(rows):
        if not rows:
            return None, None
        matrix = sparse.lil_matrix((len(rows), n))
        for r, (terms, _) in enumerate(rows):
            for j, coefficient in terms.items():
                matrix[r, j] = coefficient
        return matrix.tocsr(), np.array([rhs for _, rhs in rows], dtype=np.float64)

    A_ub, b_ub = block(list(le))
    A_eq, b_eq = block(list(eq))
    return AssembledLP(
        c=np.asarray(objective, dtype=np.float64),
        bounds=bounds,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
    )


class TestSolver:
    def test_simple_maximization(self):
        sol = solve_lp(_program([1.0, 1.0], 2.0, le=[({0: 1.0, 1: 1.0}, 3.0)]))
        assert sol.ok
        assert sol.objective == pytest.approx(3.0)
        assert sol.x[0] + sol.x[1] == pytest.approx(3.0)

    def test_empty_program(self):
        sol = solve_lp(_program([]))
        assert sol.ok and sol.objective == 0.0

    def test_equality_constraints(self):
        sol = solve_lp(_program([2.0, 1.0], 10.0, eq=[({0: 1.0, 1: 1.0}, 5.0)]))
        assert sol.objective == pytest.approx(10.0)  # x = 5, y = 0
        assert sol.x[0] == pytest.approx(5.0)

    def test_infeasible_raises_by_default(self):
        program = _program([1.0], le=[({0: 1.0}, -5.0)])  # x >= 0 and x <= -5
        with pytest.raises(LPSolveError):
            solve_lp(program)
        sol = solve_lp(program, raise_on_failure=False)
        assert sol.status is SolverStatus.INFEASIBLE
        assert not sol.ok

    def test_unbounded_detected(self):
        sol = solve_lp(_program([1.0]), raise_on_failure=False)  # no upper bound, no rows
        assert sol.status in (SolverStatus.UNBOUNDED, SolverStatus.ERROR)

    def test_duals_of_knapsack_constraint(self):
        # max 3a + 2b  s.t. a + b <= 1, 0 <= a, b <= 1: dual of the packing
        # constraint is 2 (the second-best density), a classic shadow price.
        sol = solve_lp(_program([3.0, 2.0], 1.0, le=[({0: 1.0, 1: 1.0}, 1.0)]))
        assert sol.objective == pytest.approx(3.0)
        assert sol.ineq_duals[0] >= 2.0 - 1e-6
        assert sol.ineq_duals[0] <= 3.0 + 1e-6

    def test_value_of_subset(self):
        sol = solve_lp(_program([1.0, 2.0, 3.0], 1.0))
        np.testing.assert_allclose(sol.value_of([1, 2]), [1.0, 1.0])

    def test_optimum_failing_the_post_solve_check_reads_error(self, monkeypatch):
        # At a tolerance of -1 the check wants every x_j <= 1, but the optimum's sum is 3.
        monkeypatch.setattr(solver_module, "_TOLERANCE", -1.0)
        program = _program([1.0, 1.0], 2.0, le=[({0: 1.0, 1: 1.0}, 3.0)])
        with pytest.raises(LPSolveError, match="misses a bound or a row"):
            solve_lp(program)
        sol = solve_lp(program, raise_on_failure=False)
        assert sol.status is SolverStatus.ERROR
        assert np.isnan(sol.objective) and np.isnan(sol.x).all()
        assert sol.ineq_duals.shape == (1,) and np.isnan(sol.ineq_duals).all()

    @pytest.mark.parametrize("mismatch", ["bounds", "rows"])
    def test_sizes_that_disagree_read_as_a_model_error(self, mismatch):
        """HiGHS reads each array to the length the counts give it, so a
        program whose bounds or right-hand side disagree with its sizes must
        not reach it; it reads as a model HiGHS refuses, i.e. infeasible."""
        program = _program([1.0, 1.0], 2.0, le=[({0: 1.0, 1: 1.0}, 3.0)])
        if mismatch == "bounds":
            program = dataclasses.replace(program, bounds=program.bounds[:1])
        else:
            program = dataclasses.replace(program, b_ub=np.array([3.0, 3.0]))
        with pytest.raises(LPSolveError, match="Model error"):
            solve_lp(program)
        assert solve_lp(program, raise_on_failure=False).status is SolverStatus.INFEASIBLE


class TestProgramWithoutVariables:
    """Every row of a program without variables is the constant 0: it is
    optimal with zero duals when each row holds, infeasible otherwise, and
    its dual arrays have one entry per row either way."""

    @staticmethod
    def _rows_only(b_ub, b_eq):
        return AssembledLP(
            c=np.zeros(0),
            bounds=np.zeros((0, 2)),
            A_ub=sparse.csr_matrix((len(b_ub), 0)),
            b_ub=np.asarray(b_ub, dtype=np.float64),
            A_eq=sparse.csr_matrix((len(b_eq), 0)),
            b_eq=np.asarray(b_eq, dtype=np.float64),
        )

    def test_rows_that_hold_are_optimal_with_zero_duals(self):
        sol = solve_lp(self._rows_only([0.0, 3.0], [0.0]))
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective == 0.0
        assert sol.x.shape == (0,)
        assert sol.ineq_duals.tobytes() == np.zeros(2).tobytes()
        assert sol.eq_duals.tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize(
        "b_ub, b_eq", [([-1.0], [2.0]), ([-1.0], [0.0]), ([1.0], [2.0])]
    )
    def test_a_row_that_cannot_hold_is_infeasible(self, b_ub, b_eq):
        program = self._rows_only(b_ub, b_eq)
        with pytest.raises(LPSolveError):
            solve_lp(program)
        sol = solve_lp(program, raise_on_failure=False)
        assert sol.status is SolverStatus.INFEASIBLE
        assert np.isnan(sol.objective)
        assert sol.ineq_duals.shape == (1,) and np.isnan(sol.ineq_duals).all()
        assert sol.eq_duals.shape == (1,) and np.isnan(sol.eq_duals).all()

    def test_agrees_with_the_same_rows_over_one_variable(self):
        # x = 0 is forced by its bounds, so the rows read the same as above.
        with_variable = AssembledLP(
            c=np.ones(1),
            bounds=np.zeros((1, 2)),
            A_ub=sparse.csr_matrix((1, 1)),
            b_ub=np.array([-1.0]),
            A_eq=sparse.csr_matrix((1, 1)),
            b_eq=np.array([2.0]),
        )
        assert solve_lp(with_variable, raise_on_failure=False).status is SolverStatus.INFEASIBLE
        assert (
            solve_lp(self._rows_only([-1.0], [2.0]), raise_on_failure=False).status
            is SolverStatus.INFEASIBLE
        )


_LINPROG_STATUS = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.ITERATION_LIMIT,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.ERROR,
}


def _linprog_solution(program: AssembledLP) -> LPSolution:
    """The program solved through ``scipy.optimize.linprog(method="highs")``:
    the costs negated on the way in, the objective and the row marginals
    negated on the way out, and NaN in place of a failed solve's point, as
    ``solve_lp(program, raise_on_failure=False)`` reports it."""
    n_ub, n_eq = program.num_le_constraints, program.num_eq_constraints
    result = linprog(
        c=-program.c,
        A_ub=program.A_ub,
        b_ub=program.b_ub,
        A_eq=program.A_eq,
        b_eq=program.b_eq,
        bounds=program.bounds,
        method="highs",
    )
    status = _LINPROG_STATUS[int(result.status)]
    if not status.ok:
        return LPSolution(
            status=status,
            objective=float("nan"),
            x=np.full(program.num_variables, np.nan),
            ineq_duals=np.full(n_ub, np.nan),
            eq_duals=np.full(n_eq, np.nan),
        )
    return LPSolution(
        status=status,
        objective=float(-result.fun),
        x=np.asarray(result.x, dtype=np.float64),
        ineq_duals=-np.asarray(result.ineqlin.marginals, dtype=np.float64) if n_ub else np.zeros(0),
        eq_duals=-np.asarray(result.eqlin.marginals, dtype=np.float64) if n_eq else np.zeros(0),
    )


#: The auctions of ``test_lp_fractional``'s assembly tests.
_AUCTIONS = {
    **{f"random-{seed}": partial(_packing_auction, seed) for seed in range(8)},
    **{f"unwanted-item-{seed}": partial(_auction_with_unwanted_item, seed) for seed in range(3)},
    "single-item": _single_item_auction,
}


class TestLinprogOracle:
    """:func:`solve_lp` hands HiGHS the model and options ``linprog`` does,
    so it returns linprog's status and, bit for bit, its objective, point
    and duals.  A scipy release that moves the binding or its HiGHS build
    away from linprog's shows here first."""

    @staticmethod
    def _assert_as_linprog(program: AssembledLP) -> None:
        got = solve_lp(program, raise_on_failure=False)
        want = _linprog_solution(program)
        assert got.status is want.status
        assert got.objective.hex() == want.objective.hex()
        for name in ("x", "ineq_duals", "eq_duals"):
            got_array, want_array = getattr(got, name), getattr(want, name)
            assert got_array.shape == want_array.shape, name
            assert got_array.tobytes() == want_array.tobytes(), name

    @pytest.mark.parametrize("repetitions", [False, True])
    @pytest.mark.parametrize("suite, index", _SUITE_CELLS)
    def test_builtin_suite_cells(self, suite, index, repetitions):
        instance = _suite_cell(suite, index)[0]
        self._assert_as_linprog(edge_flow_program(instance, repetitions=repetitions))

    @pytest.mark.parametrize("repetitions", [False, True])
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_multigraphs(self, seed, directed, repetitions):
        instance = _multigraph_instance(seed, directed)
        self._assert_as_linprog(edge_flow_program(instance, repetitions=repetitions))

    @pytest.mark.parametrize("name", list(_AUCTIONS))
    def test_bid_packing_programs(self, name):
        self._assert_as_linprog(bid_packing_program(_AUCTIONS[name]()))

    def test_infeasible_program(self):
        program = _program([1.0], le=[({0: 1.0}, -5.0)])
        assert solve_lp(program, raise_on_failure=False).status is SolverStatus.INFEASIBLE
        self._assert_as_linprog(program)

    def test_unbounded_program(self):
        self._assert_as_linprog(_program([1.0]))

    def test_equality_rows_only(self):
        self._assert_as_linprog(
            _program([2.0, 1.0, 3.0], 4.0, eq=[({0: 1.0, 1: 1.0}, 5.0), ({1: 1.0, 2: 2.0}, 3.0)])
        )

    def test_inequality_rows_only(self):
        self._assert_as_linprog(
            _program([3.0, 2.0, 1.0], 1.0, le=[({0: 1.0, 1: 1.0}, 1.0), ({1: 2.0, 2: 1.0}, 1.5)])
        )


@settings(max_examples=25, deadline=None)
@given(
    capacities=st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=4),
    values=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=6),
)
def test_property_fractional_knapsack_matches_greedy(capacities, values):
    """For a single packing constraint the LP optimum equals the greedy
    fractional-knapsack value (items have unit weight)."""
    capacity = float(capacities[0])
    sol = solve_lp(_program(values, 1.0, le=[({i: 1.0 for i in range(len(values))}, capacity)]))

    remaining = capacity
    expected = 0.0
    for v in sorted(values, reverse=True):
        take = min(1.0, remaining)
        if take <= 0:
            break
        expected += v * take
        remaining -= take
    assert sol.objective == pytest.approx(expected, rel=1e-6, abs=1e-6)
