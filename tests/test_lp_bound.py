"""The scenario cells' LP bound (``repro.scenarios.runner._lp_bound``).

A Figure 1 bound is settled without HiGHS when routing every request along
its source's tree under the initial weights ``y = 1/c`` fits the
capacities: the optimum is then the total declared value.  HiGHS stays the
oracle.  Wherever the routing fits, the bound must be the very float HiGHS
returns, on every offline LP cell of the built-in suites, on the demo suite
at two more seeds and on the Bounded-UFP differential corpus; each case
runs ``bounded_ufp`` first, as a cell does, so the routing reads the trees
that run memoized.  The hand-made cases below check that the routing
declines where it must: an unreachable target, an overloaded edge, a
disabled edge, and every ``repeated`` (Figure 5) cell.
"""

from __future__ import annotations

import pytest
from test_differential_fuzz import UFP_SEEDS, UFP_SPARES, _corpus_case

from repro import scenarios
from repro.core import bounded_ufp
from repro.core.pricing_engine import initial_tree
from repro.flows import Request, UFPInstance
from repro.graphs import CapacitatedGraph
from repro.lp import solve_fractional_ufp
from repro.scenarios.regimes import build_cell_instance
from repro.scenarios.runner import (
    _initial_routing_value,
    _lp_bound,
    _resolve_epsilon,
)

_FIGURE_1 = {"kind": "offline", "bound": "lp"}

#: The demo suite's own seed is 7; these are the two after it.
_DEMO_SEEDS = (8, 9)


def _lp_cells() -> list:
    """Every offline ``bound: "lp"`` cell of the built-in suites, and of the
    demo suite at :data:`_DEMO_SEEDS`."""
    suites = [(name, scenarios.get_suite(name)) for name in scenarios.available_suites()]
    suites += [
        (f"demo@{seed}", {**scenarios.get_suite("demo"), "seed": seed})
        for seed in _DEMO_SEEDS
    ]
    return [
        pytest.param(cell, id=f"{label}/{cell.key}")
        for label, suite in suites
        for cell in scenarios.enumerate_cells(suite)
        if cell.mode["kind"] == "offline" and cell.mode.get("bound", "lp") == "lp"
    ]


_LP_CELLS = _lp_cells()
_CORPUS = [pytest.param(seed, id=str(seed)) for seed in (*UFP_SEEDS, *UFP_SPARES)]


def _cell_case(cell) -> tuple[UFPInstance, dict]:
    """A cell's instance after its ``bounded_ufp`` run, and its mode."""
    instance, _, _ = build_cell_instance(cell)
    bounded_ufp(instance, _resolve_epsilon(cell.mode, instance))
    return instance, cell.mode


def _corpus_bound_case(seed: int) -> tuple[UFPInstance, dict]:
    """A corpus instance after its ``bounded_ufp`` run, and the Figure 1
    mode."""
    instance, epsilon = _corpus_case(seed, False)
    bounded_ufp(instance, epsilon)
    return instance, _FIGURE_1


def _highs(instance: UFPInstance, **kwargs) -> float:
    return float(solve_fractional_ufp(instance, **kwargs).objective)


def _assert_highs_bits(instance: UFPInstance, mode: dict) -> None:
    assert _lp_bound(instance, mode).hex() == _highs(instance).hex()


@pytest.mark.parametrize("cell", _LP_CELLS)
def test_suite_cell_bound_is_highs_bits(cell):
    _assert_highs_bits(*_cell_case(cell))


@pytest.mark.parametrize("seed", _CORPUS)
def test_corpus_bound_is_highs_bits(seed):
    _assert_highs_bits(*_corpus_bound_case(seed))


def test_both_branches_run():
    """The routing settles some of the cases above and declines others, so
    both the shortcut and the HiGHS solve are compared."""
    cases = [_cell_case(param.values[0]) for param in _LP_CELLS]
    cases += [_corpus_bound_case(param.values[0]) for param in _CORPUS]
    settled = sum(_initial_routing_value(instance) is not None for instance, _ in cases)
    assert 0 < settled < len(cases)


def _path_instance(requests, *, capacity=1.0, disabled_edges=()) -> UFPInstance:
    """The directed path 0 -> 1 -> 2 plus a detour 0 -> 3 -> 2 of capacity
    10 (edges 0-1, 1-2, 0-3, 3-2 in that order), after a ``bounded_ufp``
    run, as in a cell."""
    graph = CapacitatedGraph(
        4,
        [(0, 1, capacity), (1, 2, capacity), (0, 3, 10.0), (3, 2, 10.0)],
        disabled_edges=disabled_edges,
    )
    instance = UFPInstance(graph, [Request(*request) for request in requests])
    bounded_ufp(instance, 0.5)
    return instance


def _assert_declines(instance: UFPInstance) -> None:
    """The routing declines, the bound is HiGHS's, and it is below Σv."""
    assert _initial_routing_value(instance) is None
    _assert_highs_bits(instance, _FIGURE_1)
    assert _lp_bound(instance, _FIGURE_1) < sum(instance.values_array().tolist())


class TestGuardDeclines:
    def test_unreachable_target(self):
        # Nothing leaves vertex 2, so the second request cannot be routed.
        _assert_declines(_path_instance([(0, 2, 1.0, 2.0), (2, 0, 1.0, 3.0)]))

    def test_overloaded_edge(self):
        graph = CapacitatedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 2.0), Request(0, 2, 1.0, 3.0)])
        bounded_ufp(instance, 0.5)
        # Each request alone fills both edges, so HiGHS routes only the
        # more valuable one.
        assert _highs(instance) == 3.0
        _assert_declines(instance)

    def test_disabled_edge_cuts_the_only_path(self):
        graph = CapacitatedGraph(3, [(0, 1, 4.0), (1, 2, 4.0)], disabled_edges=[1])
        instance = UFPInstance(graph, [Request(0, 1, 1.0, 2.0), Request(0, 2, 1.0, 3.0)])
        bounded_ufp(instance, 0.5)
        _assert_declines(instance)

    def test_disabled_edge_is_never_routed(self):
        # Under y = 1/c the path 0 -> 1 -> 2 (capacity 20) is cheaper than
        # the detour 0 -> 3 -> 2 (capacity 10).  With edge 1 disabled the
        # tree takes the detour, which fits too.
        for disabled_edges, path in (((), (0, 1)), ((1,), (2, 3))):
            instance = _path_instance(
                [(0, 2, 1.0, 2.0)], capacity=20.0, disabled_edges=disabled_edges
            )
            assert initial_tree(instance.graph, 0).path_to(2)[1] == path
            assert _initial_routing_value(instance) == 2.0
            _assert_highs_bits(instance, _FIGURE_1)

    def test_repeated_cell_always_solves(self):
        # The initial routing fits, and the Figure 1 bound is Σv = 2.0, but a
        # repeated cell's Figure 5 program routes the request once per unit
        # of the 30 that reach vertex 2.
        instance = _path_instance([(0, 2, 1.0, 2.0)], capacity=20.0)
        assert _initial_routing_value(instance) == 2.0
        bound = _lp_bound(instance, {"kind": "repeated", "bound": "lp"})
        assert bound.hex() == _highs(instance, repetitions=True).hex()
        assert bound > 2.0
