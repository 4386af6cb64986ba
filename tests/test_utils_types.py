"""Tests for :mod:`repro.types` and the small utility modules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.types import (
    E_OVER_E_MINUS_1,
    ApproximationTarget,
    Direction,
    RunStats,
    SolverStatus,
    one_minus_one_over_e,
    ufp_capacity_threshold,
)
from repro.utils import Table, ensure_rng, format_float, spawn_rngs
from repro.utils.prng import DEFAULT_SEED, random_seed_sequence
from repro.utils.validation import (
    check_finite,
    check_in_unit_interval,
    check_integer,
    check_nonnegative,
    check_positive,
    check_probability,
)


class TestTypes:
    def test_constants(self):
        assert E_OVER_E_MINUS_1 == pytest.approx(math.e / (math.e - 1))
        assert one_minus_one_over_e() == pytest.approx(1 - 1 / math.e)
        assert E_OVER_E_MINUS_1 == pytest.approx(1.582, abs=1e-3)

    def test_capacity_threshold(self):
        assert ufp_capacity_threshold(100, 0.5) == pytest.approx(math.log(100) / 0.25)
        with pytest.raises(ValueError):
            ufp_capacity_threshold(0, 0.5)
        with pytest.raises(ValueError):
            ufp_capacity_threshold(10, 0.0)
        with pytest.raises(ValueError):
            ufp_capacity_threshold(10, 2.0)

    def test_direction_and_status(self):
        assert Direction.DIRECTED.is_directed
        assert not Direction.UNDIRECTED.is_directed
        assert SolverStatus.OPTIMAL.ok
        assert not SolverStatus.INFEASIBLE.ok
        assert ApproximationTarget.FRACTIONAL_LP.value == "fractional_lp"

    def test_run_stats_merged(self):
        stats = RunStats(iterations=3, extra={"a": 1.0})
        merged = stats.merged(b=2.0)
        assert merged.extra == {"a": 1.0, "b": 2.0}
        assert stats.extra == {"a": 1.0}
        assert merged.iterations == 3


class TestPrng:
    def test_ensure_rng_accepts_all_forms(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng
        a = ensure_rng(5).integers(0, 100, size=3)
        b = ensure_rng(5).integers(0, 100, size=3)
        np.testing.assert_array_equal(a, b)
        default_a = ensure_rng(None).integers(0, 1000)
        default_b = ensure_rng(DEFAULT_SEED).integers(0, 1000)
        assert default_a == default_b

    def test_ensure_rng_rejects_bad_seed(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

    def test_spawn_rngs_independent_and_deterministic(self):
        first = [g.integers(0, 10**6) for g in spawn_rngs(7, 3)]
        second = [g.integers(0, 10**6) for g in spawn_rngs(7, 3)]
        assert first == second
        assert len(set(first)) == 3
        with pytest.raises(ValueError):
            spawn_rngs(7, -1)

    def test_random_seed_sequence_stability(self):
        mapping = random_seed_sequence(1, ["a", "b", "c"])
        again = random_seed_sequence(1, ["a", "b", "c"])
        assert mapping == again
        assert set(mapping) == {"a", "b", "c"}


class TestTables:
    def test_format_float(self):
        assert format_float(None) == "-"
        assert format_float(True) == "yes"
        assert format_float(1.23456, precision=2) == "1.23"
        assert format_float(float("nan")) == "nan"
        assert format_float(1e9).endswith("e+09")
        assert format_float("text") == "text"

    def test_table_rendering_alignment(self):
        table = Table(columns=["name", "value"], title="demo")
        table.add_row(["a", 1.5])
        table.add_row({"name": "bc", "value": 2.25})
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # Column widths are consistent.
        assert len(lines[2]) == len(lines[3])

    def test_table_rejects_wrong_row_length(self):
        table = Table(columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_table_extend(self):
        table = Table(columns=["a"])
        table.extend([[1], [2], [3]])
        assert len(table.rows) == 3


class TestValidation:
    def test_check_finite(self):
        assert check_finite(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            check_finite(float("inf"), "x")

    def test_check_positive_and_nonnegative(self):
        assert check_positive(0.1, "x") == 0.1
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        assert check_nonnegative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_nonnegative(-1.0, "x")

    def test_check_probability_and_unit_interval(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.1, "p")
        assert check_in_unit_interval(1.0, "e") == 1.0
        with pytest.raises(ValueError):
            check_in_unit_interval(0.0, "e")
        assert check_in_unit_interval(0.0, "e", open_left=False) == 0.0

    def test_check_integer(self):
        assert check_integer(5, "n") == 5
        assert check_integer(5.0, "n") == 5
        with pytest.raises(ValueError):
            check_integer(5.5, "n")
        with pytest.raises(ValueError):
            check_integer(2, "n", minimum=3)


class TestPackageSurface:
    def test_version_and_reexports(self):
        import repro

        assert repro.__version__
        assert hasattr(repro, "bounded_ufp")
        assert hasattr(repro, "UFPInstance")
        assert hasattr(repro, "MUCAInstance")
        assert repro.E_OVER_E_MINUS_1 == pytest.approx(E_OVER_E_MINUS_1)
