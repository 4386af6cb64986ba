"""Unit tests of the alternating-pairs summary (``benchmarks/ab_pairs.py``),
on canned ``perfbench/run.py`` result lines: no subprocess is started."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "op_p50_ref", "better": "lower"},
    {"name": "ops_per_ref", "better": "higher"},
]


def _stdout(op_p50, ops, *, correct=True, failed=0):
    """A run's output: a table line, then the JSON result line."""
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "op_p50_ref": {"value": op_p50, "unit": "ref"},
            "ops_per_ref": {"value": ops, "unit": "ref"},
        },
    }
    return f"auction_payments op_p50_ref = {op_p50} ref\n{json.dumps(result)}\n"


def test_summary_of_canned_pairs():
    parent = [ab_pairs.run_result(_stdout(v, o), "parent")
              for v, o in ((10.0, 1.0), (12.0, 3.0), (11.0, 2.0), (13.0, 4.0))]
    change = [ab_pairs.run_result(_stdout(v, o), "change")
              for v, o in ((9.0, 2.0), (12.5, 2.0), (10.0, 3.0), (14.0, 5.0))]
    lower, higher = ab_pairs.summarize(parent, change, END_TO_END)
    # statistics.quantiles(n=4) of 10, 11, 12, 13: q1 10.25, q3 12.75.
    assert lower.split() == [
        "op_p50_ref", "parent", "median", "11.5", "(q1", "10.25,", "q3", "12.75,",
        "IQR", "2.5)", "change", "median", "11.25", "ratio", "0.978",
        "change", "better", "in", "2", "of", "4", "pairs",
    ]
    assert "parent median 2.5 (q1 1.25, q3 3.75, IQR 2.5)" in higher
    assert "change median 2.5  ratio 1.000  change better in 3 of 4 pairs" in higher


def test_one_pair_has_no_spread():
    (line,) = ab_pairs.summarize(
        [ab_pairs.run_result(_stdout(5.0, 1.0), "parent")],
        [ab_pairs.run_result(_stdout(4.0, 1.0), "change")],
        END_TO_END[:1],
    )
    assert "parent median 5 (q1 5, q3 5, IQR 0)" in line
    assert "ratio 0.800  change better in 1 of 1 pairs" in line


@pytest.mark.parametrize("kwargs", [{"correct": False}, {"failed": 2}])
def test_a_wrong_run_stops_the_pairs(kwargs):
    with pytest.raises(SystemExit, match="stopping"):
        ab_pairs.run_result(_stdout(1.0, 1.0, **kwargs), "change")
