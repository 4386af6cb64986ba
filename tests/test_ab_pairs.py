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
    {"name": "op_p50_ref", "better": "lower", "bound": 0.25},
    {"name": "ops_per_ref", "better": "higher", "bound": 0.25},
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
        "change", "better", "in", "2", "of", "4", "pairs", "verdict:", "no", "worse",
    ]
    assert "parent median 2.5 (q1 1.25, q3 3.75, IQR 2.5)" in higher
    assert "change median 2.5  ratio 1.000  change better in 3 of 4 pairs" in higher
    # An IQR of 2.5 is wider than a quarter of the median 2.5.
    assert higher.endswith("verdict: unresolved")


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


#: Ten parent runs: median 10.0, IQR 0.3, well inside a quarter of it.
STEADY = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
#: Ten parent runs spread wider than a quarter of their median 14.5.
SPREAD = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


@pytest.mark.parametrize(
    "before,after,expected",
    [
        # Wins all 10 pairs and the median falls by 1.0 > IQR 0.3.
        (STEADY, [v - 1.0 for v in STEADY], "gain"),
        # 9 wins and one tie still make 9 of 10.
        (STEADY, [v - 1.0 for v in STEADY[:9]] + STEADY[9:], "gain"),
        # 8 wins and two ties do not; the median is within the bound.
        (STEADY, [v - 1.0 for v in STEADY[:8]] + STEADY[8:], "no worse"),
        # All 10 won, but the median moves by 0.2 < IQR 0.3.
        (STEADY, [v - 0.2 for v in STEADY], "no worse"),
        # 20% slower is inside the 25% bound ...
        (STEADY, [v * 1.2 for v in STEADY], "no worse"),
        # ... 30% slower is not.
        (STEADY, [v * 1.3 for v in STEADY], "worse"),
        # The parent's spread hides a 30% slowdown ...
        (SPREAD, [v * 1.3 for v in SPREAD], "unresolved"),
        # ... but not a change whose every run beats every parent run.
        (SPREAD, [9.9] * 10, "no worse"),
    ],
)
def test_verdict_of_canned_pairs(before, after, expected):
    parent = [ab_pairs.run_result(_stdout(v, 1.0), "parent") for v in before]
    change = [ab_pairs.run_result(_stdout(v, 1.0), "change") for v in after]
    (line,) = ab_pairs.summarize(parent, change, END_TO_END[:1])
    assert line.endswith(f"verdict: {expected}")


@pytest.mark.parametrize(
    "after,expected",
    [
        ([v * 1.2 for v in STEADY], "gain"),
        ([v * 0.6 for v in STEADY], "worse"),
    ],
)
def test_verdict_of_a_higher_is_better_metric(after, expected):
    parent = [ab_pairs.run_result(_stdout(1.0, v), "parent") for v in STEADY]
    change = [ab_pairs.run_result(_stdout(1.0, v), "change") for v in after]
    _, line = ab_pairs.summarize(parent, change, END_TO_END)
    assert line.endswith(f"verdict: {expected}")


def test_an_odd_pair_count_is_refused_before_any_run(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(ab_pairs.subprocess, "run", no_run)
    argv = ["parent", "change", "--workload", "auction_payments", "--pairs", "5"]
    with pytest.raises(SystemExit) as stop:
        ab_pairs.main(argv)
    assert stop.value.code == 2
    assert "even number" in capsys.readouterr().err
