#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

Runs ``perfbench/run.py`` in two checkouts of the repository, one pair of
runs at a time, alternating which checkout goes first, and summarizes every
end-to-end metric of ``BENCHMARK.json``::

    python3 benchmarks/ab_pairs.py PARENT CHANGE --workload W --pairs N \\
        [--seed S --seconds 25]

``N`` must be an even number of pairs, so that each side goes first in half
of them: the run that goes second in a pair can read several percent
slower.  An odd ``N`` is refused before any run.

Before every run it deletes the checkout's ``__pycache__`` directories, so
neither side reads bytecode the other does not (``setup_s`` includes the
import).  It stops on the first run that is not ``correct`` or that has
failed ops.  For each metric it prints the parent's median and quartiles,
the change's median, the ratio of the two medians, in how many pairs the
change was better (by the metric's ``better`` direction), and a verdict
(:func:`verdict`, which reads the metric's ``bound``).  One run per side
tells nothing on a shared host; the pairs and the parent's quartile spread
do.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_result(stdout: str, label: str) -> dict:
    """The JSON result line that ends a ``perfbench/run.py`` output; exits
    when the run is not correct or had failed ops."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(
            f"{label}: correct={result['correct']}, failed={result['failed']}; stopping"
        )
    return result


def _run(checkout: Path, args: argparse.Namespace) -> dict:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: exited {done.returncode}\n{done.stderr}")
    return run_result(done.stdout, str(checkout))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """The reading of one metric over paired runs (``before[i]`` and
    ``after[i]`` are pair ``i``), checked in this order:

    * ``gain``: the change won at least 9 of every 10 pairs (a tie counts
      for neither side), and its median beats the parent's by more than the
      parent's IQR;
    * ``unresolved``: the parent's IQR exceeds ``bound`` times its median,
      and not every change run beats every parent run;
    * ``no worse``: the change's median is within ``bound`` (a fraction of
      the parent's median) of the parent's;
    * ``worse``: none of the above.
    """
    # Negate a higher-is-better metric, so lower is better below; the IQR
    # and the distances between medians keep their size.
    sign = 1.0 if better == "lower" else -1.0
    before = [sign * value for value in before]
    after = [sign * value for value in after]
    q1, median, q3 = _quartiles(before)
    changed = statistics.median(after)
    won = sum(b < a for a, b in zip(before, after))
    if 10 * won >= 9 * len(after) and median - changed > q3 - q1:
        return "gain"
    if q3 - q1 > bound * abs(median) and not max(after) < min(before):
        return "unresolved"
    if changed - median <= bound * abs(median):
        return "no worse"
    return "worse"


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric over paired results (``parent[i]``
    and ``change[i]`` are pair ``i``)."""
    lines = []
    for spec in end_to_end:
        name = spec["name"]
        before = [result["metrics"][name]["value"] for result in parent]
        after = [result["metrics"][name]["value"] for result in change]
        q1, median, q3 = _quartiles(before)
        changed = statistics.median(after)
        lower = spec["better"] == "lower"
        won = sum((b < a) if lower else (b > a) for a, b in zip(before, after))
        ratio = changed / median if median else float("nan")
        reading = verdict(before, after, spec["better"], spec["bound"])
        lines.append(
            f"{name:16s} parent median {median:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, "
            f"IQR {q3 - q1:.4g})  change median {changed:.4g}  "
            f"ratio {ratio:.3f}  change better in {won} of {len(after)} pairs  "
            f"verdict: {reading}"
        )
    return lines


def _even_pairs(text: str) -> int:
    pairs = int(text)
    if pairs < 2 or pairs % 2:
        raise argparse.ArgumentTypeError(
            f"{text} pairs: give an even number, so each side goes first equally often"
        )
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=_even_pairs, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent: list[dict] = []
    change: list[dict] = []
    for pair in range(args.pairs):
        order = [(args.parent, parent), (args.change, change)]
        for checkout, results in order if pair % 2 == 0 else order[::-1]:
            results.append(_run(checkout.resolve(), args))
        first = "parent" if pair % 2 == 0 else "change"
        print(f"pair {pair} ({first} first), parent/change: " + ", ".join(
            f"{name} {parent[-1]['metrics'][name]['value']:.4g}/"
            f"{change[-1]['metrics'][name]['value']:.4g}"
            for name in (spec["name"] for spec in end_to_end)
        ), flush=True)
    for line in summarize(parent, change, end_to_end):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
