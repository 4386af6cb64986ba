#!/usr/bin/env python3
"""Fail the build on benchmark regressions vs a committed baseline.

Compares two ``pytest-benchmark`` JSON files benchmark by benchmark (matched
on the fully-qualified test name) and exits non-zero when any current mean
exceeds ``threshold`` times the baseline mean, or when a baseline benchmark
vanished from the current run::

    python benchmarks/compare_bench.py BENCH_PR4.json benchmarks/BENCH_PR4.json \
        --threshold 1.20 --normalize

The committed baseline (``benchmarks/BENCH_PR4.json``) encodes absolute
times from the reference machine.  CI runners belong to a different (and
varying) machine class, so absolute comparison would fail on runner speed
rather than code: ``--normalize`` therefore divides every mean by the
geometric mean of its own file's benchmarks before comparing.  A uniform
machine-class shift cancels exactly, while a single benchmark regressing by
``R`` still moves its normalized ratio by ``R^((k-1)/k)`` (``k``
benchmarks; ``2x`` on one of four gate benchmarks shows as ``1.68x`` —
comfortably past the 20% gate).  The default threshold is a generous 20%
aimed at algorithmic regressions (a hot path going accidentally quadratic,
a cache stopping to hit), not scheduler noise.  Regenerate the baseline
after an intentional perf change with::

    PYTHONPATH=src python -m pytest benchmarks/bench_pr4_gate.py -q \
        --benchmark-json=benchmarks/BENCH_PR4.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

__all__ = ["compare", "main"]


def _load_means(path: Path) -> dict[str, float]:
    data = json.loads(path.read_text())
    return {
        bench["fullname"]: float(bench["stats"]["mean"])
        for bench in data.get("benchmarks", [])
    }


def _normalized(means: dict[str, float]) -> dict[str, float]:
    """Means divided by their geometric mean (machine-speed cancels)."""
    positive = [m for m in means.values() if m > 0]
    if not positive:
        return dict(means)
    geomean = math.exp(sum(math.log(m) for m in positive) / len(positive))
    return {name: mean / geomean for name, mean in means.items()}


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    threshold: float,
    *,
    normalize: bool = False,
) -> tuple[list[str], list[str]]:
    """Return ``(regressions, notes)`` as printable report lines.

    With ``normalize=True`` the gate compares shape, not speed: each mean is
    divided by its file's geometric mean first, so a uniform machine-class
    shift between baseline and current cancels.
    """
    current_gate = _normalized(current) if normalize else current
    baseline_gate = _normalized(baseline) if normalize else baseline
    regressions: list[str] = []
    notes: list[str] = []
    for name, base_mean in sorted(baseline.items()):
        if name not in current:
            regressions.append(f"MISSING  {name}: present in baseline, absent now")
            continue
        mean = current[name]
        base_gate = baseline_gate[name]
        gate = current_gate[name]
        ratio = gate / base_gate if base_gate > 0 else float("inf")
        line = (
            f"{name}: {mean * 1e3:.2f} ms vs baseline {base_mean * 1e3:.2f} ms "
            f"({'normalized ' if normalize else ''}ratio {ratio:.2f}x)"
        )
        if ratio > threshold:
            regressions.append("REGRESSED " + line)
        else:
            notes.append("ok        " + line)
    for name in sorted(set(current) - set(baseline)):
        notes.append(f"new       {name}: {current[name] * 1e3:.2f} ms (no baseline yet)")
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly produced benchmark JSON")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.20,
        help="max allowed current/baseline ratio (default 1.20 = +20%%)",
    )
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="compare geomean-normalized means (cancels uniform machine-speed "
        "differences; use when baseline and current come from different "
        "machines, e.g. in CI)",
    )
    args = parser.parse_args(argv)

    regressions, notes = compare(
        _load_means(args.current),
        _load_means(args.baseline),
        args.threshold,
        normalize=args.normalize,
    )
    for line in notes:
        print(line)
    for line in regressions:
        print(line, file=sys.stderr)
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond the "
            f"{args.threshold:.2f}x gate",
            file=sys.stderr,
        )
        return 1
    print(f"\nall benchmarks within the {args.threshold:.2f}x gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
