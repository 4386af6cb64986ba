"""Run-to-run spread of the benchmark.

Runs ``perfbench/run.py`` once per (seed, workload), interleaving the
workloads so that host drift touches all of them alike, and prints for
each end-to-end metric the median, the quartiles and the quartile spread
as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  With ``--trace 1`` it runs each seed twice and checks
that the per-layer counters repeat exactly.  From the repository root::

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next((line for line in lines if line.startswith("counters digest:")), "")
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    values: dict[tuple[str, str], list[float]] = {}
    ok = True
    for seed in _seeds(args.seeds):
        for workload in workloads:
            result, digest = _run(workload, seed, args.seconds, args.trace)
            ok &= result["correct"] and result["failed"] == 0
            if args.trace:
                _again, repeat = _run(workload, seed, args.seconds, args.trace)
                if repeat != digest:
                    ok = False
                    print(f"{workload} seed {seed}: counters differ between runs")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g} {metric['unit']}"
                for name, metric in result["metrics"].items()
            ), flush=True)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for (workload, name), series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  WIDE"
        print(f"{workload:17s} {name:14s} median {median:10.4g}  q1 {q1:10.4g}  "
              f"q3 {q3:10.4g}  spread {spread:6.3f}  bound {bound}{flag}")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
