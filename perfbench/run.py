"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign_lp --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
timing the reference loop (``perfbench/reference.py``) beside every op and
giving op times in units of it.  ``--trace 1`` reports the per-layer metrics instead: it runs one pool
cycle untraced, then whole cycles with the span recorder installed
(``perfbench/spans.py``), re-runs the first op to check that its counters
repeat exactly, and writes the spans to ``.perfbench/traces/``.

Everything runs in this process on one thread (``jobs=1``).  The last line
of standard output is the JSON result; the lines before it are a
human-readable table and the output digests.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import ENGINE_COUNTERS, SpanRecorder  # noqa: E402

PINS = HERE / "pinned.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
#: Reference-loop time after each op, as a share of the op's time.
REFERENCE_SHARE = 0.1
WORKLOAD_NAMES = ("campaign_lp", "auction_payments", "isp_clearing", "service_jobs")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help=f"record this run's output digests as the pinned ones (seed {DEFAULT_SEED} only)",
    )
    return parser.parse_args(argv)


class Loop:
    """Runs ops of one workload and accumulates timings and checks."""

    def __init__(self, workload, pins, reference=None):
        self.workload = workload
        self.pins = pins
        self.reference = reference
        self.index = 0
        self.latency: list[float] = []
        self.cpu: list[float] = []
        # Op time over the reference pass time around it, wall and CPU.
        self.ratio: list[float] = []
        self.cpu_ratio: list[float] = []
        self.last_pass = reference.measure(0.0) if reference is not None else None
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.cycle_digests: list[str] = []
        self.problems: list[str] = []

    def op(self, recorder=None) -> None:
        workload, index = self.workload, self.index
        if index == 0:
            workload.start_cycle()
        self.attempted += 1
        counters = recorder.add if recorder is not None else (lambda key, value: None)
        try:
            inp = workload.prepare(index)
            if recorder is not None:
                recorder.begin_op()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = workload.run(inp)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                if recorder is not None:
                    recorder.end_op()
            ok, digest = workload.check(index, inp, out, counters)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, digest = False, None
        else:
            self.latency.append(t1 - t0)
            self.cpu.append(c1 - c0)
            if self.reference is not None:
                self._normalize(t1 - t0, c1 - c0)
        ok = ok and self._digest_ok(index, digest)
        if not ok:
            self.failed += 1
            self.problems.append(f"op {self.attempted - 1} (pool input {index}) failed")
        self.index = (index + 1) % workload.POOL
        if self.index == 0:
            self._end_cycle()

    def _normalize(self, wall, cpu) -> None:
        before = self.last_pass
        after = self.last_pass = self.reference.measure(REFERENCE_SHARE * wall)
        self.ratio.append(2.0 * wall / (before[0] + after[0]))
        self.cpu_ratio.append(2.0 * cpu / (before[1] + after[1]))

    def _digest_ok(self, index, digest) -> bool:
        first = self.digests.setdefault(index, digest)
        pinned = self.pins.get("ops")
        return digest == first and (pinned is None or pinned[index] == digest)

    def _end_cycle(self) -> None:
        digest = self.workload.end_cycle()
        if digest is None:
            return
        if self.cycle_digests and digest != self.cycle_digests[0]:
            self.problems.append("cycle digest differs from the first cycle's")
        pinned = self.pins.get("cycle")
        if pinned is not None and digest != pinned:
            self.problems.append("cycle digest differs from the pinned one")
        self.cycle_digests.append(digest)

    def run_for(self, seconds: float, recorder=None) -> float:
        """Run whole pool cycles, at least one, while the longest cycle so
        far still fits in ``seconds``; returns the summed op time."""
        start = len(self.latency)
        began = time.perf_counter()
        longest = 0.0
        while True:
            cycle_began = time.perf_counter()
            self.op(recorder)
            while self.index:
                self.op(recorder)
            now = time.perf_counter()
            longest = max(longest, now - cycle_began)
            if now - began + longest > seconds:
                break
        return sum(self.latency[start:])

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup(workload_cls, seed, scratch):
    """Build the workload from the seed and run one untimed warm-up op,
    ``SETUP_REPEATS`` times; returns a fresh workload and the median time."""
    times = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = workload_cls(seed, scratch / f"setup-{repeat}")
        workload.start_cycle()
        workload.run(workload.prepare(repeat % workload.POOL))
        times.append(time.perf_counter() - started)
    shutil.rmtree(scratch, ignore_errors=True)
    return workload_cls(seed, scratch / "run"), statistics.median(times)


def _end_to_end(loop, setup_s):
    latency_ms = [1e3 * t for t in loop.latency]
    ops = len(latency_ms)
    metrics = {
        "op_p50_ref": _metric(statistics.median(loop.ratio), "ref"),
        "op_mean_ref": _metric(statistics.fmean(loop.ratio), "ref"),
        "cpu_per_op_ref": _metric(statistics.fmean(loop.cpu_ratio), "ref"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "setup_s": _metric(setup_s, "s"),
    }
    cycles = ops // loop.workload.POOL
    notes = [
        f"ops timed: {ops} ({cycles} whole pool cycles)",
        f"in seconds on this host: ops_per_s {ops / sum(loop.latency):.4f}, "
        f"op_p50_ms {statistics.median(latency_ms):.4f}, "
        f"cpu_ms_per_op {1e3 * sum(loop.cpu) / ops:.4f}",
        f"reference pass: {1e3 * loop.last_pass[0]:.4f} ms at the end of the run",
    ]
    if ops >= 100:
        p90 = statistics.quantiles(latency_ms, n=10, method="inclusive")[-1]
        notes.append(f"op_p90_ms: {p90:.4f} ms over {ops} ops")
    else:
        notes.append(f"op_p90_ms: not reported ({ops} ops < 100)")
    notes.append(f"failed_ratio: {loop.failed / max(1, loop.attempted):.6f}")
    return metrics, notes


def _per_layer(recorder, untraced_ops_per_s, traced_ops_per_s, attempted, failed):
    ops = max(1, recorder.ops)
    counters = recorder.counters

    def per_op(key):
        return counters.get(key, 0.0) / ops

    metrics = {}
    for name, value in recorder.span_metrics().items():
        unit = "ms" if name.endswith("_ms_per_op") else "count"
        metrics[name] = _metric(value, unit)
    for key in ENGINE_COUNTERS:
        metrics[f"engine.{key}"] = _metric(per_op(f"engine.{key}"), "count")
    hits = counters.get("engine.tree_reuses", 0.0) + counters.get("engine.warm_start_hits", 0.0)
    looked_up = hits + counters.get("engine.dijkstra_calls", 0.0)
    metrics["engine.tree_hit_ratio"] = _metric(hits / looked_up if looked_up else 0.0, "ratio")
    rounds = 0.0
    for key in ("probes", "certificate_hits", "rounds_skipped", "rounds_replayed",
                "rounds_recomputed"):
        metrics[f"replay.{key}"] = _metric(per_op(f"replay.{key}"), "count")
        if key.startswith("rounds_"):
            rounds += counters.get(f"replay.{key}", 0.0)
    skipped = counters.get("replay.rounds_skipped", 0.0)
    metrics["replay.skip_ratio"] = _metric(skipped / rounds if rounds else 0.0, "ratio")
    metrics["lp.variables"] = _metric(per_op("lp.variables"), "count")
    metrics["lp.rows"] = _metric(per_op("lp.rows"), "count")
    fsync = recorder.names.index("os.fsync")
    metrics["service.fsyncs_per_job"] = _metric(recorder.calls[fsync] / ops, "count")
    metrics["service.wal_bytes_per_job"] = _metric(
        per_op("service.wal_bytes_per_job"), "bytes"
    )
    metrics["trace.overhead_ratio"] = _metric(
        untraced_ops_per_s / traced_ops_per_s, "ratio"
    )
    metrics["failed_ratio"] = _metric(failed / max(1, attempted), "ratio")
    return metrics


#: Per-layer metrics that are not exact counts.  WAL bytes carry wall-clock
#: timestamps, whose printed length varies by a digit or two.
INEXACT = ("trace.overhead_ratio", "trace.unattributed_ms_per_op",
           "service.wal_bytes_per_job")


def _exact_op_counts(recorder) -> dict:
    counts = recorder.last_op_counts()
    return {key: value for key, value in counts.items() if key not in INEXACT}


def _exact_counts(metrics) -> dict:
    """The per-layer metrics that must repeat exactly for a seed."""
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if not name.endswith("_ms_per_op") and name not in INEXACT
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Run the program's defaults: no kernel, backend or fan-out override
    # inherited from the environment, and one thread in the numeric
    # libraries (set before numpy is first imported).
    for variable in ("REPRO_KERNEL", "REPRO_SP_BACKEND", "REPRO_JOBS"):
        os.environ.pop(variable, None)
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from reference import Reference  # noqa: E402  (imports numpy)
    from workloads import WORKLOADS  # noqa: E402  (imports the program)

    import_s = time.perf_counter() - _START
    pins = {}
    if args.seed == DEFAULT_SEED and PINS.exists() and not args.write_pins:
        pins = json.loads(PINS.read_text()).get(args.workload, {})

    scratch = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, setup_median = _setup(WORKLOADS[args.workload], args.seed, scratch)
        setup_s = import_s + setup_median
        if args.trace == 0:
            loop = Loop(workload, pins, Reference())
            loop.run_for(args.seconds)
            metrics, lines = _end_to_end(loop, setup_s)
        else:
            loop = Loop(workload, pins)
            metrics, lines = _traced(args, loop)
            if metrics is None:
                return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    digests = [loop.digests.get(i) for i in range(workload.POOL)]
    lines.append(f"op digests (pool order): {json.dumps(digests)}")
    if loop.cycle_digests:
        lines.append(f"cycle digest: {loop.cycle_digests[0]}")
    if args.write_pins:
        if args.seed != DEFAULT_SEED or not loop.correct:
            print("error: pins are written only by a correct run of the default seed",
                  file=sys.stderr)
            return 2
        pinned = json.loads(PINS.read_text()) if PINS.exists() else {}
        entry = {"ops": digests}
        if loop.cycle_digests:
            entry["cycle"] = loop.cycle_digests[0]
        pinned[args.workload] = entry
        PINS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    for problem in loop.problems:
        lines.append(f"problem: {problem}")
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def _traced(args, loop):
    started = time.perf_counter()
    untraced_s = loop.run_for(0.0)  # one pool cycle
    untraced_ops = len(loop.latency)
    recorder = SpanRecorder()
    recorder.install()
    traced_start = len(loop.latency)
    # The first traced op is pool input 0; its exact counts are compared
    # with a re-run of the same input in a fresh cycle below.
    loop.op(recorder)
    first_counts = _exact_op_counts(recorder)
    remaining = args.seconds - (time.perf_counter() - started)
    loop.run_for(remaining, recorder=recorder)
    traced_s = sum(loop.latency[traced_start:])
    traced_ops = len(loop.latency) - traced_start
    metrics = _per_layer(
        recorder,
        untraced_ops / untraced_s,
        traced_ops / traced_s,
        loop.attempted,
        loop.failed,
    )
    loop.index = 0
    loop.op(recorder)
    rerun_counts = _exact_op_counts(recorder)
    recorder.uninstall()
    recorder.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    if rerun_counts != first_counts:
        changed = sorted(
            key for key in set(first_counts) | set(rerun_counts)
            if first_counts.get(key) != rerun_counts.get(key)
        )
        print(f"error: per-op counters did not repeat for the same input: {changed}",
              file=sys.stderr)
        return None, []
    lines = [
        f"ops traced: {recorder.ops - 1} (untraced {untraced_ops})",
        f"spans missing from the program: {recorder.missing or 'none'}",
        "counters digest: " + _counter_digest(_exact_counts(metrics)),
    ]
    return metrics, lines


def _counter_digest(exact) -> str:
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
