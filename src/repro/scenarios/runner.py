"""The campaign runner: fan cells out, persist each completed cell.

One campaign cell = one topology × regime × mode combination.  The cell
function materializes the workload (:mod:`repro.scenarios.regimes`), runs
the mode's solver — offline ``Bounded-UFP``, the repetitions variant, or
the online streaming auction — and returns a flat, JSON-safe record of
deterministic metrics (no wall-clock: records must be bit-identical at any
``jobs``, which is what makes store hashes comparable across runs).

Cells flow through :func:`repro.parallel.pmap` in *waves*: after each wave the completed
cells are committed to the :class:`~repro.scenarios.store.ResultStore` in
cell order, one self-checking line per cell, so a killed campaign resumes
from its committed lines and recomputes only what is missing.  Wave size
scales with the worker count; it changes checkpoint granularity only,
never results.

Workload modes (the ``"mode"`` axis):

* ``{"kind": "offline", "epsilon": "auto", "payments": false, "bound": "lp"}``
  — one sealed-bid ``Bounded-UFP`` clearing; ``epsilon`` is a float or
  ``"auto"`` (matched to the capacity regime, see ``_resolve_epsilon``);
  ``payments: true`` adds
  critical-value payments (trace-replay accelerated) and revenue/replay
  columns; ``bound: "lp"`` (default) adds the fractional LP optimum and
  the approximation ratio.  HiGHS solves the LP only when routing every
  request along its initial shortest-path tree does not fit the
  capacities; when it fits, the optimum is the total declared value
  (``_lp_bound``).
* ``{"kind": "repeated", ...}`` — ``Bounded-UFP-Repeat`` (Theorem 5.1).
* ``{"kind": "online", "arrivals": "poisson" | "bursty" | "adversarial" |
  "trace", "admission": "greedy" | "threshold", "payments": false,
  "compare_offline": true}`` — the streaming auction of
  :mod:`repro.online`; ``compare_offline`` also clears the full instance
  offline and reports the empirical competitive ratio.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time as _time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro import parallel
from repro.core.bounded_ufp import bounded_ufp
from repro.core.bounded_ufp_repeat import bounded_ufp_repeat
from repro.core.pricing_engine import initial_tree
from repro.exceptions import InvalidInstanceError
from repro.experiments.harness import CellOutcome, ratio
from repro.flows.instance import UFPInstance
from repro.mechanism.payments import compute_ufp_payments
from repro.online.arrivals import (
    adversarial_arrivals,
    bursty_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from repro.online.auction import OnlineAuction
from repro.parallel import WorkerError
from repro.partition import partitioned_bounded_ufp
from repro.scenarios.regimes import (
    ARRIVAL_STREAM,
    FAULT_STREAM,
    PARTITION_STREAM,
    build_cell_instance,
    cell_rng,
)
from repro.scenarios.specs import CellSpec, cell_hash, enumerate_cells, normalize_suite
from repro.scenarios.store import ResultStore
from repro.utils.backoff import BackoffPolicy

__all__ = ["CampaignResult", "CellTimeoutError", "run_cell", "run_campaign"]


class CellTimeoutError(Exception):
    """A cell exceeded its ``cell_timeout`` wall-clock budget."""


@dataclass
class CampaignResult:
    """Outcome of one campaign invocation."""

    suite: dict
    records: dict[str, dict]
    computed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    invalidated: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    @property
    def num_cells(self) -> int:
        return len(self.records)

    @property
    def all_cells_ok(self) -> bool:
        return all(record.get("claims_ok", True) for record in self.records.values())

    def summary_line(self) -> str:
        return (
            f"cells: {self.num_cells} total, {len(self.computed)} computed, "
            f"{len(self.skipped)} skipped"
            + (f", {len(self.invalidated)} invalidated" if self.invalidated else "")
            + (f", {len(self.failed)} FAILED (quarantined)" if self.failed else "")
        )


# ---------------------------------------------------------------------- #
# One cell
# ---------------------------------------------------------------------- #
def _lp_bound(instance: UFPInstance, mode: Mapping[str, Any]) -> float | None:
    """The cell's fractional LP bound: the Figure 1 relaxation, or the
    Figure 5 one (no per-request cap) for a ``repeated`` cell.

    The Figure 1 optimum is at most the total declared value, since every
    ``X_r <= 1``, and a routing of every request within capacity attains
    it.  So when :func:`_initial_routing_value` finds one, that is the
    bound and HiGHS is not called.  The Figure 5 program has no cap, and
    is always solved.
    """
    if mode.get("bound", "lp") == "none":
        return None
    repetitions = mode.get("kind") == "repeated"
    if not repetitions:
        value = _initial_routing_value(instance)
        if value is not None:
            return value
    from repro.lp.fractional_ufp import solve_fractional_ufp

    return float(solve_fractional_ufp(instance, repetitions=repetitions).objective)


def _initial_routing_value(instance: UFPInstance) -> float | None:
    """The total declared value when routing every request along its
    source's tree under the initial weights ``y = 1/c`` reaches every target
    and loads no edge beyond its capacity; ``None`` otherwise.

    After the cell's ``bounded_ufp`` run the trees are the ones it
    memoized (:func:`~repro.core.pricing_engine.initial_tree`), so the
    check builds none.  The total is summed left to right from ``0.0`` in
    request order, the order of the values among HiGHS's columns: that
    sum is HiGHS's objective at this optimum, bit for bit, on every case
    ``tests/test_lp_bound.py`` checks.  Builtin ``sum`` compensates from
    Python 3.12 on, and ``math.fsum`` and numpy's pairwise sum round
    differently.
    """
    graph = instance.graph
    load = [0.0] * graph.num_edges
    trees = {}
    for request in instance.requests:
        tree = trees.get(request.source)
        if tree is None:
            tree = trees[request.source] = initial_tree(graph, request.source)
        if tree.dist[request.target] == math.inf:
            return None
        for edge in tree.path_to(request.target)[1]:
            load[edge] += request.demand
    if any(used > capacity for used, capacity in zip(load, graph.capacities.tolist())):
        return None
    total = 0.0
    for value in instance.values_array().tolist():
        total += value
    return total


def _resolve_epsilon(mode: Mapping[str, Any], instance: UFPInstance) -> float:
    """The cell's accuracy parameter.

    ``"auto"`` (the default) matches epsilon to the instance's capacity
    regime the way the paper does: Theorem 3.1 needs
    ``B >= ln(m) / eps^2``, so the tightest admissible choice is
    ``eps = sqrt(ln(m) / B)`` (clamped to ``[0.05, 1]``).  Large-capacity
    cells get a sharp epsilon — without it, a fixed small epsilon would
    admit nothing below its regime and the cross-regime comparison would
    be vacuous.

    Whatever epsilon, a cell admits nothing when its starting dual budget
    already exceeds the line-5 limit: the budget starts at
    ``sum_e c_e / c_e = m`` and the loop runs only while it is at most
    ``e^{eps (B - 1)}``, with ``B`` the least capacity.  Since
    ``eps <= 1``, every cell with ``B <= ln(m)`` has
    ``e^{eps (B - 1)} <= m / e < m``.  Tiny-capacity adversarial cells and
    ``B = ln(m)`` boundary cells are such cells: they run at ``eps`` near 1,
    where the guarantee is vacuous, and admit nothing (on the ``demo``
    suite, 8 of its 12 offline cells).
    """
    epsilon = mode.get("epsilon", "auto")
    if epsilon == "auto":
        log_m = math.log(max(2, instance.graph.num_edges))
        bound = max(1e-9, float(instance.capacity_bound()))
        return min(1.0, max(0.05, math.sqrt(log_m / bound)))
    return float(epsilon)


def _base_record(cell: CellSpec, instance: UFPInstance, base_capacity: float) -> dict:
    graph = instance.graph
    meta = instance.metadata
    return {
        "key": cell.key,
        "topology": cell.topology["name"],
        "family": cell.topology.get("family"),
        "regime": cell.regime["name"],
        "mode": cell.mode["name"],
        "kind": cell.mode["kind"],
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "B": base_capacity,
        "B_over_log_m": meta.get("B_over_log_m"),
        "requests": instance.num_requests,
    }


def _resolve_cell_partition(cell: CellSpec, instance: UFPInstance):
    """Resolve a mode's ``partition`` entry into a partition + exactness flag.

    ``partition`` accepts ``"auto"``/``true`` (the natural clusters of a
    ``multi_region`` topology), an integer region count or a dict with a
    ``regions`` key.  Returns ``(GraphPartition, exact_contract)`` where
    ``exact_contract`` marks partitions eligible for the bit-identity
    claim (the trivial partition and ``multi_region``'s natural clusters):
    on an intra-only cell they must reproduce the global solver exactly
    *provided* the global clearing never routed across the cut — a premise
    ``_partition_metrics`` verifies per cell rather than assumes.
    """
    from repro.graphs.partition import (
        bfs_partition,
        multi_region_partition,
        single_region_partition,
    )

    spec = cell.mode["partition"]
    regions = spec.get("regions", "auto") if isinstance(spec, Mapping) else spec
    topology = cell.topology
    natural = topology.get("family") == "multi_region"
    # NB: `regions is True` (not `in (...)`) — `1 == True` would otherwise
    # swallow the explicit 1-region spec.
    if regions == "auto" or regions is True:
        if not natural:
            raise InvalidInstanceError(
                "partition 'auto' needs a multi_region topology; give an "
                "explicit region count for other families"
            )
        regions = int(topology.get("regions", 3))
    regions = int(regions)
    if regions == 1:
        return single_region_partition(instance.graph), True
    if natural and regions == int(topology.get("regions", 3)):
        return (
            multi_region_partition(
                instance.graph,
                regions,
                int(topology.get("cores_per_region", 3)),
                int(topology.get("leaves_per_core", 2)),
            ),
            True,
        )
    return (
        bfs_partition(
            instance.graph,
            regions,
            seed=cell_rng(cell.topology_seed, PARTITION_STREAM),
        ),
        False,
    )


def _partition_metrics(
    cell: CellSpec,
    instance: UFPInstance,
    outcome: CellOutcome,
    epsilon: float,
    allocation,
) -> dict:
    """Partitioned-solver columns of one offline cell.

    Runs the partitioned solver next to the global ``allocation`` the cell
    already produced: always reports the region/cut/cross shape and the
    approximation gap vs. the global value, and claims bit-identity on
    cells with cross-region traffic and on intra-only cells whose partition
    carries the exactness contract *and* whose global clearing never routed
    across the cut (region-internal shortest paths can leave their region
    once internal congestion makes a backbone detour cheaper, so the
    premise is checked, not assumed).
    """
    spec = cell.mode["partition"]
    spec = spec if isinstance(spec, Mapping) else {}
    partition, exact_contract = _resolve_cell_partition(cell, instance)
    partitioned = partitioned_bounded_ufp(instance, epsilon, partition=partition)
    outcome.claim(
        "partitioned allocation is feasible", partitioned.is_feasible()
    )
    extra = partitioned.stats.extra
    cross = int(extra.get("partition_cross_requests", 0.0))
    record: dict[str, Any] = {
        "partition_regions": partition.num_regions,
        "partition_cut_edges": partition.num_cut_edges,
        "partition_cross": cross,
        "partition_value": float(partitioned.value),
        "partition_admitted": partitioned.num_selected,
    }
    if spec.get("compare_global", True):
        cut = set(partition.cut_edge_ids.tolist())
        stays_internal = not any(
            eid in cut for routed in allocation.routed for eid in routed.edge_ids
        )
        # With cross-region traffic the partitioned solver returns the
        # global run on the whole graph, so the cell is exact by
        # construction, whatever the cut.
        exact = cross > 0 or (exact_contract and stays_internal)
        matches = (
            [r.request_index for r in partitioned.routed]
            == [r.request_index for r in allocation.routed]
            and [r.edge_ids for r in partitioned.routed]
            == [r.edge_ids for r in allocation.routed]
            and float(partitioned.value) == float(allocation.value)
        )
        if exact:
            outcome.claim(
                "partitioned solver is bit-identical to the global solver",
                matches,
            )
        record["partition_gap"] = ratio(
            float(allocation.value), float(partitioned.value)
        )
        record["partition_exact"] = bool(exact and matches)
    return record


def _offline_metrics(
    cell: CellSpec, instance: UFPInstance, outcome: CellOutcome
) -> dict:
    mode = cell.mode
    epsilon = _resolve_epsilon(mode, instance)
    if mode["kind"] == "repeated":
        solver = partial(bounded_ufp_repeat, epsilon=epsilon)
    else:
        solver = partial(bounded_ufp, epsilon=epsilon)
    allocation = solver(instance)
    outcome.claim("allocation is feasible", allocation.is_feasible())

    record: dict[str, Any] = {
        "epsilon": epsilon,
        "admitted": allocation.num_selected,
        "value": float(allocation.value),
        "admission_rate": allocation.num_selected / max(1, instance.num_requests),
        "stopped_by_budget": bool(allocation.stats.stopped_by_budget),
        "iterations": int(allocation.stats.iterations),
        # Compute-kernel work units (trees computed plus dual updates).
        "kernel_calls": float(
            allocation.stats.extra.get("pricing_kernel_calls", 0.0)
        ),
    }
    bound = _lp_bound(instance, mode)
    if bound is not None:
        record["bound"] = bound
        record["ratio"] = ratio(bound, float(allocation.value))
        outcome.claim(
            "allocation value is within the fractional LP bound",
            float(allocation.value) <= bound + 1e-6,
        )
    if mode.get("payments"):
        replay_stats: dict[str, float] = {}
        payments = compute_ufp_payments(
            solver,
            instance,
            allocation,
            replay_stats=replay_stats,
        )
        values = instance.values_array()
        outcome.claim(
            "payments are individually rational",
            bool((payments <= values + 1e-9).all()),
        )
        record["revenue"] = float(payments.sum())
        record.update({k: float(v) for k, v in replay_stats.items()})
    if mode.get("partition"):
        if mode["kind"] != "offline":
            raise InvalidInstanceError(
                "partitioned solving is an offline-mode option; "
                f"got kind {mode['kind']!r}"
            )
        record.update(
            _partition_metrics(cell, instance, outcome, epsilon, allocation)
        )
    return record


_ARRIVALS = ("poisson", "bursty", "adversarial", "trace")


def _online_metrics(
    cell: CellSpec, instance: UFPInstance, outcome: CellOutcome
) -> dict:
    mode = cell.mode
    if mode.get("partition"):
        raise InvalidInstanceError(
            "partitioned solving is an offline-mode option; "
            f"got kind {mode['kind']!r}"
        )
    epsilon = _resolve_epsilon(mode, instance)
    arrivals = mode.get("arrivals", "poisson")
    if arrivals not in _ARRIVALS:
        raise InvalidInstanceError(
            f"unknown arrival process {arrivals!r}; known: {_ARRIVALS}"
        )
    arrival_rng = cell_rng(cell.workload_seed, ARRIVAL_STREAM)
    requests = list(instance.requests)
    if arrivals == "poisson":
        stream = poisson_arrivals(
            requests,
            rate=float(mode.get("rate", 2.0)),
            batch_window=float(mode.get("batch_window", 1.0)),
            seed=arrival_rng,
        )
    elif arrivals == "bursty":
        stream = bursty_arrivals(
            requests,
            burst_size=int(mode.get("burst_size", 6)),
            shuffle=True,
            seed=arrival_rng,
        )
    elif arrivals == "adversarial":
        stream = adversarial_arrivals(
            requests, order=str(mode.get("order", "density_ascending"))
        )
    else:
        stream = trace_arrivals(instance, batch_size=int(mode.get("batch_size", 5)))

    auction = OnlineAuction(
        instance.graph,
        epsilon,
        admission=mode.get("admission", "greedy"),
        score_threshold=float(mode.get("score_threshold", 1.0)),
        compute_payments=bool(mode.get("payments", False)),
        max_requeues=int(mode.get("max_requeues", 2)),
        compensation_rate=float(mode.get("compensation_rate", 0.0)),
        name=instance.name,
    )
    fault_report = None
    if mode.get("faults") is not None:
        from repro.faults import FaultSchedule, run_with_faults

        schedule = FaultSchedule(
            dict(mode["faults"]),
            seed=cell_rng(cell.workload_seed, FAULT_STREAM),
        )
        online, report = run_with_faults(auction, stream, schedule)
        # A zero-intensity schedule must leave the record bit-identical to
        # the fault-free mode (the differential store-hash tests rely on
        # it), so degradation columns appear only when faults could fire.
        if not schedule.zero_intensity:
            fault_report = report
    else:
        online = auction.run(stream)
    outcome.claim("online allocation is feasible", online.is_feasible())

    record: dict[str, Any] = {
        "epsilon": epsilon,
        "admitted": online.num_selected,
        "value": float(online.value),
        "admission_rate": online.num_selected / max(1, instance.num_requests),
        "stopped_by_budget": bool(online.stats.stopped_by_budget),
        "batches": int(online.num_batches),
        "sp_calls": int(online.stats.shortest_path_calls),
        "tree_reuses": float(online.stats.extra.get("pricing_tree_reuses", 0.0)),
        "kernel_calls": float(online.stats.extra.get("pricing_kernel_calls", 0.0)),
    }
    if mode.get("payments"):
        values = online.instance.values_array()
        outcome.claim(
            "online payments are individually rational",
            bool((online.payments <= values + 1e-9).all()),
        )
        record["revenue"] = float(online.revenue)
    if mode.get("compare_offline", True):
        offline = bounded_ufp(instance, epsilon)
        record["offline_value"] = float(offline.value)
        # ratio() handles the zero cases (1 when both zero, inf when only
        # the offline clearing got nothing).
        record["value_ratio"] = ratio(float(online.value), float(offline.value))
    bound = _lp_bound(instance, mode) if mode.get("bound") == "lp" else None
    if bound is not None:
        record["bound"] = bound
        record["ratio"] = ratio(bound, float(online.value))
    if fault_report is not None:
        record.update(
            {key: float(value) for key, value in fault_report.as_extra().items()}
        )
        # How much admitted honest value survived relative to total admitted
        # value — the jamming-damage headline number.
        total_value = float(online.value)
        record["fault_honest_share"] = (
            fault_report.honest_value / total_value if total_value > 0 else 1.0
        )
    return record


def run_cell(cell: CellSpec) -> CellOutcome:
    """Run one campaign cell and return its outcome (one record row).

    Pure function of the cell spec — no ambient rng, no wall-clock in the
    record — so it satisfies the :func:`repro.parallel.pmap` determinism
    contract and records hash identically at any ``jobs``.
    """
    outcome = CellOutcome()
    inject = cell.mode.get("inject_failure")
    if inject:
        # Chaos-testing hook: a mode may ask its own cell to fail, so the
        # quarantine/retry machinery can be exercised end to end from a
        # plain suite spec (the CI chaos lane does exactly this).
        if inject == "exception":
            raise RuntimeError(f"injected failure in cell {cell.key}")
        if inject == "sigkill":
            if parallel.in_worker():
                os.kill(os.getpid(), signal.SIGKILL)
            # Serial fallback: killing the only process would take the whole
            # campaign down, so degrade to an ordinary failure.
            raise RuntimeError(f"injected failure in cell {cell.key}")
        if inject == "timeout":
            _time.sleep(3600.0)
    instance, _topology, base_capacity = build_cell_instance(cell)
    record = _base_record(cell, instance, base_capacity)
    if cell.mode["kind"] == "online":
        record.update(_online_metrics(cell, instance, outcome))
    else:
        record.update(_offline_metrics(cell, instance, outcome))
    failed = [description for description, holds in outcome.claims if not holds]
    record["claims_ok"] = not failed
    if failed:
        record["claims_failed"] = failed
    outcome.rows.append(record)
    return outcome


# ---------------------------------------------------------------------- #
# The campaign driver
# ---------------------------------------------------------------------- #
def _wave_size(jobs: int | None) -> int:
    # Checkpoint after every ~2 chunks per worker: small enough that a
    # killed campaign loses little work, large enough to amortize fan-out.
    return max(4, 2 * parallel.resolve_jobs(jobs))


def _guarded_run_cell(task: tuple[CellSpec, float | None]) -> CellOutcome:
    """Run one cell under an optional wall-clock budget.

    The timeout uses ``SIGALRM``, so it fires even inside a single solver
    call (pure-Python loops included); pool workers execute tasks on their
    main thread, which is where Python delivers signals.  With no timeout
    (or on platforms without ``SIGALRM``) this is exactly :func:`run_cell`.

    ``signal.signal``/``signal.setitimer`` raise ``ValueError`` when called
    off the main thread, so a caller driving the campaign from a worker
    thread (dashboards, test harnesses) falls back to the no-timeout path —
    same degradation as platforms without ``SIGALRM``.
    """
    cell, timeout = task
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return run_cell(cell)

    def _on_alarm(signum, frame):  # pragma: no cover - timing dependent
        raise CellTimeoutError(f"cell {cell.key} timed out after {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    try:
        return run_cell(cell)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _quarantine_record(
    cell: CellSpec, error: BaseException, attempts: int
) -> dict[str, Any]:
    """The failed-cell record committed to the store (cell quarantine).

    Deliberately shaped like a normal record (same identity columns,
    ``claims_ok`` false) so reporting, store hashing and resume treat it
    uniformly; ``failed`` marks it non-skippable — a later ``resume``
    retries the cell instead of trusting the failure forever.  The full
    worker traceback (preserved across the pickle boundary by
    :class:`~repro.parallel.WorkerError`) rides along so a quarantined
    cell is debuggable from its stored record alone.
    """
    record = {
        "key": cell.key,
        "topology": cell.topology["name"],
        "family": cell.topology.get("family"),
        "regime": cell.regime["name"],
        "mode": cell.mode["name"],
        "kind": cell.mode["kind"],
        "failed": True,
        "error": str(error),
        "error_type": getattr(error, "error_type", type(error).__name__),
        "attempts": attempts,
        "claims_ok": False,
    }
    traceback = getattr(error, "traceback", None)
    if traceback:
        record["traceback"] = traceback
    return record


def run_campaign(
    suite: Mapping[str, Any],
    *,
    store: ResultStore | None = None,
    jobs: int | None = None,
    fresh: bool = False,
    progress: Callable[[str], None] | None = None,
    retries: int = 0,
    retry_backoff: float = 0.0,
    cell_timeout: float | None = None,
) -> CampaignResult:
    """Run a scenario campaign, resuming from ``store`` when it has results.

    Cells already committed to the store *with an identical cell hash* are
    skipped; cells whose spec or seed changed are recomputed (their old
    lines are shadowed by the newer ones).  Without a store the campaign
    runs fully in memory.

    The runner is crash-tolerant: a cell that raises, times out
    (``cell_timeout`` seconds of wall clock) or kills its worker process is
    retried up to ``retries`` times (sleeping
    ``retry_backoff * 2**(attempt - 1)`` seconds before retry attempt
    ``attempt`` — i.e. ``retry_backoff`` before the first retry, doubling
    each further retry), and if it still fails it is *quarantined* — a
    failed record is committed to the store and reported, and the rest of
    the campaign completes.  Quarantined cells are never skipped on resume:
    a later ``resume`` retries them (deterministically — same spec, same
    seeds) instead of trusting the failure forever.
    """
    suite = normalize_suite(suite)
    cells = enumerate_cells(suite)
    hashes = {cell.key: cell_hash(cell) for cell in cells}
    retries = max(0, int(retries))
    # One backoff policy for the whole repo (repro.utils.backoff): with no
    # cap and no jitter this is exactly the documented doubling schedule,
    # pinned by the recorded-sleep regression test.
    backoff = BackoffPolicy(base=max(0.0, float(retry_backoff)))

    completed: dict[str, str] = {}
    stored: dict[str, dict] = {}
    if store is not None:
        suite = store.initialize(suite, fresh=fresh)
        completed = store.completed()
        stored = store.records(hashes)

    # A cell is skippable only when its committed line carries the current
    # cell hash AND its record is a success — a torn or damaged line or a
    # quarantined failure (the crash scenarios the store exists for)
    # degrades to recomputation, never to an error.
    skipped = [
        cell.key
        for cell in cells
        if completed.get(cell.key) == hashes[cell.key]
        and not stored[cell.key].get("failed")
    ]
    invalidated = [
        cell.key
        for cell in cells
        if cell.key in completed and completed[cell.key] != hashes[cell.key]
    ]
    skipped_set = set(skipped)
    pending = [cell for cell in cells if cell.key not in skipped_set]

    records: dict[str, dict] = {key: stored[key] for key in skipped}
    failed_keys: list[str] = []

    wave = _wave_size(jobs)
    for start in range(0, len(pending), wave):
        chunk = pending[start : start + wave]
        if progress is not None:
            progress(
                f"running cells {start + 1}..{start + len(chunk)} of {len(pending)}"
            )
        remaining = chunk
        results: dict[str, CellOutcome | WorkerError] = {}
        attempts_used: dict[str, int] = {}
        for attempt in range(retries + 1):
            if not remaining:
                break
            if attempt:
                backoff.sleep_for(attempt, sleep=_time.sleep)
            # Retry isolation: a retry re-enters run_cell with nothing but
            # the CellSpec — build_cell_instance constructs a fresh graph
            # (hence fresh substrate_cache/tree memos) and the solver builds
            # its engine and dual state inside the call, so no state from a
            # SIGALRM-interrupted attempt (half-updated duals, a poisoned
            # pricing heap) can leak into the retry.  The regression test
            # pins retried-after-timeout == untimed, bit for bit.
            outcomes = parallel.pmap(
                _guarded_run_cell,
                [(cell, cell_timeout) for cell in remaining],
                jobs=jobs,
                on_error="capture",
            )
            still_failing: list[CellSpec] = []
            for cell, outcome in zip(remaining, outcomes):
                attempts_used[cell.key] = attempt + 1
                results[cell.key] = outcome
                if isinstance(outcome, WorkerError):
                    still_failing.append(cell)
                    if progress is not None:
                        progress(
                            f"cell {cell.key} failed (attempt {attempt + 1}"
                            f"/{retries + 1}): {outcome}"
                        )
            remaining = still_failing
        for cell in chunk:
            outcome = results[cell.key]
            if isinstance(outcome, WorkerError):
                record = _quarantine_record(
                    cell, outcome, attempts_used[cell.key]
                )
                failed_keys.append(cell.key)
            else:
                record = outcome.rows[0]
            records[cell.key] = record
            if store is not None:
                store.append(cell.key, hashes[cell.key], record)

    # Report in canonical cell order.
    ordered = {cell.key: records[cell.key] for cell in cells}
    return CampaignResult(
        suite=suite,
        records=ordered,
        computed=[cell.key for cell in pending],
        skipped=skipped,
        invalidated=invalidated,
        failed=failed_keys,
    )
