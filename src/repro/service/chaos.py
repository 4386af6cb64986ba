"""Service-level chaos: a seeded fault plan driven through a supervisor fleet.

The unit-level fault injection in :mod:`repro.faults` perturbs *campaign
cells*; this module perturbs the **service machinery itself** — the WAL,
the leases, the clocks, the supervisors — and then checks the promises the
service makes survive it.  Everything is derived from one seed, so a
violating schedule is a replayable artifact, not an anecdote.

Fault vocabulary (all injected at the WAL-append seam,
:class:`repro.service.wal.WalHooks`, which every queue mutation funnels
through):

* ``io_error`` — the append raises :class:`OSError` before the line is
  written (a full disk / failed fsync).  The entry is lost *before* any
  state changed, so the caller sees a transient failure, never a silent
  half-commit.
* ``kill`` — the append raises :class:`SupervisorKilled` (a
  ``BaseException``, so no ``except Exception`` recovery path can swallow
  it): the whole supervisor "process" dies mid-operation and is restarted
  with a fresh queue handle that must replay snapshot + WAL from disk.
* ``torn_tail`` — after a durable append, a partial line with no newline
  is planted at the log tail, exactly what a crash mid-write leaves.
  Readers must skip it; the next append must repair it.
* ``lease_steal`` — a LEASED/HEARTBEAT entry has its expiry rewritten to
  the distant past before it is written: the lease is stealable
  immediately, so a peer re-leases the job (new fencing token) while the
  original worker still thinks it holds it.  Fencing must reject the
  original's acknowledgement.
* ``clock_jump`` — the shared *wall* clock steps by hours, forwards or
  backwards.  Leases and backoff are monotonic, so a jump must change
  nothing but display timestamps.

Invariants checked by :func:`run_chaos_harness` (the service's contract):

1. Every submitted job ends in exactly one terminal state — and, since
   the plan's faults are all recoverable, that state is DONE.
2. No job is ever acknowledged DONE twice with *different* content hashes
   (fencing + commit-then-ack make re-acknowledgement either impossible
   or bit-identical).
3. The surviving result of every job is **bit-identical** to an
   uninterrupted serial single-supervisor run of the same spec — crashes,
   steals and retries may change *who* computes, never *what*.

A plan with every intensity at zero injects nothing, and the harness
asserts the fault-free fleet matches the serial reference too — the
instrumentation itself must be invisible.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.exceptions import InvalidInstanceError
from repro.service.queue import JobQueue, job_id_for
from repro.service.supervisor import Supervisor, SupervisorConfig
from repro.utils.backoff import BackoffPolicy

__all__ = [
    "ChaosHooks",
    "ChaosJournal",
    "ChaosPlan",
    "ChaosReport",
    "JumpyClock",
    "SupervisorKilled",
    "normalize_chaos_spec",
    "run_chaos_harness",
    "tiny_job_specs",
]

#: The faults a plan may draw, with their default intensities (probability
#: per WAL sequence number that the fault triggers there).
_FAULT_RATES = ("torn_tail", "io_error", "kill", "lease_steal", "clock_jump")

_CHAOS_DEFAULTS: dict[str, Any] = {
    "supervisors": 3,
    "horizon": 512,  # seq numbers eligible for fault draws
    "max_events": 64,  # total injected events, across all faults
    "torn_tail": 0.0,
    "io_error": 0.0,
    "kill": 0.0,
    "lease_steal": 0.0,
    "clock_jump": 0.0,
    "clock_jump_scale": 3600.0,  # seconds; jumps are uniform in ±scale
}


class SupervisorKilled(BaseException):
    """An injected whole-supervisor death (kill -9 analogue).

    Deliberately a ``BaseException``: production recovery code catches
    ``Exception``, and a real SIGKILL is not catchable at all — the only
    legitimate handler is the harness's restart loop.
    """


def normalize_chaos_spec(spec: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Validate a chaos spec and fill defaults (unknown keys rejected)."""
    merged = dict(_CHAOS_DEFAULTS)
    for key, value in dict(spec or {}).items():
        if key not in merged:
            raise InvalidInstanceError(
                f"unknown chaos spec key {key!r}; allowed: {sorted(merged)}"
            )
        merged[key] = value
    merged["supervisors"] = int(merged["supervisors"])
    if merged["supervisors"] < 1:
        raise InvalidInstanceError("chaos needs at least one supervisor")
    merged["horizon"] = max(1, int(merged["horizon"]))
    merged["max_events"] = max(0, int(merged["max_events"]))
    merged["clock_jump_scale"] = float(merged["clock_jump_scale"])
    for name in _FAULT_RATES:
        rate = float(merged[name])
        if not 0.0 <= rate <= 1.0:
            raise InvalidInstanceError(f"{name} must be in [0, 1], got {rate}")
        merged[name] = rate
    return merged


class ChaosPlan:
    """A pure, seeded schedule of faults keyed by WAL sequence number.

    The plan is computed once, up front, from ``(spec, seed)`` — injection
    never consults randomness at run time, so the same seed against the
    same workload replays the same schedule.  ``actions[seq]`` lists the
    faults armed at that sequence number; each fires at most once (a
    failed append does not advance ``seq``, so without that guard a single
    ``io_error`` would re-fire forever and livelock the queue).
    """

    def __init__(self, spec: Mapping[str, Any] | None = None, seed: int = 0) -> None:
        self.spec = normalize_chaos_spec(spec)
        self.seed = int(seed)
        self.actions: dict[int, list[dict[str, Any]]] = {}
        rng = random.Random(f"chaos:{self.seed}")
        budget = self.spec["max_events"]
        scale = self.spec["clock_jump_scale"]
        for seq in range(1, self.spec["horizon"] + 1):
            if budget <= 0:
                break
            for fault in _FAULT_RATES:
                # One draw per (seq, fault), always consumed — the schedule
                # at seq N never depends on which faults fired before it.
                draw = rng.random()
                jump = rng.uniform(-scale, scale)
                if budget <= 0 or draw >= self.spec[fault]:
                    continue
                action: dict[str, Any] = {"fault": fault, "seq": seq}
                if fault == "clock_jump":
                    action["delta"] = jump
                self.actions.setdefault(seq, []).append(action)
                budget -= 1

    @property
    def zero_intensity(self) -> bool:
        return not self.actions

    def events(self) -> list[dict[str, Any]]:
        """Every armed action in sequence order (reporting aid)."""
        return [
            action for seq in sorted(self.actions) for action in self.actions[seq]
        ]


class JumpyClock:
    """A shared wall clock the plan can step (forwards or backwards).

    Only the *wall* clock jumps — exactly what NTP or an operator
    ``date -s`` does to a real host.  Monotonic time is never touched,
    which is the point: lease and backoff arithmetic must not notice.
    """

    def __init__(self) -> None:
        self._offset = 0.0
        self._lock = threading.Lock()

    def jump(self, delta: float) -> None:
        with self._lock:
            self._offset += float(delta)

    def __call__(self) -> float:
        with self._lock:
            return time.time() + self._offset


class ChaosJournal:
    """Thread-safe record of what actually happened during the run.

    ``acks`` collects every DONE entry observed at the append seam —
    across compactions, which truncate the log itself — so the
    no-conflicting-double-ack invariant can be checked even though the
    WAL's history is gone.  ``fired`` and ``restarts`` make the report
    explain itself.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acks: list[dict[str, Any]] = []
        self.fired: list[dict[str, Any]] = []
        self.restarts: list[str] = []

    def record_ack(self, entry: Mapping[str, Any]) -> None:
        with self._lock:
            self.acks.append(
                {
                    "job": entry.get("job"),
                    "token": entry.get("token"),
                    "content_hash": entry.get("content_hash"),
                }
            )

    def record_fired(self, action: Mapping[str, Any], node: str) -> None:
        with self._lock:
            self.fired.append({**action, "node": node})

    def record_restart(self, node: str) -> None:
        with self._lock:
            self.restarts.append(node)


class ChaosHooks:
    """One node's WAL hooks, dispatching the shared plan's armed faults.

    All nodes share one ``fired`` set (guarded by ``lock``): a fault armed
    at seq N fires on whichever node's append reaches N first, once.
    """

    def __init__(
        self,
        plan: ChaosPlan,
        node: str,
        journal: ChaosJournal,
        fired: set[tuple[int, str]],
        lock: threading.Lock,
        clock: JumpyClock,
    ) -> None:
        self.plan = plan
        self.node = node
        self.journal = journal
        self.fired = fired
        self.lock = lock
        self.clock = clock
        self._steals = sorted(
            (
                action
                for actions in plan.actions.values()
                for action in actions
                if action["fault"] == "lease_steal"
            ),
            key=lambda action: action["seq"],
        )

    def _claim(self, seq: int, *, phase: str) -> Iterator[dict[str, Any]]:
        # torn_tail fires after the append (the line must exist to tear
        # behind); everything else fires before it.  lease_steal is not
        # seq-exact — see :meth:`_claim_steal`.
        wanted = ("torn_tail",) if phase == "after" else (
            "clock_jump", "io_error", "kill"
        )
        for action in self.plan.actions.get(seq, ()):
            if action["fault"] not in wanted:
                continue
            key = (seq, action["fault"])
            with self.lock:
                if key in self.fired:
                    continue
                self.fired.add(key)
            self.journal.record_fired(action, self.node)
            yield action

    def _claim_steal(self, seq: int) -> dict[str, Any] | None:
        """Claim the earliest armed-but-unfired lease steal at or below
        ``seq``.  Steals target LEASED/HEARTBEAT entries, which are sparse
        — exact-seq matching would make firing depend on interleaving
        luck, so a steal armed at seq N fires on the *first stealable
        append from N on* instead (at most one per append)."""
        for action in self._steals:
            if action["seq"] > seq:
                return None
            key = (action["seq"], "lease_steal")
            with self.lock:
                if key in self.fired:
                    continue
                self.fired.add(key)
            self.journal.record_fired(action, self.node)
            return action
        return None

    def before_append(self, entry: dict[str, Any]) -> None:
        seq = int(entry.get("seq", 0))
        if entry.get("event") in ("LEASED", "HEARTBEAT"):
            if self._claim_steal(seq) is not None:
                # Rewrite the lease expiry to the distant past *in the
                # entry itself* (it is serialized after this hook): the
                # fold applies it verbatim, the lease is immediately
                # expired, and a peer steals the job with a fresh token.
                entry["expires"] = 0.0
        for action in self._claim(seq, phase="before"):
            fault = action["fault"]
            if fault == "clock_jump":
                self.clock.jump(action["delta"])
            elif fault == "io_error":
                raise OSError(f"chaos: injected append failure at seq {seq}")
            elif fault == "kill":
                raise SupervisorKilled(f"chaos: {self.node} killed at seq {seq}")

    def after_append(self, entry: Mapping[str, Any], path: Path) -> None:
        if entry.get("event") == "DONE":
            self.journal.record_ack(entry)
        seq = int(entry.get("seq", 0))
        for _action in self._claim(seq, phase="after"):
            # Plant exactly what a crash mid-write leaves: a partial line,
            # no newline.  It sits beyond every handle's cursor (offsets
            # advance before this hook), readers must skip it and the next
            # append must repair it away.
            with path.open("ab") as handle:
                handle.write(b'{"event": "SUBMITTED", "job": "torn-fragm')


@dataclass
class ChaosReport:
    """What the harness ran and what it proved (or disproved)."""

    seed: int
    supervisors: int
    jobs: int
    fired: list[dict[str, Any]] = field(default_factory=list)
    restarts: int = 0
    violations: list[str] = field(default_factory=list)
    job_hashes: dict[str, str | None] = field(default_factory=dict)
    reference_hashes: dict[str, str | None] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "supervisors": self.supervisors,
            "jobs": self.jobs,
            "faults_fired": len(self.fired),
            "restarts": self.restarts,
            "ok": self.ok,
            "violations": self.violations,
        }


def tiny_job_specs(count: int = 3, seed: int = 11) -> list[dict[str, Any]]:
    """Small, fast campaign jobs with distinct ids (chaos workload)."""
    specs = []
    for index in range(max(1, int(count))):
        specs.append(
            {
                "kind": "campaign",
                "suite": {
                    "name": f"chaos-{index}",
                    "seed": seed + index,
                    "topologies": [
                        {"name": "g", "family": "grid", "rows": 3, "cols": 3}
                    ],
                    "regimes": [
                        {"name": "r", "capacity": 6.0, "num_requests": 8},
                        {"name": "hi", "capacity": 9.0, "num_requests": 8},
                    ],
                    "modes": [
                        {"name": "off", "kind": "offline", "bound": "none"},
                        {"name": "on", "kind": "online"},
                    ],
                },
            }
        )
    return specs


def _result_hash(supervisor: Supervisor, job_id: str) -> str | None:
    summary = supervisor.load_result(job_id)
    return None if summary is None else summary.get("content_hash")


def _serial_reference(
    root: Path, specs: list[Mapping[str, Any]]
) -> dict[str, str | None]:
    """Uninterrupted single-supervisor run: the bit-identity baseline."""
    queue = JobQueue(root, lease_seconds=60.0, max_attempts=3)
    for spec in specs:
        queue.submit(spec)
    supervisor = Supervisor(
        queue, config=SupervisorConfig(node="reference", workers=1)
    )
    supervisor.run_until_idle()
    return {
        job_id_for(spec): _result_hash(supervisor, job_id_for(spec))
        for spec in specs
    }


def run_chaos_harness(
    root: str | Path,
    specs: list[Mapping[str, Any]] | None = None,
    *,
    chaos: Mapping[str, Any] | None = None,
    seed: int = 0,
    lease_seconds: float = 0.75,
    max_attempts: int = 50,
    compact_every: int | None = 40,
    timeout: float = 120.0,
) -> ChaosReport:
    """Run a supervisor fleet under a seeded fault plan; verify invariants.

    ``root`` gets two sub-roots: ``reference`` (a serial, fault-free
    single-supervisor run of the same jobs) and ``fleet`` (N in-process
    supervisors sharing one queue root, each with its own queue handle —
    ``flock`` contends between file descriptors, so the cross-process
    protocol is exercised for real).  A :class:`SupervisorKilled` tears a
    node down mid-operation; the node "restarts" by building a fresh
    handle that must recover purely from disk.  After the fleet settles
    (or the deadline passes), a clean healer supervisor finishes any
    remaining work — the plan's fault budget is finite, so termination
    only needs the healer to outlive it.

    ``max_attempts`` is deliberately high: injected failures and lease
    steals burn attempts, and the chaos contract is that every job still
    lands DONE — the circuit breaker is for *deterministic* poison, which
    this workload has none of.
    """
    root = Path(root)
    specs = list(specs if specs is not None else tiny_job_specs())
    plan = ChaosPlan(chaos, seed)
    journal = ChaosJournal()
    fired: set[tuple[int, str]] = set()
    fired_lock = threading.Lock()
    clock = JumpyClock()
    supervisors = plan.spec["supervisors"]

    reference = _serial_reference(root / "reference", specs)

    fleet_root = root / "fleet"
    job_ids = [job_id_for(spec) for spec in specs]
    deadline = time.monotonic() + timeout
    done = threading.Event()

    def _make_queue(node: str, with_hooks: bool) -> JobQueue:
        queue = JobQueue(
            fleet_root,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            clock=clock,
            compact_every=compact_every,
        )
        if with_hooks:
            queue.wal.hooks = ChaosHooks(
                plan, node, journal, fired, fired_lock, clock
            )
        return queue

    def _make_supervisor(queue: JobQueue, node: str) -> Supervisor:
        return Supervisor(
            queue,
            config=SupervisorConfig(
                node=node,
                workers=1,
                poll_interval=0.01,
                backoff=BackoffPolicy(base=0.01, cap=0.05, jitter=0.5),
            ),
            clock=clock,
        )

    def _all_terminal(queue: JobQueue) -> bool:
        snapshot = queue.state_snapshot()
        return all(
            snapshot.get(job_id, {}).get("state") in ("DONE", "FAILED", "CANCELLED")
            for job_id in job_ids
        )

    # The submitter rides through the fault plan too — the first WAL seqs
    # belong to its SUBMITTED appends, and shielding them would leave any
    # faults armed there permanently unfired.  Submission is idempotent by
    # job id, so a lost-then-retried append is harmless.
    submitter = _make_queue("submitter", with_hooks=True)
    for spec in specs:
        while True:
            try:
                submitter.submit(spec, max_attempts=max_attempts)
                break
            except OSError:
                continue  # injected append failure; the entry never applied
            except SupervisorKilled:
                journal.record_restart("submitter")
                submitter = _make_queue("submitter", with_hooks=True)

    def _node_loop(index: int) -> None:
        node = f"node-{index}"
        while not done.is_set() and time.monotonic() < deadline:
            try:
                queue = _make_queue(node, with_hooks=True)
                supervisor = _make_supervisor(queue, node)
                while not done.is_set() and time.monotonic() < deadline:
                    finished = supervisor.run_until_idle()
                    if _all_terminal(queue):
                        done.set()
                        return
                    if not finished:
                        time.sleep(0.02)
            except SupervisorKilled:
                # The "process" died; loop around and restart from disk.
                journal.record_restart(node)
            except OSError:
                # An injected append failure outside any job (e.g. the
                # LEASED write itself): transient, same handle rebuild.
                journal.record_restart(node)

    threads = [
        threading.Thread(target=_node_loop, args=(index,), daemon=True)
        for index in range(supervisors)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()) + 1.0)
    done.set()

    # Healer: a clean supervisor (no hooks) drains whatever survived the
    # fault budget — abandoned leases need lease_seconds to expire first.
    healer_queue = _make_queue("healer", with_hooks=False)
    healer = _make_supervisor(healer_queue, "healer")
    heal_deadline = time.monotonic() + max(10.0, 5 * lease_seconds)
    while not _all_terminal(healer_queue) and time.monotonic() < heal_deadline:
        if not healer.run_until_idle():
            time.sleep(0.05)

    report = ChaosReport(
        seed=seed,
        supervisors=supervisors,
        jobs=len(specs),
        fired=list(journal.fired),
        restarts=len(journal.restarts),
        reference_hashes=reference,
    )
    _verify_invariants(healer, journal, job_ids, report)
    return report


def _verify_invariants(
    supervisor: Supervisor,
    journal: ChaosJournal,
    job_ids: list[str],
    report: ChaosReport,
) -> None:
    """Check the three service promises; append violations to the report."""
    snapshot = supervisor.queue.state_snapshot()
    for job_id in job_ids:
        state = snapshot.get(job_id, {}).get("state")
        if state != "DONE":
            report.violations.append(
                f"job {job_id} ended in {state!r}, not DONE — acked work was "
                "lost or retried into quarantine"
            )
    acked: dict[str, set[str]] = {}
    for ack in journal.acks:
        if ack["content_hash"] is not None:
            acked.setdefault(ack["job"], set()).add(ack["content_hash"])
    for job_id, hashes in sorted(acked.items()):
        if len(hashes) > 1:
            report.violations.append(
                f"job {job_id} was acknowledged DONE with conflicting content "
                f"hashes {sorted(hashes)}"
            )
    for job_id in job_ids:
        report.job_hashes[job_id] = _result_hash(supervisor, job_id)
        expected = report.reference_hashes.get(job_id)
        actual = report.job_hashes[job_id]
        if actual != expected:
            report.violations.append(
                f"job {job_id} result hash {actual!r} differs from the serial "
                f"reference {expected!r} — the fleet changed *what* was computed"
            )
