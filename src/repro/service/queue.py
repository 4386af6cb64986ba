"""A durable, lease-based job queue on top of the write-ahead log.

Every state transition is appended to the WAL *before* it is applied to
the in-memory table, and replaying the WAL applies the exact same fold —
so a fresh process reconstructs precisely the state a crashed one had
acknowledged ("SIGKILL + restart replays to the identical queue state").

Delivery semantics
------------------
* **Idempotent submission** — a job's id is the content hash of its
  normalized spec, so resubmitting the same work returns the existing job
  (whatever its state) instead of enqueueing a duplicate.  Only a FAILED
  or CANCELLED job is re-enqueued by a resubmit (attempts reset): retrying
  quarantined work must be an explicit, cheap operation.
* **At-least-once dispatch** — a worker holds a job via a *lease* that it
  must heartbeat; a worker that dies (or the whole supervisor with it)
  stops heartbeating, the lease expires, and the job is re-queued for the
  next lease.  Work is therefore never lost, only occasionally re-run —
  and re-runs are harmless because results are committed to the
  idempotent, resumable :class:`~repro.scenarios.store.ResultStore`
  *before* the DONE acknowledgement (effectively exactly once).
* **Fenced leases** — every lease carries a monotonically increasing
  fencing token (global across the root, persisted in the LEASED event).
  ``heartbeat``/``complete``/``report_failure`` require it and reject a
  stale token with :class:`LeaseLostError`: a worker whose lease expired
  and was re-leased to a peer can never acknowledge over the peer's run,
  no matter how the schedulers interleave.  Result directories are
  suffixed by token on the supervisor side, so two live attempts never
  interleave writes either.
* **Circuit breaker** — every failure or lease expiry increments the job's
  attempt count; at ``max_attempts`` the job trips to FAILED (quarantined
  with its error and full traceback, never silently dropped or retried
  forever).
* **Load shedding** — ``max_pending`` bounds the queued+running set;
  submissions beyond it raise :class:`QueueFullError`, which the HTTP
  front door maps to ``429 Retry-After``.

Multi-node safety
-----------------
Several supervisor processes may share one queue root.  Every public
method runs as a *transaction*: take an exclusive ``flock`` on
``queue.lock``, fold any WAL entries peers appended since our cursor
(by byte offset — or a full snapshot+log reload when the log was
compacted out from under us), do the work, release.  ``flock`` contends
between distinct file descriptors even within one process, so the same
protocol covers threads, processes, and the in-process multi-supervisor
chaos harness identically.

Clocks
------
Lease expiry and retry backoff are *durations*, so they are computed on
``time.monotonic`` (system-wide on Linux, shared across processes) —
a wall-clock step (NTP, DST, an operator ``date -s``) can neither revive
an expired lease nor expire a live one.  Wall-clock timestamps
(``time.time``) appear only in display fields and WAL ``at`` records.
A monotonic deadline read back after a *reboot* may be impossibly far in
the future (the monotonic epoch restarted); deadlines further away than
the configured duration are therefore treated as already expired at
evaluation time — the fold itself stores events verbatim, keeping replay
bit-identical.

WAL growth
----------
``compact_every`` (or an explicit :meth:`JobQueue.compact`) checkpoints
the folded state to a content-hashed snapshot and truncates the log to
its tail; see :mod:`repro.service.snapshot` for the crash-at-any-point
argument.  Replay = snapshot + tail.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.exceptions import InvalidInstanceError
from repro.io import dumps_canonical
from repro.service.snapshot import load_snapshot, write_snapshot
from repro.service.wal import WriteAheadLog
from repro.scenarios.specs import normalize_suite
from repro.scenarios.suites import get_suite
from repro.utils.jsonl import locked_file, write_durable

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "LeaseLostError",
    "QueueFullError",
    "UnknownJobError",
    "job_id_for",
    "normalize_job_spec",
]

#: Part of every job id; bumped when job semantics change incompatibly so
#: ids from older semantics never collide with new submissions.
JOB_SCHEMA_VERSION = 1

JOB_STATES = ("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED")
_TERMINAL = ("DONE", "FAILED", "CANCELLED")

#: Error string recorded when a lease expires (worker death presumed).
LEASE_EXPIRED_ERROR = "lease expired (worker stopped heartbeating)"

#: A stored retry ``not_before`` further in the future than this was
#: written before a monotonic-epoch reset (reboot); treat it as due.
_MAX_BACKOFF_HORIZON = 86_400.0


class QueueFullError(RuntimeError):
    """The bounded queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class UnknownJobError(KeyError):
    """No job with that id has ever been submitted."""


class LeaseLostError(RuntimeError):
    """The worker no longer holds the job (re-leased, cancelled, expired,
    or presenting a stale fencing token)."""


def normalize_job_spec(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a job spec and normalize it to canonical ``campaign`` form.

    Two kinds are accepted:

    * ``{"kind": "campaign", "suite": <builtin name | suite dict>, ...}``
      — run a whole scenario campaign.  A builtin suite *name* is resolved
      to its full spec here, so the job id hashes the actual work, not the
      label.
    * ``{"kind": "cell", "topology": {...}, "regime": {...}, "mode":
      {...}, "seed"?: int, ...}`` — one topology × regime × mode cell
      (e.g. a single ``OnlineAuction`` stream), wrapped as a single-cell
      campaign so every job flows through the same durable runner.

    Both accept the execution knobs ``jobs`` (pmap fan-out inside the
    campaign), ``cell_retries``, ``cell_timeout``, and ``webhook_url`` (a
    completion push target; delivery detail, excluded from the job id).
    Unknown keys are rejected — they are almost always typos that would
    otherwise silently change nothing.
    """
    if not isinstance(spec, Mapping):
        raise InvalidInstanceError("a job spec must be a dict")
    spec = dict(spec)
    kind = spec.pop("kind", "campaign")
    if kind == "cell":
        for section in ("topology", "regime", "mode"):
            if not isinstance(spec.get(section), Mapping):
                raise InvalidInstanceError(
                    f"a cell job needs a {section!r} dict; got {spec.get(section)!r}"
                )
        suite: Any = {
            "name": str(spec.pop("name", "cell")),
            "seed": spec.pop("seed", None),
            "topologies": [dict(spec.pop("topology"))],
            "regimes": [dict(spec.pop("regime"))],
            "modes": [dict(spec.pop("mode"))],
        }
    elif kind == "campaign":
        suite = spec.pop("suite", None)
        if isinstance(suite, str):
            try:
                suite = get_suite(suite)
            except KeyError as exc:
                raise InvalidInstanceError(str(exc)) from exc
        if not isinstance(suite, Mapping):
            raise InvalidInstanceError(
                "a campaign job needs a 'suite' (builtin name or suite dict); "
                f"got {suite!r}"
            )
    else:
        raise InvalidInstanceError(
            f"unknown job kind {kind!r}; known: 'campaign', 'cell'"
        )

    normalized: dict[str, Any] = {
        "kind": "campaign",
        "suite": normalize_suite(suite),
    }
    if spec.get("jobs") is not None:
        normalized["jobs"] = int(spec.pop("jobs"))
    else:
        spec.pop("jobs", None)
    if spec.get("cell_retries") is not None:
        normalized["cell_retries"] = max(0, int(spec.pop("cell_retries")))
    else:
        spec.pop("cell_retries", None)
    if spec.get("cell_timeout") is not None:
        timeout = float(spec.pop("cell_timeout"))
        if timeout <= 0:
            raise InvalidInstanceError(f"cell_timeout must be > 0, got {timeout}")
        normalized["cell_timeout"] = timeout
    else:
        spec.pop("cell_timeout", None)
    if spec.get("webhook_url") is not None:
        url = str(spec.pop("webhook_url"))
        if not url.startswith(("http://", "https://")):
            raise InvalidInstanceError(
                f"webhook_url must be an http(s) URL, got {url!r}"
            )
        normalized["webhook_url"] = url
    else:
        spec.pop("webhook_url", None)
    if spec:
        raise InvalidInstanceError(
            f"unknown job spec keys {sorted(spec)}; allowed: kind, suite, "
            "topology, regime, mode, name, seed, jobs, cell_retries, "
            "cell_timeout, webhook_url"
        )
    return normalized


def job_id_for(spec: Mapping[str, Any]) -> str:
    """The content-hashed id of a job spec (normalized first).

    Identical work → identical id, which is what makes submission
    idempotent: the id depends on the resolved suite contents and the
    execution knobs, never on submission time or order.  ``webhook_url``
    is a delivery detail, not work — it is excluded, so submitting the
    same suite with a different webhook maps to the same job.
    """
    normalized = {
        key: value
        for key, value in normalize_job_spec(spec).items()
        if key != "webhook_url"
    }
    payload = {"schema": JOB_SCHEMA_VERSION, "spec": normalized}
    return hashlib.sha256(dumps_canonical(payload).encode()).hexdigest()[:16]


@dataclass
class Job:
    """One job's current state (a pure fold of its WAL events)."""

    id: str
    spec: dict[str, Any]
    state: str = "QUEUED"
    seq: int = 0
    attempts: int = 0
    max_attempts: int = 3
    submitted_at: float = 0.0
    worker: str | None = None
    lease_expires_at: float | None = None
    not_before: float = 0.0
    finished_at: float | None = None
    error: str | None = None
    error_type: str | None = None
    traceback: str | None = None
    fence: int = 0
    webhook_delivered: bool = False
    webhook_failed: str | None = None
    collected: bool = False
    events: int = field(default=0, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def as_status(self, now: float | None = None) -> dict[str, Any]:
        """The JSON-safe status dict served by ``GET /jobs/{id}``.

        ``now`` is a *monotonic* reading (lease deadlines are monotonic);
        wall-clock fields (``submitted_at``, ``finished_at``) are absolute.
        """
        status: dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "suite": self.spec["suite"]["name"],
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "submitted_at": self.submitted_at,
        }
        if self.state == "RUNNING":
            status["worker"] = self.worker
            status["fence"] = self.fence
            status["lease_expires_at"] = self.lease_expires_at
            if now is not None and self.lease_expires_at is not None:
                status["lease_expired"] = now >= self.lease_expires_at
        if self.state == "QUEUED" and self.not_before > 0:
            status["not_before"] = self.not_before
        if self.finished_at is not None:
            status["finished_at"] = self.finished_at
        if self.error is not None:
            status["error"] = self.error
            status["error_type"] = self.error_type
        if self.traceback is not None:
            status["traceback"] = self.traceback
        url = self.spec.get("webhook_url")
        if url:
            status["webhook"] = {
                "url": url,
                "delivered": self.webhook_delivered,
                "failed": self.webhook_failed,
            }
        if self.collected:
            status["collected"] = True
        return status

    def snapshot(self) -> dict[str, Any]:
        """The replay-identity view: every field the WAL fold determines."""
        return {name: getattr(self, name) for name in _SNAPSHOT_FIELDS}


#: Everything a snapshot must persist to rebuild a :class:`Job` exactly:
#: every field (``state_snapshot`` equality across a compaction is a tested
#: property).
_JOB_STATE_FIELDS = tuple(f.name for f in dataclass_fields(Job))

#: The fields of :meth:`Job.snapshot`: all but the id (the snapshot's key)
#: and the event count, with the spec last.
_SNAPSHOT_FIELDS = tuple(
    name for name in _JOB_STATE_FIELDS if name not in ("id", "events", "spec")
) + ("spec",)


def _job_to_state(job: Job) -> dict[str, Any]:
    return {name: getattr(job, name) for name in _JOB_STATE_FIELDS}


def _job_from_state(payload: Mapping[str, Any]) -> Job:
    return Job(**{name: payload[name] for name in _JOB_STATE_FIELDS if name in payload})


class JobQueue:
    """The durable queue: WAL-backed state, fenced leases, breaker, bounds.

    All methods are thread- *and* process-safe: every public call is a
    transaction under an exclusive file lock that first folds any WAL
    entries appended by peer supervisors sharing the root.  Every mutation
    is WAL-append-then-apply, and a fresh handle replays snapshot + log
    through the identical ``_apply`` fold.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_pending: int | None = None,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        retry_after: float = 1.0,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
        compact_every: int | None = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if compact_every is not None and compact_every < 0:
            raise ValueError(f"compact_every must be >= 0, got {compact_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.root / "wal.jsonl")
        self.lock_path = self.root / "queue.lock"
        self.max_pending = max_pending
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.retry_after = float(retry_after)
        self.compact_every = int(compact_every) if compact_every else None
        self.clock = clock
        self.monotonic = monotonic
        self._lock = threading.RLock()
        self._txn_depth = 0
        self._jobs: dict[str, Job] = {}
        self._seq = 0  # last folded WAL sequence number
        self._fence = 0  # fencing-token high-water mark
        self._snap_seq = 0  # entries at or below this live in the snapshot
        self._tail_entries = 0  # log entries folded since the last snapshot
        self._offset = 0  # byte cursor into the log (complete lines only)
        self._wal_identity: tuple[int, int] | None = None
        self._loaded = False
        with self._txn():  # initial snapshot + log replay, under the lock
            pass

    # ------------------------------------------------------------------ #
    # Transactions: cross-process exclusion + tail-following refresh
    # ------------------------------------------------------------------ #
    @contextmanager
    def _txn(self) -> Iterator[None]:
        """Exclusive, refreshed access to the shared root (reentrant)."""
        with self._lock:
            if self._txn_depth > 0:
                self._txn_depth += 1
                try:
                    yield
                finally:
                    self._txn_depth -= 1
                return
            with locked_file(self.lock_path):
                self._refresh()
                self._txn_depth = 1
                try:
                    yield
                finally:
                    self._txn_depth = 0

    def _refresh(self) -> None:
        """Fold whatever peers appended (or compacted) since our cursor."""
        try:
            stat = os.stat(self.wal.path)
            identity: tuple[int, int] | None = (stat.st_ino, stat.st_dev)
            size = stat.st_size
        except FileNotFoundError:
            identity, size = None, 0
        if (
            not self._loaded
            or identity != self._wal_identity
            or size < self._offset
        ):
            # First load, a compaction (new inode / shrunk log), or a
            # torn-tail repair behind our cursor: rebuild from disk.
            self._reload(identity)
            return
        if size > self._offset:
            entries, self._offset = self.wal.replay_from(self._offset)
            for entry in entries:
                self._apply(entry)
                self._tail_entries += 1

    def _reload(self, identity: tuple[int, int] | None = None) -> None:
        self._jobs.clear()
        self._seq = 0
        self._fence = 0
        self._snap_seq = 0
        self._tail_entries = 0
        snapshot = load_snapshot(self.root)
        if snapshot is not None:
            for job_id, payload in snapshot["state"].items():
                self._jobs[job_id] = _job_from_state(payload)
            self._seq = int(snapshot["last_seq"])
            self._fence = int(snapshot["fence"])
            self._snap_seq = self._seq
        entries, self._offset = self.wal.replay_from(0)
        for entry in entries:
            seq = entry.get("seq")
            if seq is not None and int(seq) <= self._snap_seq:
                continue  # already folded into the snapshot (crash window)
            self._apply(entry)
            self._tail_entries += 1
        if identity is None:
            try:
                stat = os.stat(self.wal.path)
                identity = (stat.st_ino, stat.st_dev)
            except FileNotFoundError:
                identity = None
        self._wal_identity = identity
        self._loaded = True

    # ------------------------------------------------------------------ #
    # The fold: WAL event -> state transition (replay and live share it)
    # ------------------------------------------------------------------ #
    def _apply(self, entry: Mapping[str, Any]) -> Job | None:
        event, job_id = entry["event"], entry["job"]
        seq = entry.get("seq")
        self._seq = self._seq + 1 if seq is None else max(self._seq, int(seq))
        job = self._jobs.get(job_id)
        if event == "SUBMITTED":
            job = Job(
                id=job_id,
                spec=dict(entry["spec"]),
                state="QUEUED",
                seq=self._seq,
                max_attempts=int(entry.get("max_attempts", self.max_attempts)),
                submitted_at=float(entry.get("at", 0.0)),
            )
            self._jobs[job_id] = job
        elif job is None:
            # A non-SUBMITTED event for an unknown job can only appear in a
            # hand-damaged WAL; ignore it rather than refuse to start.
            return None
        elif event == "LEASED":
            token = entry.get("token")
            token = self._fence + 1 if token is None else int(token)
            job.state = "RUNNING"
            job.worker = str(entry.get("worker", ""))
            job.lease_expires_at = float(entry["expires"])
            job.fence = token
            self._fence = max(self._fence, token)
        elif event == "HEARTBEAT":
            if (
                job.state == "RUNNING"
                and job.worker == entry.get("worker")
                and entry.get("token") in (None, job.fence)
            ):
                job.lease_expires_at = float(entry["expires"])
        elif event == "RETRYING":
            job.state = "QUEUED"
            job.worker = None
            job.lease_expires_at = None
            job.attempts = int(entry["attempt"])
            job.not_before = float(entry.get("not_before", 0.0))
            job.error = entry.get("error")
            job.error_type = entry.get("error_type")
            job.traceback = entry.get("traceback")
        elif event == "DONE":
            job.state = "DONE"
            job.worker = None
            job.lease_expires_at = None
            job.finished_at = float(entry.get("at", 0.0))
            job.error = job.error_type = job.traceback = None
        elif event == "FAILED":
            job.state = "FAILED"
            job.worker = None
            job.lease_expires_at = None
            job.finished_at = float(entry.get("at", 0.0))
            job.attempts = int(entry.get("attempts", job.attempts))
            job.error = entry.get("error")
            job.error_type = entry.get("error_type")
            job.traceback = entry.get("traceback")
        elif event == "CANCELLED":
            job.state = "CANCELLED"
            job.worker = None
            job.lease_expires_at = None
            job.finished_at = float(entry.get("at", 0.0))
        elif event == "WEBHOOK_SENT":
            job.webhook_delivered = True
            job.webhook_failed = None
        elif event == "WEBHOOK_FAILED":
            job.webhook_failed = str(entry.get("error") or "delivery failed")
        elif event == "GC":
            job.collected = True
        job.events += 1
        return job

    def _log(self, event: str, job_id: str, **fields: Any) -> Job:
        """Durably record one event, then apply it (the only write path).

        Must run inside a transaction: the sequence number is assigned
        under the cross-process lock, so it is a total order over every
        supervisor sharing the root.
        """
        assert self._txn_depth > 0, "_log outside a transaction"
        entry = self.wal.append(event, job_id, seq=self._seq + 1, **fields)
        self._offset = self.wal.last_offset
        try:
            stat = os.stat(self.wal.path)
            self._wal_identity = (stat.st_ino, stat.st_dev)
        except FileNotFoundError:  # pragma: no cover - append just created it
            pass
        job = self._apply(entry)
        assert job is not None
        self._tail_entries += 1
        if self.compact_every and self._tail_entries >= self.compact_every:
            self._compact_locked()
        return job

    # ------------------------------------------------------------------ #
    # Snapshot compaction
    # ------------------------------------------------------------------ #
    def _compact_locked(self) -> None:
        state = {job_id: _job_to_state(job) for job_id, job in self._jobs.items()}
        write_snapshot(self.root, state, last_seq=self._seq, fence=self._fence)
        # Only after the snapshot is durable may the log history go: the
        # truncation is an atomic whole-file replace, so peers observe
        # either the old log (and skip seq <= last_seq after loading the
        # new snapshot) or the fresh empty one — never a partial cut.
        write_durable(self.wal.path, "")
        self.wal.last_offset = 0
        self._offset = 0
        self._snap_seq = self._seq
        self._tail_entries = 0
        stat = os.stat(self.wal.path)
        self._wal_identity = (stat.st_ino, stat.st_dev)

    def compact(self) -> dict[str, Any]:
        """Checkpoint the folded state and truncate the log to its tail.

        Returns ``{"jobs": ..., "last_seq": ...}`` for reporting.  Safe at
        any crash point and under concurrent peers (it runs as a
        transaction; peers detect the truncation and reload from the
        snapshot).
        """
        with self._txn():
            self._compact_locked()
            return {"jobs": len(self._jobs), "last_seq": self._seq}

    # ------------------------------------------------------------------ #
    # Clock helpers (monotonic durations; see module docstring)
    # ------------------------------------------------------------------ #
    def _lease_expired(self, job: Job, now: float) -> bool:
        deadline = job.lease_expires_at
        if deadline is None:
            return False
        # Past deadlines are expired; deadlines further out than one lease
        # were written before a monotonic-epoch reset (reboot) — expired.
        return now >= deadline or deadline - now > self.lease_seconds

    def _due(self, job: Job, now: float) -> bool:
        not_before = job.not_before
        return not_before <= now or not_before - now > _MAX_BACKOFF_HORIZON

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #
    def pending_count(self) -> int:
        with self._txn():
            return sum(
                1 for job in self._jobs.values() if job.state in ("QUEUED", "RUNNING")
            )

    def counts(self) -> dict[str, int]:
        with self._txn():
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def accepting(self) -> bool:
        """Whether a new (non-duplicate) submission would be admitted."""
        if self.max_pending is None:
            return True
        return self.pending_count() < self.max_pending

    def submit(
        self, spec: Mapping[str, Any], *, max_attempts: int | None = None
    ) -> tuple[Job, bool]:
        """Submit a job; returns ``(job, created)``.

        Idempotent: an identical spec maps to the existing QUEUED, RUNNING
        or DONE job (``created=False``) — a client retrying a submission
        it is unsure about can never duplicate work.  A FAILED or
        CANCELLED job is explicitly re-enqueued (attempts reset).  A full
        queue raises :class:`QueueFullError` (→ HTTP 429).
        """
        normalized = normalize_job_spec(spec)
        job_id = job_id_for(normalized)
        with self._txn():
            existing = self._jobs.get(job_id)
            if existing is not None and not existing.terminal:
                return existing, False
            if existing is not None and existing.state == "DONE":
                return existing, False
            if not self.accepting():
                raise QueueFullError(
                    f"queue is full ({self.pending_count()} pending, "
                    f"max_pending={self.max_pending})",
                    retry_after=self.retry_after,
                )
            job = self._log(
                "SUBMITTED",
                job_id,
                spec=normalized,
                max_attempts=int(
                    self.max_attempts if max_attempts is None else max_attempts
                ),
                at=self.clock(),
            )
            return job, True

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def expire_leases(self, now: float | None = None) -> list[Job]:
        """Re-queue every job whose lease has expired (missed heartbeats).

        ``now`` is monotonic.  Each expiry counts as one attempt — a
        poison job that keeps killing its worker trips the circuit breaker
        instead of cycling forever.  Returns the jobs whose state changed.
        """
        with self._txn():
            now = self.monotonic() if now is None else now
            changed: list[Job] = []
            for job in list(self._jobs.values()):
                if job.state != "RUNNING":
                    continue
                if not self._lease_expired(job, now):
                    continue
                attempt = job.attempts + 1
                if attempt >= job.max_attempts:
                    changed.append(
                        self._log(
                            "FAILED",
                            job.id,
                            error=LEASE_EXPIRED_ERROR,
                            error_type="LeaseExpired",
                            attempts=attempt,
                            at=self.clock(),
                        )
                    )
                else:
                    changed.append(
                        self._log(
                            "RETRYING",
                            job.id,
                            attempt=attempt,
                            error=LEASE_EXPIRED_ERROR,
                            error_type="LeaseExpired",
                            not_before=now,
                            at=self.clock(),
                        )
                    )
            return changed

    def lease(self, worker: str, now: float | None = None) -> Job | None:
        """Hand the oldest eligible QUEUED job to ``worker`` (or ``None``).

        The returned job carries a fresh fencing token in ``job.fence``;
        the worker must present it on every subsequent call.  Expired
        leases are reclaimed first, so a restarted (or peer) supervisor
        picks up the jobs a crashed one was running as soon as their
        leases run out.  FIFO by original submission order; a retrying job
        keeps its place but is held back until its backoff ``not_before``
        passes.  ``now`` is monotonic.
        """
        with self._txn():
            now = self.monotonic() if now is None else now
            self.expire_leases(now)
            eligible = [
                job
                for job in self._jobs.values()
                if job.state == "QUEUED" and self._due(job, now)
            ]
            if not eligible:
                return None
            job = min(eligible, key=lambda j: j.seq)
            return self._log(
                "LEASED",
                job.id,
                worker=worker,
                token=self._fence + 1,
                expires=now + self.lease_seconds,
                at=self.clock(),
            )

    def _held(self, job_id: str, worker: str, token: int) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        if job.state != "RUNNING" or job.worker != worker:
            raise LeaseLostError(
                f"job {job_id} is not held by {worker!r} "
                f"(state={job.state}, worker={job.worker!r})"
            )
        if job.fence != token:
            raise LeaseLostError(
                f"stale fencing token {token} for job {job_id} "
                f"(current token {job.fence}) — the lease was re-issued"
            )
        return job

    def heartbeat(
        self,
        job_id: str,
        worker: str,
        now: float | None = None,
        *,
        token: int,
    ) -> Job:
        """Extend the lease; raises :class:`LeaseLostError` if it is gone.

        A *late* heartbeat from the still-registered holder renews the
        lease (the job was not re-leased yet, so nothing was lost); once
        the job has been re-queued, re-leased (→ stale fencing token) or
        cancelled the worker learns it here and must abandon the run.
        ``now`` is monotonic.
        """
        with self._txn():
            now = self.monotonic() if now is None else now
            job = self._held(job_id, worker, token)
            return self._log(
                "HEARTBEAT",
                job_id,
                worker=worker,
                token=job.fence,
                expires=now + self.lease_seconds,
                at=self.clock(),
            )

    def complete(
        self,
        job_id: str,
        worker: str,
        *,
        token: int,
        content_hash: str | None = None,
    ) -> Job:
        """Acknowledge success.  The caller must have committed the result
        to its durable store *before* calling this — DONE only ever points
        at results that already exist on disk.  A stale fencing token is
        rejected: an expired-lease worker cannot acknowledge over the
        peer that now holds (or finished) the job.  ``content_hash`` is
        journaled for post-hoc auditing (no two DONE acknowledgements of
        one job may ever disagree on it)."""
        with self._txn():
            job = self._held(job_id, worker, token)
            fields: dict[str, Any] = {"at": self.clock(), "token": job.fence}
            if content_hash is not None:
                fields["content_hash"] = content_hash
            return self._log("DONE", job_id, **fields)

    def report_failure(
        self,
        job_id: str,
        worker: str,
        error: str,
        *,
        token: int,
        error_type: str = "JobError",
        traceback: str | None = None,
        delay: float = 0.0,
    ) -> Job:
        """Record a failed attempt: re-queue with backoff, or trip the
        breaker to FAILED once ``max_attempts`` is reached (quarantine —
        the error and full traceback are kept, never silently dropped)."""
        with self._txn():
            job = self._held(job_id, worker, token)
            attempt = job.attempts + 1
            if attempt >= job.max_attempts:
                return self._log(
                    "FAILED",
                    job_id,
                    error=error,
                    error_type=error_type,
                    traceback=traceback,
                    attempts=attempt,
                    at=self.clock(),
                )
            return self._log(
                "RETRYING",
                job_id,
                attempt=attempt,
                error=error,
                error_type=error_type,
                traceback=traceback,
                not_before=self.monotonic() + max(0.0, float(delay)),
                at=self.clock(),
            )

    def cancel(self, job_id: str) -> Job:
        """Cancel a QUEUED or RUNNING job (terminal states stay put).

        Cancelling a RUNNING job revokes the lease immediately; the
        worker discovers the loss at its next heartbeat and abandons the
        run (already-committed partial results remain in the job's store).
        """
        with self._txn():
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job.terminal:
                return job
            return self._log("CANCELLED", job_id, at=self.clock())

    # ------------------------------------------------------------------ #
    # Webhooks & garbage collection (journaled side effects)
    # ------------------------------------------------------------------ #
    def webhook_pending(self) -> list[Job]:
        """Terminal jobs whose completion push is still unconfirmed.

        The WAL journals delivery (WEBHOOK_SENT) and terminal give-up
        (WEBHOOK_FAILED); everything else is re-deliverable — that is the
        at-least-once restart contract.
        """
        with self._txn():
            return [
                job
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
                if job.state in ("DONE", "FAILED")
                and job.spec.get("webhook_url")
                and not job.webhook_delivered
                and job.webhook_failed is None
            ]

    def record_webhook_sent(self, job_id: str) -> Job:
        """Journal a confirmed completion push (idempotent)."""
        with self._txn():
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job.webhook_delivered:
                return job
            return self._log("WEBHOOK_SENT", job_id, at=self.clock())

    def record_webhook_failed(self, job_id: str, error: str, attempts: int) -> Job:
        """Journal webhook give-up after ``attempts`` capped retries."""
        with self._txn():
            if job_id not in self._jobs:
                raise UnknownJobError(job_id)
            return self._log(
                "WEBHOOK_FAILED",
                job_id,
                error=str(error),
                attempts=int(attempts),
                at=self.clock(),
            )

    def collectable(self, ttl: float, now: float | None = None) -> list[Job]:
        """DONE/FAILED jobs whose results are older than ``ttl`` seconds.

        Never QUEUED or RUNNING jobs, never CANCELLED ones (their partial
        stores may be adopted by a resubmit), never jobs already
        collected.  ``now`` is wall-clock, like ``finished_at``.
        """
        with self._txn():
            now = self.clock() if now is None else now
            return [
                job
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
                if job.state in ("DONE", "FAILED")
                and not job.collected
                and job.finished_at is not None
                and now - job.finished_at >= ttl
            ]

    def record_gc(self, job_id: str) -> Job:
        """Journal that a terminal job's result store was deleted.

        The record is what makes GC restart-safe: a replayed queue knows
        the store is gone, so it neither re-deletes nor reports a result.
        """
        with self._txn():
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job.collected:
                return job
            if job.state not in ("DONE", "FAILED"):
                raise ValueError(
                    f"refusing to GC job {job_id} in state {job.state}; only "
                    "DONE/FAILED results are collectable"
                )
            return self._log("GC", job_id, at=self.clock())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        with self._txn():
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            return job

    def jobs(self) -> list[Job]:
        """All known jobs in submission order."""
        with self._txn():
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def state_snapshot(self) -> dict[str, dict[str, Any]]:
        """Deterministic view of the entire queue (replay-identity tests:
        a reopened queue's snapshot equals the crashed one's)."""
        with self._txn():
            return {job_id: job.snapshot() for job_id, job in sorted(self._jobs.items())}
