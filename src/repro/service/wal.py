"""The service write-ahead log: every job lifecycle event, durably, in order.

One JSONL line per event::

    {"event": "SUBMITTED", "job": "<id>", "seq": 17, "at": 1723100000.0, ...}

Appends go through :func:`repro.utils.jsonl.append_line` — the same
torn-tail-repairing, fsync'd protocol the campaign result store uses (plus
a directory fsync when the append creates the file), so a kill -9 at any
byte offset leaves a log whose complete prefix is intact and whose torn
tail is truncated before the next append.  Every reader goes through
:meth:`WriteAheadLog.replay_from`, which takes only newline-terminated
lines, so no reader counts a tail that the next append will erase.
Replaying the log from a fresh process reconstructs the exact queue state
the crashed process had acknowledged; anything it had *not* acknowledged
was never promised.

The WAL records *facts*, not state: the queue derives state by folding the
event sequence (:meth:`repro.service.queue.JobQueue` owns the fold).  Two
additions support a multi-node fleet:

* Every entry carries a ``seq`` assigned by the queue under its
  cross-process lock — a total order over all supervisors sharing the
  root.  ``seq`` is what makes snapshot compaction safe (replay skips
  entries already folded into the snapshot) and what the chaos plan keys
  its injected faults on.
* ``hooks`` is an optional fault-injection seam: ``before_append`` runs
  after validation and may raise (a simulated ``fsync`` failure or
  ``ENOSPC`` loses the entry *before* any state changed, since the queue
  appends before it applies); ``after_append`` runs once the line is
  durable (the chaos harness records a journal and plants torn tails
  there).  Production code never sets hooks.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Iterator, Mapping, Protocol

from repro.io import dumps_canonical
from repro.utils.jsonl import append_line, read_complete_lines

__all__ = ["WAL_EVENTS", "WalHooks", "WriteAheadLog"]

#: The job lifecycle vocabulary.  SUBMITTED enters (or re-enters) a job,
#: LEASED hands it to a worker with a fencing token, HEARTBEAT extends the
#: lease, RETRYING returns it to the queue with an attempt count and a
#: not-before time, DONE/FAILED/CANCELLED are terminal (FAILED is the
#: tripped circuit breaker — the job is quarantined, never silently
#: dropped).  WEBHOOK_SENT / WEBHOOK_FAILED journal completion-push
#: delivery so a restart re-delivers unconfirmed notifications; GC records
#: that a terminal job's result store was collected, so a restart never
#: re-deletes (or resurrects) it.
WAL_EVENTS = (
    "SUBMITTED",
    "LEASED",
    "HEARTBEAT",
    "RETRYING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "WEBHOOK_SENT",
    "WEBHOOK_FAILED",
    "GC",
)


class WalHooks(Protocol):
    """Fault-injection seam (see :mod:`repro.service.chaos`)."""

    def before_append(self, entry: Mapping[str, Any]) -> None: ...

    def after_append(self, entry: Mapping[str, Any], path: Path) -> None: ...


class WriteAheadLog:
    """An append-only, fsync'd JSONL log of job lifecycle events.

    Thread-safe: the supervisor's worker threads and the HTTP handler
    threads append through one lock, so lines never interleave.  *Process*
    safety is the queue's job — it serializes appends across supervisors
    with a file lock and assigns each entry its ``seq`` there.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        #: Byte offset just past the last line this handle appended —
        #: read under the queue's cross-process lock to advance its
        #: tail-following cursor past its own write without re-scanning.
        self.last_offset = 0
        #: Optional fault-injection hooks (chaos harness only).
        self.hooks: WalHooks | None = None
        # No open-time repair: with several supervisors on one root, an
        # unlocked truncation could race a peer's in-flight append and cut
        # an acknowledged line.  Readers skip torn tails; every *append*
        # repairs first — and appends only run under the queue's file lock.

    def append(self, event: str, job_id: str, **fields: Any) -> dict:
        """Durably append one event line and return it as written.

        The write is acknowledged only after fsync: an event the caller
        acts on (a lease handed out, a result acknowledged) is already on
        disk when the call returns.
        """
        if event not in WAL_EVENTS:
            raise ValueError(f"unknown WAL event {event!r}; known: {WAL_EVENTS}")
        if not job_id:
            raise ValueError("job_id must be non-empty")
        entry: dict[str, Any] = {"event": event, "job": job_id, **fields}
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.hooks is not None:
                # May raise (simulated fsync failure / supervisor death →
                # the entry is lost before any state changed) or mutate the
                # entry in place (a lease-steal rewrites its expiry), so
                # serialization happens after the hook.
                self.hooks.before_append(entry)
            append_line(self.path, dumps_canonical(entry))
            self.last_offset = self.path.stat().st_size
            if self.hooks is not None:
                self.hooks.after_append(entry, self.path)
        return entry

    def replay(self) -> Iterator[dict]:
        """Yield the valid event lines in append order.

        Lines that are torn (crash mid-write, even when the fragment
        parses) or missing the event/job fields are skipped — they were
        never acknowledged, so no state can depend on them.
        """
        yield from self.replay_from(0)[0]

    def replay_from(self, offset: int) -> tuple[list[dict], int]:
        """Valid event lines from byte ``offset``, plus the next offset.

        Only complete lines are consumed (a torn or in-flight tail is left
        for the next read), so a queue handle can follow peers' appends by
        cursor instead of re-reading the whole log on every transaction.
        """
        entries, end = read_complete_lines(self.path, offset)
        return (
            [e for e in entries if e.get("event") in WAL_EVENTS and e.get("job")],
            end,
        )

    def __len__(self) -> int:
        return len(self.replay_from(0)[0])

    def events_for(self, job_id: str) -> list[dict]:
        """All acknowledged events of one job, in order (debugging aid)."""
        return [entry for entry in self.replay_from(0)[0] if entry["job"] == job_id]

