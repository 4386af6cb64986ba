"""The worker pool: lease jobs, run campaigns, commit, then acknowledge.

Each worker thread loops ``lease → execute → ack``.  Execution funnels
every job — whole campaigns and single ``OnlineAuction``-stream cells
alike — through :func:`repro.scenarios.runner.run_campaign` into a
per-attempt :class:`~repro.scenarios.store.ResultStore` at
``results_root/<job_id>/attempt-<fence token>/``.  That layout plus the
queue's fencing tokens is what makes a *fleet* of supervisors safe:

* **Fenced writes** — every lease carries a fencing token; the attempt
  directory is suffixed by it, so a worker whose lease expired mid-run
  and a peer re-running the job never interleave writes in one store.
  The stale worker's final ``complete``/``report_failure`` presents its
  token and is rejected by the queue — it can commit bytes into its own
  dead-end directory, but it can never *acknowledge* over the peer.
* **Attempt adoption** — a new attempt first copies every committed
  record from prior attempts into its own store.  Records are pure
  functions of their cell specs, so adopted and recomputed records are
  bit-identical; adoption just skips the recompute, preserving the
  resume-after-crash economics.
* **Effectively exactly once** — the result summary is written durably,
  once, to the attempt's own ``result.json`` *before* the DONE event is
  appended (commit-then-ack).  A crash between the two re-runs the job,
  but the next attempt adopts the committed cells and regenerates a
  bit-identical summary — the acknowledged result is the same bytes
  either way.  Readers find it through the job's fencing token, which for
  a DONE job names the acknowledged attempt, so a stale attempt's summary
  is never served.

Job-level robustness on top: a heartbeat thread keeps the lease alive (a
worker that loses it — or whose token went stale — abandons the run
mid-wave); failures are retried with capped exponential backoff and
deterministic per-job jitter (:class:`repro.utils.backoff.BackoffPolicy`);
``job_timeout`` bounds a job's wall clock, checked at wave boundaries;
the queue's circuit breaker trips a poison job to FAILED after
``max_attempts``, committing a durable failure record with the full
traceback.  Transient queue I/O errors (a full disk, an injected fsync
failure) are retried or degrade to an abandoned lease — never to a lost
acknowledgement.

Side-duties, both journaled in the WAL so restarts neither repeat nor
forget them: completion **webhooks** (at-least-once POST with capped
backoff retries; unconfirmed deliveries are re-sent by any supervisor's
maintenance sweep) and result **garbage collection** (DONE/FAILED stores
older than ``gc_ttl`` are deleted and recorded as GC — never pending or
leased jobs, never twice).

Graceful drain: :meth:`Supervisor.request_drain` stops leasing; in-flight
jobs finish and are acknowledged (every acknowledgement is already
fsync'd, so there is no separate "flush" step); worker threads then exit.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
import traceback as _traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.io import dumps_canonical, loads_strict
from repro.scenarios.runner import run_campaign
from repro.scenarios.specs import enumerate_cells
from repro.scenarios.store import ResultStore
from repro.service.queue import Job, JobQueue, LeaseLostError, UnknownJobError
from repro.utils.backoff import BackoffPolicy
from repro.utils.jsonl import write_durable

__all__ = [
    "JobAborted",
    "JobTimeoutError",
    "Supervisor",
    "SupervisorConfig",
]


class JobTimeoutError(Exception):
    """A job exceeded its ``job_timeout`` wall-clock budget."""


class JobAborted(Exception):
    """The run must stop without acking: lease lost, cancelled, or hard stop."""


@dataclass
class SupervisorConfig:
    """Tunables of the worker pool.

    ``jobs`` is the pmap fan-out *inside* each campaign (a job spec's own
    ``jobs`` knob wins); ``workers`` is the number of concurrent job-runner
    threads.  ``node`` names this supervisor in a fleet — worker ids are
    ``<node>/<worker>``, so ``GET /jobs/{id}`` shows *which* supervisor
    holds a lease (default: ``node-<pid>``).  ``wave_delay`` inserts a
    sleep before each campaign wave — timing-only pacing that never
    touches records; the signal tests and the CI smoke lane use it to
    widen the kill window.  ``webhook_attempts``/``webhook_timeout`` cap
    the completion-push retries; ``gc_ttl`` enables the periodic result
    garbage collection and ``maintenance_interval`` paces the idle sweep
    that runs GC and re-delivers unconfirmed webhooks.
    """

    jobs: int | None = None
    workers: int = 1
    node: str | None = None
    heartbeat_seconds: float | None = None  # default: lease_seconds / 3
    job_timeout: float | None = None
    cell_retries: int = 0
    cell_timeout: float | None = None
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.5, cap=30.0, jitter=0.5)
    )
    wave_delay: float = 0.0
    poll_interval: float = 0.2
    webhook_attempts: int = 3
    webhook_timeout: float = 5.0
    gc_ttl: float | None = None
    maintenance_interval: float = 30.0


class Supervisor:
    """Runs jobs from a :class:`~repro.service.queue.JobQueue` to completion."""

    def __init__(
        self,
        queue: JobQueue,
        results_root: str | Path | None = None,
        *,
        config: SupervisorConfig | None = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        post: Callable[[str, Mapping[str, Any]], None] | None = None,
    ) -> None:
        self.queue = queue
        self.results_root = Path(
            queue.root / "results" if results_root is None else results_root
        )
        self.config = config or SupervisorConfig()
        self.node = self.config.node or f"node-{os.getpid()}"
        self.clock = clock
        self.sleep = sleep
        self._post = post if post is not None else self._http_post
        self._draining = threading.Event()
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._maintenance_lock = threading.Lock()
        self._last_maintenance = float("-inf")

    # ------------------------------------------------------------------ #
    # Results layout
    # ------------------------------------------------------------------ #
    def store_for(self, job_id: str, token: int) -> ResultStore:
        """The store of the attempt holding fencing token ``token``."""
        return ResultStore(self.results_root / job_id / f"attempt-{int(token):06d}")

    def result_store(self, job: Job) -> ResultStore:
        """The store holding ``job``'s committed records: the attempt named
        by the job's current fencing token."""
        return self.store_for(job.id, job.fence)

    def load_result(self, job_id: str) -> dict[str, Any] | None:
        """The committed result summary, or ``None`` if not committed yet.

        Read from the attempt named by the job's fencing token: the one
        place both a DONE job's summary and a quarantined FAILED job's
        failure record are written, before the ack.
        """
        try:
            job = self.queue.get(job_id)
        except UnknownJobError:
            return None
        path = self.result_store(job).root / "result.json"
        return loads_strict(path.read_text()) if path.exists() else None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def request_drain(self) -> None:
        """Graceful shutdown: stop leasing, finish in-flight jobs, exit.

        Idempotent and thread/signal-safe (SIGTERM handlers call it).
        """
        self._draining.set()

    def stop(self) -> None:
        """Hard stop: abort in-flight jobs at their next wave boundary
        *without* acknowledging them — their leases expire and a later
        supervisor resumes them from their stores."""
        self._draining.set()
        self._stopping.set()

    def run_forever(self) -> None:
        """Run ``config.workers`` job-runner threads until drained."""
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(f"worker-{index}",), daemon=True
            )
            for index in range(max(1, int(self.config.workers)))
        ]
        for thread in self._threads:
            thread.start()
        for thread in self._threads:
            thread.join()

    def run_until_idle(self, worker: str = "worker-0") -> list[Job]:
        """Execute leasable jobs until none are eligible (test/CLI helper)."""
        done: list[Job] = []
        while True:
            job = self.run_one(worker)
            if job is None:
                return done
            done.append(job)

    def run_one(self, worker: str = "worker-0") -> Job | None:
        """Lease and execute one job; ``None`` when nothing is eligible."""
        if self._stopping.is_set():
            return None
        worker = f"{self.node}/{worker}"
        job = self.queue.lease(worker)
        if job is None:
            return None
        self._execute(job, worker)
        return job

    def _worker_loop(self, worker: str) -> None:
        worker = f"{self.node}/{worker}"
        while not self._stopping.is_set():
            if self._draining.is_set():
                # Drain: keep clearing already-queued work?  No — drain
                # means stop *leasing*; in-flight jobs (handled inside
                # _execute) finish, queued jobs wait for the next process.
                return
            try:
                job = self.queue.lease(worker)
            except OSError:
                # Transient queue I/O (full disk, injected fault): no lease
                # was durably issued, so just back off and retry.
                self.sleep(self.config.poll_interval)
                continue
            if job is None:
                self._idle_maintenance()
                self.sleep(self.config.poll_interval)
                continue
            self._execute(job, worker)

    # ------------------------------------------------------------------ #
    # One job
    # ------------------------------------------------------------------ #
    def _execute(self, job: Job, worker: str) -> None:
        config = self.config
        spec = job.spec
        suite: Mapping[str, Any] = spec["suite"]
        token = job.fence
        store = self.store_for(job.id, token)
        deadline = (
            self.clock() + config.job_timeout if config.job_timeout else None
        )
        abort = threading.Event()
        heartbeat_stop = threading.Event()
        heartbeat_every = config.heartbeat_seconds or self.queue.lease_seconds / 3.0

        def _heartbeat_loop() -> None:
            while not heartbeat_stop.wait(heartbeat_every):
                try:
                    self.queue.heartbeat(job.id, worker, token=token)
                except (LeaseLostError, UnknownJobError):
                    abort.set()
                    return
                except OSError:
                    continue  # transient; the lease may still be renewed next tick
                except BaseException:
                    # Anything else (including an injected supervisor
                    # death landing on this thread) degrades to an abort:
                    # stop renewing, let the lease expire, ack nothing.
                    abort.set()
                    return

        def _progress(message: str) -> None:
            # Called by run_campaign before each wave: the only safe points
            # to abort (committed waves stay committed, nothing is torn).
            if abort.is_set() or self._stopping.is_set():
                raise JobAborted(f"job {job.id} aborted: {message}")
            if deadline is not None and self.clock() > deadline:
                raise JobTimeoutError(
                    f"job {job.id} exceeded job_timeout={config.job_timeout:g}s"
                )
            if config.wave_delay > 0:
                self.sleep(config.wave_delay)

        heartbeat_thread = threading.Thread(target=_heartbeat_loop, daemon=True)
        heartbeat_thread.start()
        try:
            self._adopt_prior_attempts(job, store, suite)
            result = run_campaign(
                suite,
                store=store,
                jobs=spec.get("jobs", config.jobs),
                retries=spec.get("cell_retries", config.cell_retries),
                cell_timeout=spec.get("cell_timeout", config.cell_timeout),
                progress=_progress,
            )
            summary = self._summarize(job, result.suite, store)
            # Commit-then-ack: the summary lives in the fenced attempt dir
            # before DONE is appended.
            write_durable(store.root / "result.json", dumps_canonical(summary) + "\n")
            self._ack_complete(job, worker, token, summary)
            self._notify(job.id)
        except JobAborted:
            # Lease lost / cancelled / hard stop: ack nothing.  Whatever
            # was committed stays in the store for the next holder.
            pass
        except (LeaseLostError, UnknownJobError):
            pass
        except Exception as exc:
            self._handle_failure(job, worker, exc, token)
        finally:
            heartbeat_stop.set()
            heartbeat_thread.join()

    def _adopt_prior_attempts(
        self, job: Job, store: ResultStore, suite: Mapping[str, Any]
    ) -> int:
        """Copy committed records from earlier attempts into this one.

        Records are pure functions of their cell specs, so adoption is
        bit-identical to recomputation — it only skips the work.  Sources:
        every other ``attempt-*`` store under the job directory, in token
        order.
        """
        adopted = 0
        done: set[str] | None = None
        for path in sorted((self.results_root / job.id).glob("attempt-*")):
            prior = ResultStore(path)
            if path == store.root or not prior.exists():
                continue
            completed = prior.completed()
            if not completed:
                continue
            if done is None:
                store.initialize(suite)
                done = set(store.completed())
            for key, record in prior.records(completed).items():
                if key in done:
                    continue
                store.append(key, completed[key], record)
                done.add(key)
                adopted += 1
        return adopted

    def _ack_complete(
        self, job: Job, worker: str, token: int, summary: Mapping[str, Any]
    ) -> Job:
        """Acknowledge DONE, retrying transient I/O; give up by abandoning
        the lease (a peer will adopt the committed attempt), never by
        reporting a failure for work that actually succeeded."""
        last: OSError | None = None
        for _ in range(3):
            try:
                return self.queue.complete(
                    job.id,
                    worker,
                    token=token,
                    content_hash=summary.get("content_hash"),
                )
            except OSError as exc:
                last = exc
                self.sleep(0.05)
        raise JobAborted(
            f"job {job.id}: ack kept failing ({last}); leaving the lease to expire"
        )

    def _summarize(
        self, job: Job, suite: Mapping[str, Any], store: ResultStore
    ) -> dict[str, Any]:
        """The durable job result, derived *only* from the committed store.

        Every field is a pure function of the store contents and the suite
        spec — never of this process's path to completion — so an
        interrupted-and-resumed job commits byte-identical bytes to an
        uninterrupted one (the service's load-bearing guarantee).
        """
        keys = [cell.key for cell in enumerate_cells(suite)]
        records = store.records(keys)
        failed_cells = sorted(
            key for key, record in records.items() if record.get("failed")
        )
        return {
            "job": job.id,
            "suite": suite["name"],
            "cells": len(keys),
            "failed_cells": failed_cells,
            "claims_ok": all(
                record.get("claims_ok", True) for record in records.values()
            ),
            "content_hash": store.content_hash(keys),
        }

    def _handle_failure(
        self, job: Job, worker: str, exc: Exception, token: int
    ) -> None:
        """Record one failed attempt: backoff-requeue or trip the breaker."""
        error = f"{type(exc).__name__}: {exc}"
        error_type = getattr(exc, "error_type", type(exc).__name__)
        tb = getattr(exc, "traceback", None) or _traceback.format_exc()
        attempt = job.attempts + 1
        if attempt >= job.max_attempts:
            # Quarantine: commit the durable failure record *before* the
            # FAILED ack, mirroring the success path's commit-then-ack.
            quarantine = {
                "job": job.id,
                "suite": job.spec["suite"]["name"],
                "failed": True,
                "error": error,
                "error_type": error_type,
                "traceback": tb,
                "attempts": attempt,
            }
            try:
                write_durable(
                    self.store_for(job.id, token).root / "result.json",
                    dumps_canonical(quarantine) + "\n",
                )
            except OSError:
                pass
        try:
            reported = self.queue.report_failure(
                job.id,
                worker,
                error,
                error_type=error_type,
                traceback=tb,
                delay=self.config.backoff.delay(attempt, scope=job.id),
                token=token,
            )
        except (LeaseLostError, UnknownJobError):
            # Re-leased or cancelled while we were failing: nothing to record.
            return
        except OSError:
            # The failure event could not be journaled; the lease will
            # expire and count the attempt instead.
            return
        if reported.state == "FAILED":
            self._notify(job.id)

    # ------------------------------------------------------------------ #
    # Webhooks (at-least-once, WAL-journaled)
    # ------------------------------------------------------------------ #
    def _http_post(self, url: str, payload: Mapping[str, Any]) -> None:
        data = dumps_canonical(dict(payload)).encode()
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(
            request, timeout=self.config.webhook_timeout
        ) as response:
            if response.status >= 400:  # pragma: no cover - urlopen raises first
                raise RuntimeError(f"webhook returned HTTP {response.status}")

    def _notify(self, job_id: str) -> bool | None:
        """Push this job's completion webhook, if one is due."""
        try:
            job = self.queue.get(job_id)
        except UnknownJobError:
            return None
        return self._deliver_webhook(job)

    def pump_webhooks(self) -> int:
        """Re-deliver every unconfirmed completion push (restart recovery).

        The queue's WAL knows which terminal jobs have a webhook that was
        neither confirmed (WEBHOOK_SENT) nor given up on (WEBHOOK_FAILED);
        any supervisor on the root may deliver them.  At-least-once: a
        crash after the POST but before the journal line re-delivers.
        """
        delivered = 0
        for job in self.queue.webhook_pending():
            if self._deliver_webhook(job):
                delivered += 1
        return delivered

    def _deliver_webhook(self, job: Job) -> bool | None:
        url = job.spec.get("webhook_url")
        if (
            not url
            or job.state not in ("DONE", "FAILED")
            or job.webhook_delivered
            or job.webhook_failed is not None
        ):
            return None
        payload: dict[str, Any] = {
            "job": job.id,
            "state": job.state,
            "suite": job.spec["suite"]["name"],
            "attempts": job.attempts,
        }
        summary = self.load_result(job.id)
        if summary is not None:
            if "content_hash" in summary:
                payload["content_hash"] = summary["content_hash"]
            if summary.get("failed_cells"):
                payload["failed_cells"] = summary["failed_cells"]
            if summary.get("failed"):
                payload["error"] = summary.get("error")
        attempts_cap = max(1, int(self.config.webhook_attempts))
        last: Exception | None = None
        for attempt in range(1, attempts_cap + 1):
            try:
                self._post(url, payload)
            except Exception as exc:
                last = exc
                if attempt < attempts_cap:
                    self.sleep(
                        self.config.backoff.delay(attempt, scope=f"webhook:{job.id}")
                    )
                continue
            try:
                self.queue.record_webhook_sent(job.id)
            except OSError:
                pass  # unjournaled success → re-delivered later (at-least-once)
            return True
        try:
            self.queue.record_webhook_failed(
                job.id, f"{type(last).__name__}: {last}", attempts_cap
            )
        except OSError:
            pass
        return False

    # ------------------------------------------------------------------ #
    # Result garbage collection (TTL, WAL-journaled)
    # ------------------------------------------------------------------ #
    def collect_garbage(
        self, ttl: float | None = None, now: float | None = None
    ) -> list[str]:
        """Delete result stores of DONE/FAILED jobs older than ``ttl``.

        Delete-then-journal: a crash mid-delete leaves the job collectable
        (the next sweep finishes the removal); the GC record is appended
        only once the directory is gone, so a restarted service never
        re-deletes — and ``GET /jobs/{id}/result`` can answer 410 instead
        of 409 for a collected job.  Returns the collected job ids.
        """
        ttl = self.config.gc_ttl if ttl is None else ttl
        if ttl is None:
            return []
        collected: list[str] = []
        for job in self.queue.collectable(float(ttl), now):
            shutil.rmtree(self.results_root / job.id, ignore_errors=True)
            try:
                self.queue.record_gc(job.id)
            except (ValueError, UnknownJobError):
                continue  # resubmitted (or raced away) between scan and record
            collected.append(job.id)
        return collected

    def _idle_maintenance(self) -> None:
        """Periodic idle-time sweep: webhook re-delivery + result GC."""
        now = time.monotonic()
        with self._maintenance_lock:
            if now - self._last_maintenance < self.config.maintenance_interval:
                return
            self._last_maintenance = now
        try:
            self.pump_webhooks()
            if self.config.gc_ttl is not None:
                self.collect_garbage()
        except OSError:
            pass
