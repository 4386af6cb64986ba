"""Tests of the durable auction service core (``repro.service``).

Covers the WAL (append/replay, torn-tail repair), the job queue (idempotent
content-hashed submission, lease dispatch, heartbeats, lease expiry, the
circuit breaker, crash-replay identity) and the supervisor (zero-fault
bit-identity with a direct ``run_campaign``, abort + lease-expiry resume
with an identical final store hash, poison-job quarantine).  The HTTP layer
is tested separately in ``test_service_api.py`` and the subprocess signal
behaviour in ``test_service_signals.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import InvalidInstanceError
from repro.scenarios.runner import run_campaign
from repro.scenarios.specs import enumerate_cells
from repro.scenarios.store import ResultStore
from repro.service import (
    JobQueue,
    LeaseLostError,
    QueueFullError,
    Supervisor,
    SupervisorConfig,
    UnknownJobError,
    WriteAheadLog,
    job_id_for,
    normalize_job_spec,
)
from repro.service.queue import LEASE_EXPIRED_ERROR
from repro.utils.backoff import BackoffPolicy


def _suite(name="svc-tiny", **overrides):
    spec = {
        "name": name,
        "seed": 11,
        "topologies": [{"name": "g", "family": "grid", "rows": 3, "cols": 3}],
        "regimes": [{"name": "r", "capacity": 6.0, "num_requests": 8}],
        "modes": [{"name": "off", "kind": "offline", "bound": "none"}],
    }
    spec.update(overrides)
    return spec


def _multiwave_suite(name="svc-waves"):
    """12 cells -> at least two waves at both ``jobs=1`` (wave size 4) and
    ``jobs=4`` (wave size 8), so an abort at a wave boundary leaves
    genuinely partial progress behind."""
    return _suite(
        name,
        topologies=[
            {"name": "g", "family": "grid", "rows": 3, "cols": 3},
            {"name": "w", "family": "waxman", "num_vertices": 8},
        ],
        regimes=[
            {"name": "lo", "capacity": 4.0, "num_requests": 8},
            {"name": "mid", "capacity": 6.0, "num_requests": 8},
            {"name": "hi", "capacity": 9.0, "num_requests": 8},
        ],
        modes=[
            {"name": "off", "kind": "offline", "bound": "none"},
            {"name": "on", "kind": "online"},
        ],
    )


class FakeClock:
    def __init__(self, start=1_000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------- #
# WAL
# ---------------------------------------------------------------------- #
class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append("SUBMITTED", "j1", at=1.0, spec={"kind": "campaign"})
        wal.append("LEASED", "j1", worker="w0", expires=31.0)
        wal.append("DONE", "j1", at=5.0)
        events = list(WriteAheadLog(tmp_path / "wal.jsonl").replay())
        assert [e["event"] for e in events] == ["SUBMITTED", "LEASED", "DONE"]
        assert events[1]["worker"] == "w0"
        assert len(wal) == 3
        assert [e["event"] for e in wal.events_for("j1")] == [
            "SUBMITTED",
            "LEASED",
            "DONE",
        ]

    def test_parseable_line_without_newline_is_not_counted(self, tmp_path):
        """A crash can tear off only a line's newline, leaving a parseable
        fragment that the next append's repair erases: no reader may count
        it."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append("SUBMITTED", "j1", at=1.0)
        with path.open("a") as handle:
            handle.write('{"event":"LEASED","expires":2.0,"job":"j1","worker":"w0"}')
        assert [e["event"] for e in wal.replay()] == ["SUBMITTED"]
        assert len(wal) == 1
        assert [e["event"] for e in wal.events_for("j1")] == ["SUBMITTED"]
        assert [e["event"] for e in wal.replay_from(0)[0]] == ["SUBMITTED"]

    def test_unknown_event_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        with pytest.raises(ValueError, match="unknown WAL event"):
            wal.append("EXPLODED", "j1")
        with pytest.raises(ValueError, match="job_id"):
            wal.append("DONE", "")

    def test_torn_tail_repaired_on_open_and_append(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append("SUBMITTED", "j1", at=1.0)
        with path.open("a") as handle:
            handle.write('{"event": "DONE", "job": "j1", "at"')  # kill mid-write
        # The torn fragment is invisible to replay and truncated before the
        # next append, so the new line can never merge into it.
        reopened = WriteAheadLog(path)
        assert [e["event"] for e in reopened.replay()] == ["SUBMITTED"]
        reopened.append("LEASED", "j1", worker="w0", expires=2.0)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)


# ---------------------------------------------------------------------- #
# Job specs and ids
# ---------------------------------------------------------------------- #
class TestJobSpecs:
    def test_builtin_name_and_full_dict_share_an_id(self):
        from repro.scenarios.suites import get_suite

        by_name = job_id_for({"kind": "campaign", "suite": "smoke"})
        by_dict = job_id_for({"kind": "campaign", "suite": get_suite("smoke")})
        assert by_name == by_dict

    def test_id_depends_on_knobs_not_submission_order(self):
        base = {"kind": "campaign", "suite": _suite()}
        assert job_id_for(base) == job_id_for(dict(reversed(list(base.items()))))
        assert job_id_for(base) != job_id_for({**base, "jobs": 4})

    def test_cell_kind_wraps_a_single_cell_campaign(self):
        spec = normalize_job_spec(
            {
                "kind": "cell",
                "topology": {"name": "g", "family": "grid", "rows": 3, "cols": 3},
                "regime": {"name": "r", "capacity": 6.0, "num_requests": 8},
                "mode": {"name": "off", "kind": "offline", "bound": "none"},
                "seed": 11,
            }
        )
        assert spec["kind"] == "campaign"
        assert len(enumerate_cells(spec["suite"])) == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown job spec keys"):
            normalize_job_spec({"suite": _suite(), "retries": 3})
        with pytest.raises(InvalidInstanceError, match="unknown job kind"):
            normalize_job_spec({"kind": "batch", "suite": _suite()})
        with pytest.raises(InvalidInstanceError, match="suite"):
            normalize_job_spec({"kind": "campaign"})


# ---------------------------------------------------------------------- #
# Queue
# ---------------------------------------------------------------------- #
class TestJobQueue:
    def _queue(self, tmp_path, **kwargs):
        clock = kwargs.pop("clock", FakeClock())
        kwargs.setdefault("lease_seconds", 30.0)
        # One fake clock drives both time sources: the tests reason about
        # lease arithmetic (monotonic) and timestamps (wall) together.
        return (
            JobQueue(tmp_path / "svc", clock=clock, monotonic=clock, **kwargs),
            clock,
        )

    def test_submit_is_idempotent(self, tmp_path):
        queue, _ = self._queue(tmp_path)
        job, created = queue.submit({"suite": _suite()})
        again, created_again = queue.submit({"suite": _suite()})
        assert created and not created_again
        assert job.id == again.id
        assert queue.counts()["QUEUED"] == 1

    def test_bounded_queue_sheds_load(self, tmp_path):
        queue, _ = self._queue(tmp_path, max_pending=1, retry_after=7.0)
        queue.submit({"suite": _suite("a")})
        with pytest.raises(QueueFullError) as exc_info:
            queue.submit({"suite": _suite("b")})
        assert exc_info.value.retry_after == 7.0
        assert not queue.accepting()
        # Identical re-submission is still accepted: it maps to the
        # existing job instead of new work.
        _, created = queue.submit({"suite": _suite("a")})
        assert not created

    def test_lease_is_fifo_and_exclusive(self, tmp_path):
        queue, _ = self._queue(tmp_path)
        first, _ = queue.submit({"suite": _suite("a")})
        second, _ = queue.submit({"suite": _suite("b")})
        leased = queue.lease("w0")
        assert leased.id == first.id and leased.state == "RUNNING"
        assert queue.lease("w1").id == second.id
        assert queue.lease("w2") is None

    def test_heartbeat_extends_and_detects_loss(self, tmp_path):
        queue, clock = self._queue(tmp_path)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        clock.advance(20.0)
        extended = queue.heartbeat(job.id, "w0", token=token)
        assert extended.lease_expires_at == clock.now + 30.0
        with pytest.raises(LeaseLostError):
            queue.heartbeat(job.id, "w1", token=token)
        with pytest.raises(UnknownJobError):
            queue.heartbeat("nope", "w0", token=token)

    def test_expired_lease_requeues_and_counts_an_attempt(self, tmp_path):
        queue, clock = self._queue(tmp_path)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        clock.advance(31.0)
        requeued = queue.lease("w1")
        assert requeued.id == job.id
        assert requeued.attempts == 1
        # The original holder discovers the loss at its next heartbeat.
        clock.advance(1.0)
        with pytest.raises(LeaseLostError):
            queue.heartbeat(job.id, "w0", token=token)

    def test_circuit_breaker_quarantines_poison_jobs(self, tmp_path):
        queue, clock = self._queue(tmp_path, max_attempts=2)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        queue.report_failure(
            job.id, "w0", "boom", token=token, error_type="ValueError", delay=0.0
        )
        assert queue.get(job.id).state == "QUEUED"
        queue.lease("w0")
        clock.advance(31.0)  # second attempt dies silently: lease expires
        queue.expire_leases()
        failed = queue.get(job.id)
        assert failed.state == "FAILED"
        assert failed.attempts == 2
        assert failed.error == LEASE_EXPIRED_ERROR
        # Quarantined, not retried: nothing is leasable...
        assert queue.lease("w1") is None
        # ...until an explicit resubmit re-enqueues with attempts reset.
        resubmitted, created = queue.submit({"suite": _suite()})
        assert created and resubmitted.state == "QUEUED"
        assert resubmitted.attempts == 0

    def test_failure_traceback_survives_in_status(self, tmp_path):
        queue, _ = self._queue(tmp_path, max_attempts=1)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        queue.report_failure(
            job.id,
            "w0",
            "ValueError: boom",
            token=token,
            error_type="ValueError",
            traceback="Traceback (most recent call last):\n  ...\nValueError: boom\n",
        )
        status = queue.get(job.id).as_status()
        assert status["state"] == "FAILED"
        assert status["error_type"] == "ValueError"
        assert "Traceback" in status["traceback"]

    def test_cancel_revokes_the_lease(self, tmp_path):
        queue, _ = self._queue(tmp_path)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        queue.cancel(job.id)
        with pytest.raises(LeaseLostError):
            queue.complete(job.id, "w0", token=token)
        # Cancelling a terminal job is a no-op, not an error.
        assert queue.cancel(job.id).state == "CANCELLED"

    def test_retry_backoff_holds_the_job_back(self, tmp_path):
        queue, clock = self._queue(tmp_path)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        queue.report_failure(job.id, "w0", "boom", token=token, delay=10.0)
        assert queue.lease("w0") is None  # not_before still in the future
        clock.advance(10.0)
        assert queue.lease("w0").id == job.id

    def test_replay_reconstructs_the_exact_state(self, tmp_path):
        """The load-bearing WAL property: a fresh process folds the log to
        precisely the state the previous one had acknowledged."""
        queue, clock = self._queue(tmp_path, max_attempts=3)
        queue.submit({"suite": _suite("a")})
        done, _ = queue.submit({"suite": _suite("b")})
        flaky, _ = queue.submit({"suite": _suite("c")})
        queue.lease("w0")  # a -> RUNNING
        done_token = queue.lease("w1").fence  # b -> RUNNING
        queue.heartbeat(done.id, "w1", token=done_token)
        queue.complete(done.id, "w1", token=done_token)
        flaky_token = queue.lease("w2").fence  # c -> RUNNING
        queue.report_failure(
            flaky.id, "w2", "boom", token=flaky_token, error_type="ValueError",
            delay=5.0,
        )
        expected = queue.state_snapshot()

        for _ in range(2):  # replay is deterministic, not just correct once
            reopened = JobQueue(tmp_path / "svc", clock=clock, monotonic=clock)
            assert reopened.state_snapshot() == expected

    def test_replay_survives_a_torn_tail(self, tmp_path):
        queue, clock = self._queue(tmp_path)
        job, _ = queue.submit({"suite": _suite()})
        queue.lease("w0")
        expected = queue.state_snapshot()
        with (tmp_path / "svc" / "wal.jsonl").open("a") as handle:
            handle.write('{"event": "DONE", "job": "' + job.id + '"')  # torn
        reopened = JobQueue(tmp_path / "svc", clock=clock, monotonic=clock)
        assert reopened.state_snapshot() == expected
        assert reopened.get(job.id).state == "RUNNING"


# ---------------------------------------------------------------------- #
# Supervisor
# ---------------------------------------------------------------------- #
class TestSupervisor:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_service_run_is_bit_identical_to_direct_run(self, tmp_path, jobs):
        suite = _multiwave_suite()
        queue = JobQueue(tmp_path / "svc", lease_seconds=60.0)
        supervisor = Supervisor(
            queue, config=SupervisorConfig(backoff=BackoffPolicy())
        )
        job, _ = queue.submit({"suite": suite, "jobs": jobs})
        finished = supervisor.run_until_idle()
        assert [j.id for j in finished] == [job.id]
        assert queue.get(job.id).state == "DONE"
        summary = supervisor.load_result(job.id)

        reference = ResultStore(tmp_path / "ref")
        result = run_campaign(suite, store=reference, jobs=jobs)
        keys = [cell.key for cell in enumerate_cells(result.suite)]
        assert summary["content_hash"] == reference.content_hash(keys)
        assert summary["cells"] == len(keys)
        assert summary["failed_cells"] == []
        assert summary["claims_ok"] is True

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_abort_expire_resume_matches_uninterrupted_hash(self, tmp_path, jobs):
        """The acceptance scenario, in-process: a supervisor is stopped hard
        mid-campaign (no ack — exactly what kill -9 leaves behind), the
        lease expires, a fresh supervisor resumes from the per-job store,
        and the final content hash is bit-identical to an uninterrupted
        run."""
        suite = _multiwave_suite()
        clock = FakeClock()
        queue = JobQueue(
            tmp_path / "svc", lease_seconds=30.0, clock=clock, monotonic=clock
        )
        job, _ = queue.submit({"suite": suite, "jobs": jobs})

        def stop_after_first_wave(seconds):
            # Fires during wave 1's pacing sleep: wave 1 still commits, and
            # the wave-2 boundary check then aborts the run without an ack.
            crashing.stop()

        crashing = Supervisor(
            queue,
            config=SupervisorConfig(wave_delay=1e-6, backoff=BackoffPolicy()),
            sleep=stop_after_first_wave,
        )
        crashing.run_until_idle()  # aborted mid-campaign: nothing acked
        interrupted = queue.get(job.id)
        assert interrupted.state == "RUNNING"  # the lease is still out
        assert crashing.load_result(job.id) is None
        partial = crashing.store_for(job.id, interrupted.fence).completed()
        assert partial, "the abort must land after at least one committed wave"

        clock.advance(31.0)  # the dead worker's lease expires
        fresh = Supervisor(queue, config=SupervisorConfig(backoff=BackoffPolicy()))
        finished = fresh.run_until_idle("worker-restarted")
        assert [j.id for j in finished] == [job.id]
        resumed = queue.get(job.id)
        assert resumed.state == "DONE"
        assert resumed.attempts == 1  # the expiry was counted

        reference = ResultStore(tmp_path / "ref")
        result = run_campaign(suite, store=reference, jobs=jobs)
        keys = [cell.key for cell in enumerate_cells(result.suite)]
        summary = fresh.load_result(job.id)
        assert summary["content_hash"] == reference.content_hash(keys)

    def test_poison_job_trips_the_breaker_with_a_durable_record(self, tmp_path):
        queue = JobQueue(tmp_path / "svc", lease_seconds=60.0, max_attempts=2)
        supervisor = Supervisor(
            queue,
            config=SupervisorConfig(
                job_timeout=1e-9,  # every attempt times out at the first wave
                backoff=BackoffPolicy(),
            ),
        )
        job, _ = queue.submit({"suite": _suite()})
        supervisor.run_until_idle()
        failed = queue.get(job.id)
        assert failed.state == "FAILED"
        assert failed.attempts == 2
        assert failed.error_type == "JobTimeoutError"
        assert "JobTimeoutError" in failed.traceback
        record = supervisor.load_result(job.id)
        assert record["failed"] is True
        assert record["attempts"] == 2
        assert "JobTimeoutError" in record["traceback"]

    def test_drain_stops_leasing_but_not_inflight_work(self, tmp_path):
        queue = JobQueue(tmp_path / "svc", lease_seconds=60.0)
        supervisor = Supervisor(
            queue, config=SupervisorConfig(backoff=BackoffPolicy())
        )
        first, _ = queue.submit({"suite": _suite("a")})
        second, _ = queue.submit({"suite": _suite("b")})
        supervisor.run_one()  # lease + finish the first job...
        supervisor.request_drain()
        supervisor.run_forever()  # ...then the workers refuse new leases
        assert queue.get(first.id).state == "DONE"
        assert queue.get(second.id).state == "QUEUED"

    @pytest.mark.slow
    def test_demo_campaign_service_run_matches_direct(self, tmp_path):
        """ISSUE-8 acceptance: the pinned demo suite through the service is
        bit-identical to a direct ``run_campaign``."""
        queue = JobQueue(tmp_path / "svc", lease_seconds=120.0)
        supervisor = Supervisor(
            queue, config=SupervisorConfig(backoff=BackoffPolicy())
        )
        job, _ = queue.submit({"kind": "campaign", "suite": "demo", "jobs": 2})
        supervisor.run_until_idle()
        assert queue.get(job.id).state == "DONE"

        from repro.scenarios.suites import get_suite

        reference = ResultStore(tmp_path / "ref")
        result = run_campaign(get_suite("demo"), store=reference, jobs=2)
        keys = [cell.key for cell in enumerate_cells(result.suite)]
        summary = supervisor.load_result(job.id)
        assert summary["content_hash"] == reference.content_hash(keys)


# ---------------------------------------------------------------------- #
# Fenced leases
# ---------------------------------------------------------------------- #
class TestFencing:
    def _queue(self, tmp_path, **kwargs):
        clock = kwargs.pop("clock", FakeClock())
        kwargs.setdefault("lease_seconds", 30.0)
        return (
            JobQueue(tmp_path / "svc", clock=clock, monotonic=clock, **kwargs),
            clock,
        )

    def test_tokens_increase_monotonically_across_leases(self, tmp_path):
        queue, clock = self._queue(tmp_path, max_attempts=10)
        a, _ = queue.submit({"suite": _suite("a")})
        b, _ = queue.submit({"suite": _suite("b")})
        first_token = queue.lease("w0").fence
        second_token = queue.lease("w1").fence
        assert (first_token, second_token) == (1, 2)
        clock.advance(31.0)  # both leases expire; re-leases get new tokens
        assert {queue.lease("w2").fence, queue.lease("w3").fence} == {3, 4}

    def test_stale_token_cannot_ack_over_the_thief(self, tmp_path):
        """The fencing contract: once a job is re-leased, every call holding
        the old token is rejected — complete, fail, and heartbeat alike."""
        queue, clock = self._queue(tmp_path, max_attempts=10)
        job, _ = queue.submit({"suite": _suite()})
        # The queue hands out live Job objects; copy the token value now.
        stale_token = queue.lease("w0").fence
        clock.advance(31.0)
        thief_token = queue.lease("w1").fence
        assert thief_token == stale_token + 1
        with pytest.raises(LeaseLostError, match="not held"):
            queue.complete(job.id, "w0", token=stale_token)
        # Same worker name re-leasing does not resurrect the old token.
        clock.advance(31.0)
        again_token = queue.lease("w0").fence
        assert again_token == thief_token + 1
        with pytest.raises(LeaseLostError, match="stale fencing token"):
            queue.complete(job.id, "w0", token=stale_token)
        with pytest.raises(LeaseLostError, match="stale fencing token"):
            queue.heartbeat(job.id, "w0", token=stale_token)
        with pytest.raises(LeaseLostError, match="stale fencing token"):
            queue.report_failure(job.id, "w0", "late", token=stale_token)
        # No call skips the check by leaving the token out.
        for call in (queue.complete, queue.heartbeat):
            with pytest.raises(TypeError):
                call(job.id, "w0")
        with pytest.raises(TypeError):
            queue.report_failure(job.id, "w0", "late")
        # The current holder's token still works.
        assert queue.complete(job.id, "w0", token=again_token).state == "DONE"

    def test_fence_counter_survives_replay(self, tmp_path):
        queue, clock = self._queue(tmp_path, max_attempts=10)
        job, _ = queue.submit({"suite": _suite()})
        queue.lease("w0")
        clock.advance(31.0)
        queue.lease("w1")
        reopened = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        clock.advance(31.0)
        assert reopened.lease("w2").fence == 3

    def test_done_journals_the_content_hash(self, tmp_path):
        queue, _ = self._queue(tmp_path)
        job, _ = queue.submit({"suite": _suite()})
        leased = queue.lease("w0")
        queue.complete(job.id, "w0", token=leased.fence, content_hash="abc123")
        done_events = [
            e for e in queue.wal.events_for(job.id) if e["event"] == "DONE"
        ]
        assert done_events[0]["content_hash"] == "abc123"
        assert done_events[0]["token"] == leased.fence


# ---------------------------------------------------------------------- #
# Monotonic lease timing (wall-clock jumps must be invisible)
# ---------------------------------------------------------------------- #
class TestClockJumps:
    def _queue(self, tmp_path, **kwargs):
        wall, mono = FakeClock(1_000_000.0), FakeClock(50.0)
        kwargs.setdefault("lease_seconds", 30.0)
        queue = JobQueue(
            tmp_path / "svc", clock=wall, monotonic=mono, **kwargs
        )
        return queue, wall, mono

    def test_backwards_wall_jump_cannot_revive_an_expired_lease(self, tmp_path):
        """Regression for wall-clock lease timing: leases expire on monotonic
        time, so stepping the wall clock back hours changes nothing."""
        queue, wall, mono = self._queue(tmp_path, max_attempts=10)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        wall.advance(-36_000.0)  # operator steps the wall clock back 10h
        mono.advance(31.0)  # ...but 31 real seconds pass
        stolen = queue.lease("w1")
        assert stolen is not None and stolen.id == job.id
        with pytest.raises(LeaseLostError):
            queue.heartbeat(job.id, "w0", token=token)

    def test_forward_wall_jump_cannot_expire_a_live_lease(self, tmp_path):
        queue, wall, mono = self._queue(tmp_path)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        wall.advance(36_000.0)  # NTP steps the wall clock forward 10h
        mono.advance(1.0)  # ...one real second later
        assert queue.lease("w1") is None  # the lease is still live
        assert queue.heartbeat(job.id, "w0", token=token).state == "RUNNING"

    def test_backwards_wall_jump_cannot_extend_retry_backoff(self, tmp_path):
        queue, wall, mono = self._queue(tmp_path, max_attempts=10)
        job, _ = queue.submit({"suite": _suite()})
        token = queue.lease("w0").fence
        queue.report_failure(job.id, "w0", "boom", token=token, delay=5.0)
        wall.advance(-36_000.0)
        assert queue.lease("w1") is None  # backoff holds (5 mono seconds)
        mono.advance(5.0)
        assert queue.lease("w1").id == job.id  # and releases on schedule

    def test_reboot_epoch_reset_treats_far_deadlines_as_expired(self, tmp_path):
        """After a reboot the monotonic epoch restarts near zero; persisted
        deadlines may be absurdly far in the future.  They must read as
        expired, not as unexpirable leases pinning jobs forever."""
        queue, wall, mono = self._queue(tmp_path, max_attempts=10)
        job, _ = queue.submit({"suite": _suite()})
        queue.lease("w0")  # deadline = 50 + 30 = 80 on the old epoch
        mono.now = 3.0  # "reboot": the epoch restarted
        stolen = queue.lease("w1")  # 80 - 3 = 77 > lease_seconds -> expired
        assert stolen is not None and stolen.id == job.id


# ---------------------------------------------------------------------- #
# Completion webhooks (at-least-once, WAL-journaled)
# ---------------------------------------------------------------------- #
class TestWebhooks:
    def _served(self, tmp_path, post, **config_kwargs):
        queue = JobQueue(tmp_path / "svc", lease_seconds=60.0)
        config = SupervisorConfig(
            backoff=BackoffPolicy(base=0.0, cap=0.0), **config_kwargs
        )
        return queue, Supervisor(queue, config=config, post=post, sleep=lambda s: None)

    def test_webhook_url_is_delivery_detail_not_work(self):
        with_hook = {"suite": _suite(), "webhook_url": "http://h/x"}
        without = {"suite": _suite()}
        assert job_id_for(with_hook) == job_id_for(without)
        with pytest.raises(InvalidInstanceError, match="webhook_url"):
            normalize_job_spec({"suite": _suite(), "webhook_url": "ftp://h"})

    def test_completion_pushes_once_and_journals_it(self, tmp_path):
        calls = []
        queue, supervisor = self._served(
            tmp_path, lambda url, payload: calls.append((url, dict(payload)))
        )
        job, _ = queue.submit({"suite": _suite(), "webhook_url": "http://h/done"})
        supervisor.run_until_idle()
        assert len(calls) == 1
        url, payload = calls[0]
        assert url == "http://h/done"
        assert payload["job"] == job.id and payload["state"] == "DONE"
        assert payload["content_hash"] == supervisor.load_result(job.id)["content_hash"]
        assert queue.get(job.id).webhook_delivered is True
        # The journal makes re-delivery a no-op, even from a fresh process.
        assert supervisor.pump_webhooks() == 0
        assert len(calls) == 1

    def test_unconfirmed_delivery_is_resent_after_restart(self, tmp_path):
        queue, supervisor = self._served(tmp_path, lambda url, payload: None)
        job, _ = queue.submit({"suite": _suite(), "webhook_url": "http://h/done"})
        leased = queue.lease("w0")
        queue.complete(job.id, "w0", token=leased.fence)
        # DONE was acked but no WEBHOOK_SENT journaled (crash before push):
        # a restarted supervisor's sweep must deliver it.
        calls = []
        reopened = JobQueue(tmp_path / "svc", lease_seconds=60.0)
        fresh = Supervisor(
            reopened,
            config=SupervisorConfig(backoff=BackoffPolicy(base=0.0, cap=0.0)),
            post=lambda url, payload: calls.append(url),
            sleep=lambda s: None,
        )
        assert fresh.pump_webhooks() == 1
        assert calls == ["http://h/done"]
        assert reopened.get(job.id).webhook_delivered is True

    def test_capped_retries_then_journaled_give_up(self, tmp_path):
        attempts = []

        def failing_post(url, payload):
            attempts.append(url)
            raise ConnectionError("refused")

        queue, supervisor = self._served(
            tmp_path, failing_post, webhook_attempts=3
        )
        job, _ = queue.submit({"suite": _suite(), "webhook_url": "http://h/x"})
        supervisor.run_until_idle()
        assert len(attempts) == 3
        failed = queue.get(job.id)
        assert failed.state == "DONE"  # the job itself is unaffected
        assert "ConnectionError" in failed.webhook_failed
        # Given up for good: no re-delivery on later sweeps or restarts.
        assert supervisor.pump_webhooks() == 0
        assert len(attempts) == 3
        assert queue.get(job.id).as_status()["webhook"]["failed"] is not None


# ---------------------------------------------------------------------- #
# Result TTL / garbage collection
# ---------------------------------------------------------------------- #
class TestResultGC:
    def _served(self, tmp_path, wall, **config_kwargs):
        queue = JobQueue(tmp_path / "svc", lease_seconds=60.0, clock=wall)
        config = SupervisorConfig(backoff=BackoffPolicy(), **config_kwargs)
        return queue, Supervisor(queue, config=config)

    def test_gc_deletes_only_expired_terminal_results(self, tmp_path):
        wall = FakeClock()
        queue, supervisor = self._served(tmp_path, wall, gc_ttl=100.0)
        old, _ = queue.submit({"suite": _suite("a")})
        supervisor.run_until_idle()
        wall.advance(150.0)
        fresh_job, _ = queue.submit({"suite": _suite("b")})
        supervisor.run_until_idle()
        running, _ = queue.submit({"suite": _suite("c")})
        queue.lease("w9")  # held, never collectable

        collected = supervisor.collect_garbage()
        assert collected == [old.id]
        assert not (supervisor.results_root / old.id).exists()
        assert (supervisor.results_root / fresh_job.id).exists()
        assert queue.get(old.id).collected is True
        assert queue.get(old.id).state == "DONE"  # GC never changes state
        assert queue.get(running.id).collected is False

    def test_gc_record_survives_restart_and_is_idempotent(self, tmp_path):
        wall = FakeClock()
        queue, supervisor = self._served(tmp_path, wall, gc_ttl=10.0)
        job, _ = queue.submit({"suite": _suite()})
        supervisor.run_until_idle()
        wall.advance(20.0)
        assert supervisor.collect_garbage() == [job.id]
        # A restarted queue replays the GC record: nothing left to collect,
        # and the collected flag is part of the durable state.
        reopened = JobQueue(tmp_path / "svc", lease_seconds=60.0, clock=wall)
        assert reopened.get(job.id).collected is True
        assert reopened.collectable(10.0) == []
        assert reopened.record_gc(job.id).collected is True  # idempotent

    def test_gc_refuses_non_terminal_jobs(self, tmp_path):
        wall = FakeClock()
        queue, _supervisor = self._served(tmp_path, wall)
        job, _ = queue.submit({"suite": _suite()})
        with pytest.raises(ValueError, match="refusing to GC"):
            queue.record_gc(job.id)
