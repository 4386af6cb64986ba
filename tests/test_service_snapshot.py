"""WAL snapshot + compaction tests.

The contract under test: ``compact()`` checkpoints the folded queue state
to a content-hashed snapshot and truncates the log, and **replay =
snapshot + tail** reconstructs bit-identical state at any crash point —
including the window where the snapshot is written but the log is not yet
truncated (entries folded into the snapshot must not double-apply).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.service import JobQueue, SnapshotError, load_snapshot
from repro.service.queue import _JOB_STATE_FIELDS, Job, _job_from_state, _job_to_state
from repro.service.snapshot import snapshot_path


def _suite(name="snap-tiny"):
    return {
        "name": name,
        "seed": 11,
        "topologies": [{"name": "g", "family": "grid", "rows": 3, "cols": 3}],
        "regimes": [{"name": "r", "capacity": 6.0, "num_requests": 8}],
        "modes": [{"name": "off", "kind": "offline", "bound": "none"}],
    }


class FakeClock:
    def __init__(self, start=1_000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _busy_queue(tmp_path, **kwargs):
    clock = FakeClock()
    queue = JobQueue(
        tmp_path / "svc",
        clock=clock,
        monotonic=clock,
        lease_seconds=30.0,
        max_attempts=5,
        **kwargs,
    )
    done, _ = queue.submit({"suite": _suite("a")})
    flaky, _ = queue.submit({"suite": _suite("b")})
    running, _ = queue.submit({"suite": _suite("c")})
    queue.complete(done.id, "w0", token=queue.lease("w0").fence)
    token = queue.lease("w1").fence
    queue.report_failure(flaky.id, "w1", "boom", token=token, delay=5.0)
    queue.lease("w2")  # c -> RUNNING, lease outstanding
    return queue, clock


class TestCompaction:
    def test_compact_truncates_the_log_and_preserves_state(self, tmp_path):
        queue, clock = _busy_queue(tmp_path)
        expected = queue.state_snapshot()
        before = (tmp_path / "svc" / "wal.jsonl").stat().st_size
        stats = queue.compact()
        assert stats["jobs"] == 3
        assert (tmp_path / "svc" / "wal.jsonl").stat().st_size == 0 < before
        assert snapshot_path(tmp_path / "svc").exists()
        # The live handle and a fresh replay both see identical state.
        assert queue.state_snapshot() == expected
        reopened = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        assert reopened.state_snapshot() == expected

    def test_replay_is_snapshot_plus_tail(self, tmp_path):
        queue, clock = _busy_queue(tmp_path)
        queue.compact()
        # Post-compaction activity lands in the (fresh) tail.
        extra, _ = queue.submit({"suite": _suite("d")})
        queue.lease("w3")
        expected = queue.state_snapshot()
        reopened = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        assert reopened.state_snapshot() == expected
        assert reopened.get(extra.id).state == "RUNNING"

    def test_crash_between_snapshot_and_truncate_does_not_double_apply(
        self, tmp_path
    ):
        """The crash window: snapshot durable, log still holding the very
        entries the snapshot folded.  Replay must skip them by ``seq``."""
        queue, clock = _busy_queue(tmp_path)
        expected = queue.state_snapshot()
        wal_path = tmp_path / "svc" / "wal.jsonl"
        log_bytes = wal_path.read_bytes()
        queue.compact()
        wal_path.write_bytes(log_bytes)  # resurrect the un-truncated log
        reopened = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        assert reopened.state_snapshot() == expected
        # Counters resumed exactly: the next lease's token is fresh, and
        # attempts were not double-counted by the replayed duplicates.
        clock.advance(31.0)
        assert reopened.lease("w9") is not None

    def test_every_job_field_survives_state_and_compaction(self, tmp_path):
        """A job with every field away from its default round-trips through
        the state dict, and through ``compact()`` plus a reopen."""
        job = Job(
            id="every-field",
            spec={"suite": _suite("every-field")},
            state="FAILED",
            seq=7,
            attempts=2,
            max_attempts=4,
            submitted_at=1_234.5,
            worker="w9",
            lease_expires_at=1_300.0,
            not_before=1_250.0,
            finished_at=1_260.0,
            error="boom",
            error_type="RuntimeError",
            traceback="Traceback (most recent call last): ...",
            fence=3,
            webhook_delivered=True,
            webhook_failed="HTTP 500",
            collected=True,
            events=9,
        )
        # A field added to Job without a value here fails this guard.
        for spec in dataclasses.fields(Job):
            assert spec.default is dataclasses.MISSING or (
                getattr(job, spec.name) != spec.default
            ), spec.name
        assert _job_from_state(_job_to_state(job)) == job

        queue, clock = _busy_queue(tmp_path)
        with queue._txn():
            queue._jobs[job.id] = job
        expected = queue.state_snapshot()
        assert expected[job.id] == {
            name: getattr(job, name) for name in _JOB_STATE_FIELDS
            if name not in ("id", "events")
        }
        queue.compact()
        reopened = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        assert reopened.get(job.id) == job
        assert reopened.state_snapshot() == expected

    def test_auto_compaction_kicks_in_by_entry_count(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(
            tmp_path / "svc",
            clock=clock,
            monotonic=clock,
            lease_seconds=30.0,
            compact_every=5,
        )
        for index in range(4):
            queue.submit({"suite": _suite(f"s{index}")})
        assert not snapshot_path(tmp_path / "svc").exists()
        queue.submit({"suite": _suite("s4")})  # 5th entry triggers it
        assert snapshot_path(tmp_path / "svc").exists()
        assert (tmp_path / "svc" / "wal.jsonl").stat().st_size == 0
        reopened = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        assert len(reopened.jobs()) == 5

    def test_peer_handle_detects_compaction_under_it(self, tmp_path):
        """Two handles on one root: one compacts, the other's next
        transaction must notice the truncated log and reload from the
        snapshot instead of trusting its stale byte cursor."""
        clock = FakeClock()
        first = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        second = JobQueue(
            tmp_path / "svc", clock=clock, monotonic=clock, lease_seconds=30.0
        )
        job, _ = first.submit({"suite": _suite("a")})
        assert second.get(job.id).state == "QUEUED"  # cursor is warm
        first.complete(job.id, "w0", token=first.lease("w0").fence)
        first.compact()
        b, _ = first.submit({"suite": _suite("b")})
        assert second.get(job.id).state == "DONE"
        assert second.get(b.id).state == "QUEUED"
        assert second.state_snapshot() == first.state_snapshot()


class TestSnapshotIntegrity:
    def test_corrupt_snapshot_refuses_to_load(self, tmp_path):
        queue, clock = _busy_queue(tmp_path)
        queue.compact()
        path = snapshot_path(tmp_path / "svc")
        text = path.read_text().replace('"DONE"', '"GONE"', 1)
        path.write_text(text)
        with pytest.raises(SnapshotError, match="content hash"):
            load_snapshot(tmp_path / "svc")
        with pytest.raises(SnapshotError):
            JobQueue(tmp_path / "svc", clock=clock, monotonic=clock)

    def test_unparseable_snapshot_refuses_to_load(self, tmp_path):
        queue, _clock = _busy_queue(tmp_path)
        queue.compact()
        snapshot_path(tmp_path / "svc").write_text("{torn")
        with pytest.raises(SnapshotError, match="unreadable"):
            load_snapshot(tmp_path / "svc")

    def test_missing_snapshot_is_fine(self, tmp_path):
        assert load_snapshot(tmp_path) is None
