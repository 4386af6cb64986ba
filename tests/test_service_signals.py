"""Subprocess tests of the service's signal behaviour.

Two contracts a unit test cannot prove from inside the process:

* **SIGTERM drains gracefully** — the server stops leasing, the in-flight
  job finishes and is acknowledged, and the process exits 0.
* **SIGKILL loses nothing** — a kill -9 mid-campaign leaves a WAL that
  replays to the exact acknowledged state; a restarted service reclaims
  the job when its lease expires, resumes the campaign from the per-job
  store, and commits a result whose content hash is bit-identical to an
  uninterrupted run (pinned at ``jobs`` 1 and 4).

``--wave-delay`` paces the campaign (timing only — records are untouched)
so the signals reliably land mid-run.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.scenarios.runner import run_campaign
from repro.scenarios.specs import enumerate_cells
from repro.scenarios.store import ResultStore
from repro.service import JobQueue
from repro.service.client import ServiceClient

SRC = str(Path(repro.__file__).resolve().parents[1])


def _suite():
    """12 cells: multiple waves at both jobs=1 (wave 4) and jobs=4 (wave 8)."""
    return {
        "name": "signals",
        "seed": 11,
        "topologies": [
            {"name": "g", "family": "grid", "rows": 3, "cols": 3},
            {"name": "w", "family": "waxman", "num_vertices": 8},
        ],
        "regimes": [
            {"name": "lo", "capacity": 4.0, "num_requests": 8},
            {"name": "mid", "capacity": 6.0, "num_requests": 8},
            {"name": "hi", "capacity": 9.0, "num_requests": 8},
        ],
        "modes": [
            {"name": "off", "kind": "offline", "bound": "none"},
            {"name": "on", "kind": "online"},
        ],
    }


def _reference_hash(tmp_path, jobs):
    store = ResultStore(tmp_path / f"ref-{jobs}")
    result = run_campaign(_suite(), store=store, jobs=jobs)
    keys = [cell.key for cell in enumerate_cells(result.suite)]
    return store.content_hash(keys)


def _start_serve(root, *extra_args):
    """Start ``repro.service serve`` and return ``(process, client)``.

    The server runs in its own session (= its own process group), so a
    kill -9 can take down the supervisor *and* its forked pmap workers —
    exactly what a machine death or a cgroup kill does.  Killing only the
    supervisor would leave orphaned workers holding the inherited
    listening socket.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--root",
            str(root),
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        start_new_session=True,
    )
    deadline = time.monotonic() + 30.0
    lines = []
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"serve exited {proc.returncode} before binding:\n"
                + "".join(lines)
                + (proc.stdout.read() or "")
            )
        line = proc.stdout.readline()
        lines.append(line)
        if line.startswith("serving on "):
            url = line.split()[2]
            return proc, ServiceClient(url)
    _kill_group(proc)
    raise AssertionError("serve never printed its URL:\n" + "".join(lines))


def _kill_group(proc):
    """SIGKILL the server's whole process group (supervisor + pool workers)."""
    import os

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_for_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["state"] == state:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {state}")


class TestSigterm:
    def test_graceful_drain_finishes_inflight_and_exits_zero(self, tmp_path):
        root = tmp_path / "svc"
        proc, client = _start_serve(
            root, "--jobs", "1", "--wave-delay", "0.3", "--lease-seconds", "60"
        )
        try:
            job = client.submit({"suite": _suite(), "jobs": 1})["job"]
            _wait_for_state(client, job, "RUNNING")
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                _kill_group(proc)
        assert proc.returncode == 0
        assert "drained; exiting 0" in output

        # The in-flight job was finished and acknowledged before exit, and
        # its committed result is readable from the durable root alone.
        queue = JobQueue(root)
        done = queue.get(job)
        assert done.state == "DONE"
        result = root / "results" / job / f"attempt-{done.fence:06d}" / "result.json"
        assert result.exists()
        assert _reference_hash(tmp_path, 1) in result.read_text()


class TestSigkill:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_kill9_restart_replays_and_resumes_bit_identically(self, tmp_path, jobs):
        root = tmp_path / "svc"
        proc, client = _start_serve(
            root,
            "--jobs",
            str(jobs),
            "--wave-delay",
            "0.8",
            "--lease-seconds",
            "2",
        )
        job = None
        try:
            job = client.submit({"suite": _suite(), "jobs": jobs})["job"]
            _wait_for_state(client, job, "RUNNING")
            time.sleep(0.5)  # well inside the paced campaign
            _kill_group(proc)  # SIGKILL: no handler, no flush, no goodbye
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                _kill_group(proc)
        assert proc.returncode == -signal.SIGKILL

        # The WAL replays to the exact acknowledged state — twice, from two
        # independent reopenings — with the killed worker's lease still out.
        snapshot = JobQueue(root).state_snapshot()
        assert JobQueue(root).state_snapshot() == snapshot
        assert snapshot[job]["state"] == "RUNNING"

        # A restarted service reclaims the job once the lease expires and
        # resumes the campaign from the per-job store.
        proc, client = _start_serve(
            root, "--jobs", str(jobs), "--lease-seconds", "2"
        )
        try:
            final = client.wait(job, timeout=120.0, poll=0.1)
            assert final["state"] == "DONE"
            assert final["attempts"] == 1  # the lease expiry was counted
            result = client.result(job)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    _kill_group(proc)
        assert proc.returncode == 0
        assert result["content_hash"] == _reference_hash(tmp_path, jobs)
        assert result["failed_cells"] == []


class TestFleetSteal:
    def test_surviving_supervisor_steals_from_a_killed_peer(self, tmp_path):
        """Two real supervisor processes share one root.  The one holding
        the job is SIGKILLed mid-campaign; the survivor reclaims the lease
        (with a fresh fencing token), resumes from the committed attempt
        records, and lands the bit-identical content hash."""
        root = tmp_path / "svc"
        proc_a, client_a = _start_serve(
            root, "--node", "A", "--jobs", "1",
            "--wave-delay", "0.8", "--lease-seconds", "2",
        )
        proc_b = client_b = None
        result = None
        try:
            proc_b, client_b = _start_serve(
                root, "--node", "B", "--jobs", "1",
                "--wave-delay", "0.8", "--lease-seconds", "2",
            )
            job = client_a.submit({"suite": _suite(), "jobs": 1})["job"]
            status = _wait_for_state(client_a, job, "RUNNING")
            holder = status["worker"]
            assert holder.split("/")[0] in ("A", "B")
            first_token = status["fence"]
            time.sleep(0.5)  # well inside the paced first attempt

            victim, survivor_client = (
                (proc_a, client_b) if holder.startswith("A/") else (proc_b, client_a)
            )
            _kill_group(victim)
            victim.wait(timeout=30)

            final = survivor_client.wait(job, timeout=120.0, poll=0.1)
            assert final["state"] == "DONE"
            assert final["attempts"] == 1  # the stolen lease was counted
            result = survivor_client.result(job)
        finally:
            for proc in (proc_a, proc_b):
                if proc is not None and proc.poll() is None:
                    _kill_group(proc)

        assert result["content_hash"] == _reference_hash(tmp_path, 1)
        assert result["failed_cells"] == []
        # The WAL tells the whole story: the survivor's DONE carries a
        # fencing token newer than the killed holder's lease.
        queue = JobQueue(root)
        events = queue.wal.events_for(job)
        done = [e for e in events if e["event"] == "DONE"]
        assert len(done) == 1
        assert done[0]["token"] > first_token
        final_worker = queue.get(job).fence
        assert final_worker == done[0]["token"]
