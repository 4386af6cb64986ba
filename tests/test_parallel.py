"""Tests of the deterministic process-pool fan-out (:mod:`repro.parallel`).

Two layers: unit tests of ``pmap``'s contract (ordering, payload shipping,
jobs resolution, nested suppression), and end-to-end ``jobs=4 == jobs=1``
determinism tests for every fan-out point wired into the stack — payments,
truthfulness grids, and one experiment per family.
"""

from __future__ import annotations

import math
import os
import signal
from functools import partial

import numpy as np
import pytest

from repro import parallel
from repro.core import bounded_muca, bounded_ufp
from repro.auctions import random_auction
from repro.experiments import registry
from repro.flows import random_instance
from repro.flows.generators import isp_instance
from repro.mechanism import compute_muca_payments, compute_ufp_payments
from repro.mechanism.verification import (
    audit_muca_truthfulness,
    audit_ufp_truthfulness,
)


def _square(x):
    return x * x


def _payload_plus(x):
    return x + parallel.worker_payload()


def _nested_probe(x):
    # Inside a worker, nested fan-out must degrade to serial.
    inner = parallel.pmap(_square, [x, x + 1], jobs=4)
    return (parallel.in_worker(), parallel.resolve_jobs(4), inner)


class TestPmap:
    def test_serial_matches_plain_map(self):
        assert parallel.pmap(_square, range(10), jobs=1) == [x * x for x in range(10)]

    def test_parallel_preserves_task_order(self):
        assert parallel.pmap(_square, range(23), jobs=4) == [x * x for x in range(23)]

    def test_empty_task_list(self):
        assert parallel.pmap(_square, [], jobs=4) == []

    def test_payload_visible_in_workers_and_serial(self):
        assert parallel.pmap(_payload_plus, [1, 2], jobs=1, payload=10) == [11, 12]
        assert parallel.pmap(_payload_plus, [1, 2], jobs=2, payload=10) == [11, 12]

    def test_payload_restored_after_call(self):
        parallel.pmap(_payload_plus, [1], jobs=1, payload=99)
        assert parallel.worker_payload() is None

    def test_closures_work_under_fork(self):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("no fork start method")
        offset = 7
        assert parallel.pmap(lambda x: x + offset, range(5), jobs=2) == [
            x + 7 for x in range(5)
        ]

    def test_worker_exceptions_propagate(self):
        def boom(x):
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            parallel.pmap(boom, [1, 2, 3], jobs=2)

    def test_single_task_runs_serial(self):
        # jobs is clamped to the task count, so one task never pays for a pool.
        (probe,) = parallel.pmap(_nested_probe, [3], jobs=4)
        assert probe[0] is False  # ran in-process

    def test_nested_pmap_runs_serial_in_worker(self):
        results = parallel.pmap(_nested_probe, [3, 4], jobs=2)
        in_worker, resolved, inner = results[0]
        assert in_worker is True
        assert resolved == 1
        assert inner == [9, 16]
        assert results[1][2] == [16, 25]

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv(parallel.JOBS_ENV_VAR, raising=False)
        assert parallel.resolve_jobs(None) == 1
        assert parallel.resolve_jobs(3) == 3
        assert parallel.resolve_jobs(0) == (os.cpu_count() or 1)
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "5")
        assert parallel.resolve_jobs(None) == 5
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "nope")
        with pytest.warns(UserWarning):
            assert parallel.resolve_jobs(None) == 1


class TestPaymentsJobsDeterminism:
    def test_ufp_payments_bit_identical_across_jobs(self):
        # Contended ISP cell (same shape as E10's payment cell): the
        # mechanism actually charges, so the comparison is not vacuous.
        instance = isp_instance(
            num_core=3, leaves_per_core=2, core_capacity=10.0,
            access_capacity=7.0, num_requests=25, seed=42,
        )
        algorithm = partial(bounded_ufp, epsilon=0.5)
        allocation = bounded_ufp(instance, 0.5)
        serial = compute_ufp_payments(algorithm, instance, allocation, jobs=1)
        fanned = compute_ufp_payments(algorithm, instance, allocation, jobs=4)
        assert fanned.tobytes() == serial.tobytes()
        assert np.any(serial > 0)  # the cell actually charges someone

    def test_ufp_payments_accept_unpicklable_algorithm_under_fork(self):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("no fork start method")
        instance = random_instance(
            num_vertices=7, edge_probability=0.4, capacity=8.0,
            num_requests=10, demand_range=(0.5, 1.0), seed=11,
        )
        allocation = bounded_ufp(instance, 0.5)
        algorithm = lambda declared: bounded_ufp(declared, 0.5)  # noqa: E731
        serial = compute_ufp_payments(algorithm, instance, allocation, jobs=1)
        fanned = compute_ufp_payments(algorithm, instance, allocation, jobs=3)
        assert fanned.tobytes() == serial.tobytes()

    def test_muca_payments_bit_identical_across_jobs(self):
        auction = random_auction(
            num_items=12, num_bids=30, multiplicity=8.0,
            bundle_size_range=(1, 3), seed=5,
        )
        algorithm = partial(bounded_muca, epsilon=0.4)
        allocation = bounded_muca(auction, 0.4)
        serial = compute_muca_payments(algorithm, auction, allocation, jobs=1)
        fanned = compute_muca_payments(algorithm, auction, allocation, jobs=4)
        assert fanned.tobytes() == serial.tobytes()


def _report_fingerprint(report):
    return (
        report.agents_audited,
        report.misreports_tried,
        report.max_gain,
        [
            (d.agent_index, d.true_type, d.misreported_type,
             d.truthful_utility, d.deviating_utility)
            for d in report.profitable_deviations
        ],
    )


class TestVerificationJobsDeterminism:
    def test_ufp_audit_identical_across_jobs(self):
        instance = random_instance(
            num_vertices=8, edge_probability=0.35, capacity=12.0,
            num_requests=10, demand_range=(0.4, 1.0), seed=17,
        )
        algorithm = partial(bounded_ufp, epsilon=0.4)
        kwargs = dict(
            agents=[0, 1, 2, 3],
            misreports_per_agent=2,
            misreport_grid=[(0.5, 2.0), (1.0, 0.5)],
            seed=99,
        )
        serial = audit_ufp_truthfulness(algorithm, instance, jobs=1, **kwargs)
        fanned = audit_ufp_truthfulness(algorithm, instance, jobs=4, **kwargs)
        assert _report_fingerprint(serial) == _report_fingerprint(fanned)
        assert serial.is_truthful

    def test_muca_audit_identical_across_jobs(self):
        auction = random_auction(
            num_items=10, num_bids=18, multiplicity=10.0,
            bundle_size_range=(1, 3), seed=23,
        )
        algorithm = partial(bounded_muca, epsilon=0.4)
        kwargs = dict(
            agents=[0, 1, 2],
            misreports_per_agent=2,
            value_grid=[0.5, 2.0],
            seed=7,
        )
        serial = audit_muca_truthfulness(algorithm, auction, jobs=1, **kwargs)
        fanned = audit_muca_truthfulness(algorithm, auction, jobs=4, **kwargs)
        assert _report_fingerprint(serial) == _report_fingerprint(fanned)
        assert serial.is_truthful


def _canonical_rows(result):
    """Rows minus wall-clock noise, with NaN made comparable."""
    rows = []
    for row in result.rows:
        canonical = {}
        for key, value in row.items():
            if "time" in key:
                continue
            if isinstance(value, float) and math.isnan(value):
                value = "nan"
            canonical[key] = value
        rows.append(canonical)
    return rows


class TestExperimentJobsDeterminism:
    """``--jobs 4`` must reproduce the serial sweep — one experiment per
    family: approximation (E1), lower bound (E3), mechanism audits (E4),
    scaling (E9) and (slow lane) online streaming (E10)."""

    @pytest.mark.parametrize("experiment_id", ["E1", "E3", "E4", "E9"])
    def test_jobs4_matches_serial(self, experiment_id):
        serial = registry.run_experiment(experiment_id, quick=True, seed=7, jobs=1)
        fanned = registry.run_experiment(experiment_id, quick=True, seed=7, jobs=4)
        assert _canonical_rows(serial) == _canonical_rows(fanned)
        assert serial.claims == fanned.claims
        assert serial.all_claims_hold

    @pytest.mark.slow
    def test_jobs4_matches_serial_online(self):
        serial = registry.run_experiment("E10", quick=True, seed=7, jobs=1)
        fanned = registry.run_experiment("E10", quick=True, seed=7, jobs=4)
        assert _canonical_rows(serial) == _canonical_rows(fanned)
        assert serial.claims == fanned.claims
        assert serial.all_claims_hold


def _boom(x):
    if x % 3 == 1:
        raise ValueError(f"boom at {x}")
    return x * x


def _kill_self(x):
    # Dies only inside a pmap worker process — at jobs=1 the "crash" task
    # degenerates to an ordinary exception, which is the documented serial
    # analogue of a worker death.
    if x == 2:
        if parallel.in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("would have crashed the worker")
    return x * x


class TestCaptureMode:
    def test_on_error_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            parallel.pmap(_square, [1], on_error="ignore")

    def test_raise_mode_propagates_first_failure(self):
        with pytest.raises(ValueError, match="boom at 1"):
            parallel.pmap(_boom, range(6), jobs=1)

    def test_capture_wraps_failures_in_task_order(self):
        results = parallel.pmap(_boom, range(7), jobs=1, on_error="capture")
        for x, result in zip(range(7), results):
            if x % 3 == 1:
                assert isinstance(result, parallel.WorkerError)
                assert result.error_type == "ValueError"
                assert f"boom at {x}" in str(result)
            else:
                assert result == x * x

    def test_capture_serial_matches_parallel(self):
        serial = parallel.pmap(_boom, range(11), jobs=1, on_error="capture")
        pooled = parallel.pmap(_boom, range(11), jobs=3, on_error="capture")
        assert [
            (type(r).__name__, getattr(r, "error_type", None), str(r))
            for r in serial
        ] == [
            (type(r).__name__, getattr(r, "error_type", None), str(r))
            for r in pooled
        ]

    def test_worker_error_pickles_with_error_type(self):
        import pickle

        err = parallel.WorkerError("msg", error_type="KeyError")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, parallel.WorkerError)
        assert clone.error_type == "KeyError"
        assert str(clone) == "msg"

    def test_worker_crash_is_captured_and_neighbors_survive(self):
        # Task 2 SIGKILLs its worker.  Capture mode must report exactly that
        # task as a WorkerCrash and still return every other task's result
        # (via the isolated per-task retry of the poisoned chunks).
        results = parallel.pmap(_kill_self, range(6), jobs=2, on_error="capture")
        assert isinstance(results[2], parallel.WorkerError)
        assert results[2].error_type == "WorkerCrash"
        for x in (0, 1, 3, 4, 5):
            assert results[x] == x * x

    def test_worker_crash_raise_mode_breaks_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            parallel.pmap(_kill_self, range(6), jobs=2)


class TestCapturedTracebacks:
    """ISSUE-8 satellite: the worker's full traceback crosses the pickle
    boundary, so a quarantined failure is debuggable from the record alone."""

    def test_capture_preserves_the_raising_frame(self):
        results = parallel.pmap(_boom, range(4), jobs=2, on_error="capture")
        error = results[1]
        assert isinstance(error, parallel.WorkerError)
        assert "ValueError: boom at 1" in error.traceback
        assert "in _boom" in error.traceback

    def test_traceback_identical_serial_vs_pool(self):
        """jobs=1 and jobs=N captures must be the same bytes — the capture
        site's own frame is trimmed so only the task's frames remain."""
        serial = parallel.pmap(_boom, range(4), jobs=1, on_error="capture")
        pooled = parallel.pmap(_boom, range(4), jobs=2, on_error="capture")
        assert serial[1].traceback == pooled[1].traceback

    def test_pickle_roundtrip_keeps_the_traceback(self):
        import pickle

        error = parallel.WorkerError(
            "msg", error_type="KeyError", traceback="Traceback ...\nKeyError: 'msg'\n"
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.traceback == error.traceback
        assert clone.error_type == "KeyError"
