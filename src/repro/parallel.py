"""Deterministic process-pool fan-out: ``pmap`` and friends.

The two dominant costs of the reproduction — critical-value payment
bisections and experiment sweeps — are embarrassingly parallel: every
winner's bisection is independent given the declared instance, and every
experiment cell/trial is independent given its pre-derived seed.  This
module provides the one fan-out primitive the whole stack uses:

``pmap(fn, tasks, jobs=N)``
    Apply ``fn`` to every task and return the results **in task order**.
    ``jobs=1`` (the default) runs in-process with zero overhead; ``jobs>1``
    distributes chunks of tasks over a ``ProcessPoolExecutor``.

Determinism contract
--------------------
``pmap`` never makes an output depend on scheduling:

* results are reassembled in task order regardless of completion order
  (``ProcessPoolExecutor.map`` semantics);
* all randomness must be *pre-derived* per task before the fan-out — pass
  seeds or pre-spawned :class:`numpy.random.Generator` objects inside the
  tasks (see :func:`derive_seeds`); workers never share an RNG stream;
* ``fn`` must be a pure function of ``(task, payload)``: shared mutable
  state would diverge between the serial and parallel paths.

Under that contract ``jobs=N`` output is bit-identical to ``jobs=1``, which
the test suite enforces for payments, verification grids and the experiment
harness.

Shipping large read-only state
------------------------------
Pass the instance/algorithm/etc. once via ``payload=`` instead of inside
every task.  Workers read it back with :func:`worker_payload`.  On
platforms with ``fork`` (Linux) the payload — and ``fn`` itself, which may
therefore be a closure or lambda — is inherited copy-on-write by the forked
workers, so nothing is pickled per task beyond the small task tuples and
results; the parent's warm per-graph caches (shortest-path tree memos on
:attr:`CapacitatedGraph.substrate_cache`) are inherited too, which is what
makes payment bisections in workers start from the same warm state as the
serial loop.  Without ``fork`` (Windows/macOS spawn), ``fn`` and the
payload are pickled once per worker via the pool initializer; if they are
not picklable, ``pmap`` falls back to the serial path with a warning
rather than failing.

Nested fan-out is suppressed: a ``pmap`` issued from inside a worker runs
serially (``jobs=1``), so ``experiments --jobs N`` fanning out cells that
internally compute payments does not oversubscribe the machine.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

__all__ = [
    "pmap",
    "resolve_jobs",
    "derive_seeds",
    "worker_payload",
    "in_worker",
    "WorkerError",
    "JOBS_ENV_VAR",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``jobs=None``: ``REPRO_JOBS=4`` makes
#: every fan-out point in the library default to 4 workers.
JOBS_ENV_VAR = "REPRO_JOBS"

# Worker-side state.  On fork platforms these are set in the parent
# immediately before the pool is created and inherited by the children; on
# spawn platforms they are installed by the pool initializer from pickled
# copies.  The serial path uses the same slots so ``worker_payload()``
# behaves identically at jobs=1.
_WORKER_FN: Callable[..., Any] | None = None
_WORKER_PAYLOAD: Any = None
_IN_WORKER: bool = False


class WorkerError(RuntimeError):
    """A captured per-task failure from ``pmap(..., on_error="capture")``.

    Wraps both exceptions raised by ``fn`` (``error_type`` is the original
    exception class name, the message its ``str``) and worker-process
    deaths — a task whose worker segfaults or is SIGKILLed yields
    ``error_type="WorkerCrash"``.  ``traceback`` preserves the full
    formatted worker-side traceback as a plain string (exception *objects*
    lose their traceback at the pickle boundary, so it is captured at wrap
    time); a crash that never raised has none.  Captured failures use the
    same wrapper on the serial and the pool paths, so ``jobs=1`` and
    ``jobs=N`` stay result-identical under the determinism contract — the
    capture-site frame (which differs between the serial loop and the pool
    worker) is trimmed from the traceback for exactly that reason.
    """

    def __init__(
        self,
        message: str,
        *,
        error_type: str = "WorkerError",
        traceback: str | None = None,
    ) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.traceback = traceback

    def __reduce__(self):
        return (_rebuild_worker_error, (str(self), self.error_type, self.traceback))


def _rebuild_worker_error(
    message: str, error_type: str, traceback: str | None = None
) -> "WorkerError":
    return WorkerError(message, error_type=error_type, traceback=traceback)


def _capture(exc: BaseException) -> WorkerError:
    if isinstance(exc, WorkerError):
        return exc
    import traceback as _traceback

    # Skip the capture-site frame (the serial loop's `fn(task)` vs the pool
    # worker's `_invoke_capture_chunk`): the preserved traceback starts at
    # fn's own frame, identical at any jobs.
    tb = exc.__traceback__.tb_next if exc.__traceback__ is not None else None
    formatted = "".join(_traceback.format_exception(type(exc), exc, tb))
    return WorkerError(str(exc), error_type=type(exc).__name__, traceback=formatted)


#: The WorkerError produced when a worker process dies (and keeps dying on
#: the isolated retry) while executing one task.
_CRASH_MESSAGE = "worker process died while executing the task"


def worker_payload() -> Any:
    """The ``payload=`` object of the enclosing :func:`pmap` call.

    Valid inside ``fn`` during a ``pmap`` (both the serial and the process
    paths); ``None`` when no payload was passed.
    """
    return _WORKER_PAYLOAD


def in_worker() -> bool:
    """Whether the caller is executing inside a ``pmap`` worker process."""
    return _IN_WORKER


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalize a ``jobs`` request into a concrete worker count (>= 1).

    ``None`` consults the ``REPRO_JOBS`` environment variable and defaults
    to 1 (serial) when unset; ``0`` or negative values mean "all cores".
    Inside a worker the answer is always 1 (no nested pools).
    """
    if _IN_WORKER:
        return 1
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            warnings.warn(f"ignoring non-integer {JOBS_ENV_VAR}={raw!r}", stacklevel=2)
            return 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def derive_seeds(seed: int | np.random.Generator | None, count: int) -> list[int]:
    """Derive ``count`` independent integer seeds from a root seed.

    The derivation matches :func:`repro.utils.prng.spawn_rngs` (one parent
    generator, one ``integers`` draw per child), so a sweep that used to
    spawn generators serially can pre-derive the same per-task seeds, ship
    them to workers, and reconstruct identical generators there.
    """
    from repro.utils.prng import ensure_rng

    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(seed)
    return [int(s) for s in parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)]


def _fork_child_init() -> None:
    """Initializer for fork-context workers: state is inherited, only the
    in-worker flag needs flipping (it is False in the parent at fork time)."""
    global _IN_WORKER
    _IN_WORKER = True


def _spawn_child_init(fn: Callable[..., Any], payload: Any) -> None:
    """Initializer for spawn/forkserver workers: install the pickled state."""
    global _WORKER_FN, _WORKER_PAYLOAD, _IN_WORKER
    _WORKER_FN = fn
    _WORKER_PAYLOAD = payload
    _IN_WORKER = True


def _invoke(task: Any) -> Any:
    """Worker entry point: apply the installed ``fn`` to one task."""
    return _WORKER_FN(task)


def _invoke_capture_chunk(chunk: Sequence[Any]) -> list[Any]:
    """Worker entry point for capture mode: one chunk, exceptions wrapped.

    Capturing *inside* the worker keeps non-picklable exception types from
    killing the result channel; only the :class:`WorkerError` wrapper (plain
    strings) crosses the process boundary.
    """
    out: list[Any] = []
    for task in chunk:
        try:
            out.append(_WORKER_FN(task))
        except Exception as exc:
            out.append(_capture(exc))
    return out


def _default_chunk_size(num_tasks: int, jobs: int) -> int:
    # Four chunks per worker balances scheduling slack against per-chunk
    # pickling overhead; tiny task lists degenerate to one task per chunk.
    return max(1, math.ceil(num_tasks / (jobs * 4)))


def pmap(
    fn: Callable[[T], R],
    tasks: Iterable[T] | Sequence[T],
    *,
    jobs: int | None = None,
    chunk_size: int | None = None,
    payload: Any = None,
    on_error: str = "raise",
) -> list[R]:
    """Apply ``fn`` to every task, serially or over a process pool.

    Parameters
    ----------
    fn:
        The per-task function.  Must be deterministic given ``(task,
        payload)``; see the module docstring's determinism contract.  On
        fork platforms any callable works; elsewhere it must pickle (or the
        call falls back to serial).
    tasks:
        The task sequence; results are returned in the same order.
    jobs:
        Worker processes.  ``None`` → ``REPRO_JOBS`` env var → 1.  ``1``
        runs in-process (bit-identical results either way).
    chunk_size:
        Tasks per pickled work item (default: ~4 chunks per worker).
    payload:
        Large read-only state shipped once per worker instead of per task;
        read it inside ``fn`` via :func:`worker_payload`.
    on_error:
        ``"raise"`` (default): the first exception propagates and a dead
        worker process aborts the fan-out with ``BrokenProcessPool``.
        ``"capture"``: every task yields either its result or a
        :class:`WorkerError` describing its failure, in task order — an
        exception (or crash) in one task never costs the others' results.
        A worker-process death poisons the shared pool, so the affected
        chunks are re-run one task at a time in fresh single-worker pools;
        the task that kills its worker again is reported as a
        ``WorkerCrash`` and the rest complete normally.
    """
    global _WORKER_FN, _WORKER_PAYLOAD
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    jobs = min(jobs, max(1, len(tasks)))

    if jobs == 1:
        prev_fn, prev_payload = _WORKER_FN, _WORKER_PAYLOAD
        _WORKER_FN, _WORKER_PAYLOAD = fn, payload
        try:
            if on_error == "capture":
                results: list[Any] = []
                for task in tasks:
                    try:
                        results.append(fn(task))
                    except Exception as exc:
                        results.append(_capture(exc))
                return results
            return [fn(task) for task in tasks]
        finally:
            _WORKER_FN, _WORKER_PAYLOAD = prev_fn, prev_payload

    if chunk_size is None:
        chunk_size = _default_chunk_size(len(tasks), jobs)

    start_methods = multiprocessing.get_all_start_methods()
    use_fork = "fork" in start_methods
    if not use_fork:
        try:
            pickle.dumps((fn, payload))
        except Exception as exc:  # pragma: no cover - non-fork platforms only
            warnings.warn(
                f"pmap falling back to serial: fn/payload not picklable and "
                f"no fork start method available ({exc})",
                stacklevel=2,
            )
            return pmap(fn, tasks, jobs=1, payload=payload)

    prev_fn, prev_payload = _WORKER_FN, _WORKER_PAYLOAD
    _WORKER_FN, _WORKER_PAYLOAD = fn, payload
    try:
        if use_fork:
            context = multiprocessing.get_context("fork")
            executor = ProcessPoolExecutor(
                max_workers=jobs, mp_context=context, initializer=_fork_child_init
            )
        else:  # pragma: no cover - non-fork platforms only
            context = multiprocessing.get_context()
            executor = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=context,
                initializer=_spawn_child_init,
                initargs=(fn, payload),
            )
        if on_error != "capture":
            with executor:
                return list(executor.map(_invoke, tasks, chunksize=chunk_size))
        chunks = [
            tasks[start : start + chunk_size]
            for start in range(0, len(tasks), chunk_size)
        ]
        by_chunk: list[list[Any] | None] = [None] * len(chunks)
        broken: list[int] = []
        with executor:
            futures = [
                executor.submit(_invoke_capture_chunk, chunk) for chunk in chunks
            ]
            for index, future in enumerate(futures):
                try:
                    by_chunk[index] = future.result()
                except BrokenProcessPool:
                    # A worker died; every not-yet-finished chunk of the
                    # poisoned pool lands here and is retried in isolation
                    # below.
                    broken.append(index)
                except Exception as exc:
                    by_chunk[index] = [_capture(exc) for _ in chunks[index]]
        for index in broken:
            by_chunk[index] = [
                _run_task_isolated(task, use_fork, fn, payload)
                for task in chunks[index]
            ]
        return [result for chunk in by_chunk for result in chunk]
    finally:
        _WORKER_FN, _WORKER_PAYLOAD = prev_fn, prev_payload


def _run_task_isolated(
    task: Any,
    use_fork: bool,
    fn: Callable[..., Any],
    payload: Any,
) -> Any:
    """Run one task in a fresh single-worker pool (capture-mode crash retry).

    Called with the worker globals still installed, so a fork child inherits
    ``fn``/``payload`` exactly like the main pool's workers did.  If the
    task kills this dedicated worker too, the crash is deterministic — it is
    reported as a ``WorkerCrash`` :class:`WorkerError` instead of retried
    again.
    """
    if use_fork:
        context = multiprocessing.get_context("fork")
        executor = ProcessPoolExecutor(
            max_workers=1, mp_context=context, initializer=_fork_child_init
        )
    else:  # pragma: no cover - non-fork platforms only
        context = multiprocessing.get_context()
        executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=context,
            initializer=_spawn_child_init,
            initargs=(fn, payload),
        )
    try:
        with executor:
            return executor.submit(_invoke_capture_chunk, [task]).result()[0]
    except BrokenProcessPool:
        return WorkerError(_CRASH_MESSAGE, error_type="WorkerCrash")
