"""Environment-knob precedence: explicit arguments beat inherited env vars.

``REPRO_JOBS`` is a convenience default; an explicit ``jobs=``/``--jobs``
must win everywhere — in-process, in the CLIs, and inside ``pmap`` worker
processes (which inherit the parent's environment).

The shortest-path backend and the compute kernel are no longer selectable:
their retired environment variables are ignored and their retired CLI flags
are rejected.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import kernels, parallel
from repro.graphs.generators import grid_graph


class TestJobsPrecedence:
    def test_explicit_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "7")
        assert parallel.resolve_jobs(2) == 2
        assert parallel.resolve_jobs(1) == 1
        # env only applies when nothing explicit was passed
        assert parallel.resolve_jobs(None) == 7

    def test_env_ignored_when_invalid(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "many")
        with pytest.warns(UserWarning, match="non-integer"):
            assert parallel.resolve_jobs(None) == 1

    def test_pmap_explicit_jobs_beats_env(self, monkeypatch):
        """REPRO_JOBS=4 must not fan out a pmap explicitly asked to run
        serially (observable via the worker flag: the serial path never
        forks)."""
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "4")
        import os

        parent = os.getpid()
        pids = parallel.pmap(lambda _: os.getpid(), [0, 1, 2], jobs=1)
        assert set(pids) == {parent}


class TestBackendPrecedence:
    def test_experiments_cli_unknown_backend_errors(self):
        """There is no backend to select: ``--backend`` is an unknown flag."""
        from repro.experiments import cli as experiments_cli

        for name in ("bogus", "scipy"):
            with pytest.raises(SystemExit):
                experiments_cli.main(["run", "E1", "--backend", name])


class TestKernelPrecedence:
    def test_numba_env_falls_back_silently_when_absent(self, monkeypatch):
        """An inherited ``REPRO_KERNEL=numba`` (or ``REPRO_SP_BACKEND``)
        selects nothing: the one kernel runs, with zero warnings."""
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        monkeypatch.setenv("REPRO_SP_BACKEND", "bogus")
        graph = grid_graph(3, 3, 1.0)
        weights = np.linspace(0.5, 2.0, graph.num_edges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = kernels.get_kernel()
            assert kernel is kernels.get_kernel()
            assert kernel.dijkstra(graph, weights, 0).dist[0] == 0.0

    def test_experiments_cli_unknown_kernel_errors(self):
        """There is no kernel to select: ``--kernel`` is an unknown flag."""
        from repro.experiments import cli as experiments_cli

        for name in ("bogus", "numpy"):
            with pytest.raises(SystemExit):
                experiments_cli.main(["run", "E1", "--kernel", name])
