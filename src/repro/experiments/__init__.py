"""Experiment harness: one experiment per quantitative claim of the paper.

The paper is a theory paper, so its "tables and figures" are theorems, LP
formulations and worked adversarial instances.  Each becomes an experiment
(E1–E10, indexed in :mod:`repro.experiments.registry`) that measures the
corresponding quantity on concrete instances, prints its rows and checks
the claim.  E10 is post-paper: it streams the same workloads through the online auction
subsystem (:mod:`repro.online`) and reports empirical competitive ratios.

Run from the command line::

    python -m repro.experiments list
    python -m repro.experiments run E1
    python -m repro.experiments run all

or from code::

    from repro.experiments import run_experiment
    result = run_experiment("E2", quick=True)
    print(result.table.render())
"""

from repro.experiments.harness import ExperimentResult, ratio
from repro.experiments.registry import (
    EXPERIMENTS,
    available_experiments,
    get_experiment,
    run_experiment,
    run_all,
)

__all__ = [
    "ExperimentResult",
    "ratio",
    "EXPERIMENTS",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "run_all",
]
