"""The experiment registry: E1 .. E10 with a uniform ``run()`` interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.exceptions import ExperimentError
from repro.experiments import (
    e1_ufp_approximation,
    e2_directed_lower_bound,
    e3_undirected_lower_bound,
    e4_truthfulness,
    e5_muca_approximation,
    e6_muca_lower_bound,
    e7_repetitions,
    e8_comparison,
    e9_scaling,
    e10_online_competitive,
)
from repro.experiments.harness import ExperimentResult

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "run_all",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry for one experiment."""

    experiment_id: str
    title: str
    paper_artifact: str
    claim: str
    runner: Callable[..., ExperimentResult]

    def run(
        self,
        *,
        quick: bool = True,
        seed: int | None = None,
        jobs: int | None = None,
    ) -> ExperimentResult:
        """Run the experiment; ``jobs`` fans its cells out over worker
        processes (results are bit-identical at any ``jobs``)."""
        return self.runner(quick=quick, seed=seed, jobs=jobs)


_MODULES = [
    (e1_ufp_approximation, "Theorem 3.1 / Corollary 3.2"),
    (e2_directed_lower_bound, "Figure 2 / Theorem 3.11"),
    (e3_undirected_lower_bound, "Figure 3 / Theorem 3.12"),
    (e4_truthfulness, "Theorem 2.3 / Lemma 3.4"),
    (e5_muca_approximation, "Theorem 4.1 / Corollary 4.2"),
    (e6_muca_lower_bound, "Figure 4 / Theorem 4.5"),
    (e7_repetitions, "Theorem 5.1"),
    (e8_comparison, "Section 1.1 comparison claims"),
    (e9_scaling, "Running-time claims of Theorems 3.1 and 5.1"),
    (e10_online_competitive, "Section 1 motivation: online bandwidth auctions"),
]

EXPERIMENTS: Mapping[str, ExperimentSpec] = {
    module.EXPERIMENT_ID: ExperimentSpec(
        experiment_id=module.EXPERIMENT_ID,
        title=module.TITLE,
        paper_artifact=artifact,
        claim=module.PAPER_CLAIM,
        runner=module.run,
    )
    for module, artifact in _MODULES
}


def available_experiments() -> list[str]:
    """Experiment identifiers in numeric order (E1, E2, ..., E10)."""
    return sorted(EXPERIMENTS, key=lambda key: int(key[1:]))


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.strip().upper()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(available_experiments())}"
        )
    return EXPERIMENTS[key]


def run_experiment(
    experiment_id: str,
    *,
    quick: bool = True,
    seed: int | None = None,
    jobs: int | None = None,
) -> ExperimentResult:
    """Run one experiment and return its result."""
    return get_experiment(experiment_id).run(quick=quick, seed=seed, jobs=jobs)


def run_all(
    *,
    quick: bool = True,
    seed: int | None = None,
    jobs: int | None = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment, in id order."""
    return {
        experiment_id: EXPERIMENTS[experiment_id].run(quick=quick, seed=seed, jobs=jobs)
        for experiment_id in available_experiments()
    }
