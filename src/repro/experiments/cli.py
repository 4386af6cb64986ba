"""Command-line interface: ``python -m repro.experiments``.

Subcommands
-----------
``list``
    Print the experiment registry (id, paper artifact, title).
``run <id>|all``
    Run one experiment (or all of them) and print the result tables and the
    claim pass/fail summary.  ``--full`` switches from the quick sweep to the
    full sweep; ``--json`` emits machine-readable output.  Payments and
    truthfulness audits answer their probes from probe tables
    (:mod:`repro.core.trace`), since every experiment's allocation rule
    accepts ``trace=``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.experiments.registry import available_experiments, get_experiment, run_all

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduction experiments for 'Truthful Unsplittable Flow for "
        "Large Capacity Networks' (SPAA 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment or all of them")
    run_parser.add_argument(
        "experiment",
        help="experiment id (E1..E10) or 'all'",
    )
    run_parser.add_argument(
        "--full",
        action="store_true",
        help="run the full parameter sweep instead of the quick one",
    )
    run_parser.add_argument("--seed", type=int, default=None, help="root random seed")
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the cell fan-out (default: REPRO_JOBS env or "
        "serial; 0 = all cores; results are bit-identical at any --jobs)",
    )
    run_parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text tables"
    )
    return parser


def _print_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.to_dict(), indent=2, default=float))
    else:
        print(result.summary())
        print()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (non-zero if any claim failed)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in available_experiments():
            spec = get_experiment(experiment_id)
            print(f"{experiment_id}  [{spec.paper_artifact}]  {spec.title}")
        return 0

    quick = not args.full
    failed = False
    if args.experiment.lower() == "all":
        results = run_all(quick=quick, seed=args.seed, jobs=args.jobs)
        for result in results.values():
            _print_result(result, args.json)
            failed = failed or not result.all_claims_hold
    else:
        result = get_experiment(args.experiment).run(
            quick=quick, seed=args.seed, jobs=args.jobs
        )
        _print_result(result, args.json)
        failed = not result.all_claims_hold
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
