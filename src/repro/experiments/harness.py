"""Common result container and helpers for experiments.

Every E-module shapes its sweep as a list of independent cell tasks (each
carrying its own pre-derived RNG), a module-level cell function returning a
:class:`CellOutcome`, and one :func:`repro.parallel.pmap` call, so
``repro.experiments --jobs N`` fans a sweep out over worker processes while
keeping the merged result bit-identical to the serial run (rows and claims
are reassembled in cell order; wall-clock columns are, as always,
timing-noise)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.utils.tables import Table

__all__ = ["ExperimentResult", "CellOutcome", "ratio"]


def ratio(optimum: float, achieved: float) -> float:
    """Approximation ratio ``optimum / achieved`` (``inf`` when nothing was
    achieved but something was achievable, ``1`` when both are zero)."""
    if achieved <= 0.0:
        return 1.0 if optimum <= 0.0 else math.inf
    return optimum / achieved


@dataclass
class CellOutcome:
    """What one experiment cell contributes to its :class:`ExperimentResult`.

    Cell functions run in worker processes under ``--jobs``, so instead of
    mutating the shared result they return this picklable bundle; the
    harness merges bundles in cell order via :meth:`ExperimentResult.merge`,
    making the merged result independent of scheduling.
    """

    rows: list[dict[str, Any]] = field(default_factory=list)
    claims: list[tuple[str, bool]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def claim(self, description: str, holds: bool) -> None:
        self.claims.append((description, bool(holds)))


@dataclass
class ExperimentResult:
    """The output of one experiment run.

    Attributes
    ----------
    experiment_id:
        The experiment identifier (``"E1"`` .. ``"E9"``).
    title:
        Human-readable title (which paper artifact it reproduces).
    rows:
        One dict per measured cell; keys are the table columns.
    columns:
        Column order for rendering.
    claims:
        Mapping from claim description to a boolean "holds on this run";
        the experiment's top-level pass/fail summary.
    notes:
        Free-form remarks (e.g. which workloads were used).
    """

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    columns: Sequence[str] = ()
    claims: dict[str, bool] = field(default_factory=dict)
    notes: str = ""

    @property
    def table(self) -> Table:
        """The result rows as a renderable text table."""
        columns = list(self.columns) if self.columns else sorted(
            {key for row in self.rows for key in row}
        )
        table = Table(columns=columns, title=f"{self.experiment_id}: {self.title}")
        for row in self.rows:
            table.add_row(row)
        return table

    @property
    def all_claims_hold(self) -> bool:
        """Whether every registered claim held on this run."""
        return all(self.claims.values())

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def claim(self, description: str, holds: bool) -> None:
        """Register a claim outcome (ANDed if registered repeatedly)."""
        self.claims[description] = bool(holds) and self.claims.get(description, True)

    def merge(self, outcomes: Sequence[CellOutcome]) -> None:
        """Fold cell outcomes in, in order (rows appended, claims ANDed)."""
        for outcome in outcomes:
            self.rows.extend(outcome.rows)
            for description, holds in outcome.claims:
                self.claim(description, holds)

    def summary(self) -> str:
        lines = [self.table.render(), ""]
        for description, holds in self.claims.items():
            lines.append(f"  [{'PASS' if holds else 'FAIL'}] {description}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)

    def claims_failed(self) -> list[str]:
        return [desc for desc, holds in self.claims.items() if not holds]

    def to_dict(self) -> Mapping[str, Any]:
        """A JSON-serializable summary (used by the CLI ``--json`` flag)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": self.rows,
            "claims": self.claims,
            "notes": self.notes,
        }
