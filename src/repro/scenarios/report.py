"""Cross-scenario comparison tables for campaign results.

Renders the flat cell records of a campaign (live
:class:`~repro.scenarios.runner.CampaignResult` or a persisted
:class:`~repro.scenarios.store.ResultStore`) as one comparison table plus
per-axis aggregate lines, so regimes and topology families can be compared
at a glance: approximation ratio against the fractional LP bound,
admission rate, revenue and trace-replay work where the mode computed
them.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from repro.utils.tables import Table

__all__ = ["DEFAULT_COLUMNS", "campaign_table", "render_report"]

DEFAULT_COLUMNS = (
    "topology",
    "regime",
    "mode",
    "n",
    "m",
    "B",
    "B_over_log_m",
    "epsilon",
    "requests",
    "admitted",
    "admission_rate",
    "value",
    "bound",
    "ratio",
    "value_ratio",
    "revenue",
    # Hot-loop work units (trees computed, dual updates applied, bundle
    # sweeps; see PricingStats.kernel_calls) — attributes bench regressions
    # to that work.
    "kernel_calls",
    # Partitioned-solving columns (present only on offline cells whose mode
    # set a "partition" entry; see repro.partition).
    "partition_regions",
    "partition_cut_edges",
    "partition_cross",
    "partition_value",
    "partition_gap",
    "partition_exact",
    # Fault-injection columns (present only on cells that ran with a
    # non-zero-intensity fault schedule; see repro.faults).
    "fault_events",
    "fault_revocations",
    "fault_jam_arrived",
    "fault_jam_admitted",
    "fault_upfront_fees",
    "fault_net_revenue",
    "fault_honest_share",
    # Quarantine columns (present only on cells that failed through every
    # retry; see the campaign runner's crash tolerance).
    "failed",
    "error_type",
    "attempts",
    "claims_ok",
)


def _present_columns(records: Iterable[Mapping[str, Any]]) -> list[str]:
    present = {key for record in records for key in record}
    return [column for column in DEFAULT_COLUMNS if column in present]


def campaign_table(
    records: Mapping[str, Mapping[str, Any]], *, title: str = "Scenario campaign"
) -> Table:
    """The cell records as a renderable text table (canonical cell order,
    only the standard columns that at least one record carries)."""
    rows = list(records.values())
    table = Table(columns=_present_columns(rows), title=title)
    for row in rows:
        table.add_row({k: row.get(k) for k in table.columns})
    return table


def _finite(values: Iterable[float]) -> list[float]:
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def _aggregate_lines(records: Mapping[str, Mapping[str, Any]]) -> list[str]:
    lines: list[str] = []
    by_axis: dict[str, dict[str, list[float]]] = {}
    for record in records.values():
        for axis in ("regime", "family"):
            label = record.get(axis)
            if label is None:
                continue
            bucket = by_axis.setdefault(axis, {}).setdefault(str(label), [])
            ratio_value = record.get("ratio")
            if ratio_value is not None:
                bucket.append(float(ratio_value))
    for axis, buckets in by_axis.items():
        parts = []
        for label in sorted(buckets):
            finite = _finite(buckets[label])
            if not finite:
                continue
            geomean = math.exp(sum(math.log(v) for v in finite) / len(finite))
            parts.append(f"{label}: {geomean:.3f}")
        if parts:
            lines.append(f"  geomean ratio by {axis}: " + ", ".join(parts))
    failed = [key for key, record in records.items() if not record.get("claims_ok", True)]
    if failed:
        lines.append(f"  FAILED claims in cells: {', '.join(failed)}")
    return lines


def render_report(
    records: Mapping[str, Mapping[str, Any]],
    *,
    title: str = "Scenario campaign",
    content_hash: str | None = None,
) -> str:
    """The full text report: table, aggregates, optional store hash."""
    lines = [campaign_table(records, title=title).render()]
    lines.extend(_aggregate_lines(records))
    if content_hash is not None:
        lines.append(f"  store hash: {content_hash}")
    return "\n".join(lines)
