"""Plain-text table/series formatting used by the benchmark harness.

The benchmarks print the same rows and series the paper's tables and figures
report; these helpers keep that output consistent and readable in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence, Union

Number = Union[int, float]


@dataclass
class Table:
    """A simple column-aligned text table.

    Attributes:
        title: heading printed above the table.
        columns: column names.
        rows: list of row value lists (same length as ``columns``).
    """

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append a row; raises ``ValueError`` on a column-count mismatch."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """Render the table as aligned plain text."""
        return format_table(self.title, self.columns, self.rows)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(title: str, columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Format a title, header and rows into an aligned plain-text table."""
    str_rows = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
) -> str:
    """Format one or more y-series against a shared x-axis as a table."""
    columns = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        row: List[object] = [x]
        for name in series:
            values = series[name]
            row.append(values[i] if i < len(values) else "")
        rows.append(row)
    return format_table(title, columns, rows)


def format_distribution(title: str, stats_by_label: Mapping[str, object]) -> str:
    """Format latency summaries (one :class:`LatencyStats`-like per label).

    Each value must expose ``count``/``mean``/``p50``/``p95``/``p99``/``max``
    attributes (duck-typed so the serving layer's cluster reports and any ad
    hoc summary can share the same table shape).
    """
    columns = ["label", "count", "mean", "p50", "p95", "p99", "max"]
    rows = [
        [label, stats.count, stats.mean, stats.p50, stats.p95, stats.p99, stats.max]
        for label, stats in stats_by_label.items()
    ]
    return format_table(title, columns, rows)


def format_timeline(title: str, events: Sequence[object]) -> str:
    """Format a scaling timeline (autoscaler events) as a table.

    Each event must expose ``seconds``/``active_shards``/``reason``
    attributes (duck-typed against the control plane's ``ScalingEvent``)
    and may expose drain outcomes (``migrated``/``completed`` request
    counts from a drained scale-down); events without them — older
    captures, ad hoc rows — render as zeros rather than misreporting a
    drain as outcome-free.
    """
    columns = ["t_seconds", "active_shards", "reason", "migrated", "completed"]
    rows = [
        [
            event.seconds,
            event.active_shards,
            event.reason,
            getattr(event, "migrated", 0),
            getattr(event, "completed", 0),
        ]
        for event in events
    ]
    return format_table(title, columns, rows)


def format_tenant_table(title: str, tenant_stats: Mapping[str, object]) -> str:
    """Format per-tenant serving accounting as a table.

    Each value must expose ``offered``/``served``/``shed``/``shed_rate``/
    ``slo_attainment``/``latency`` attributes (duck-typed against
    :class:`~repro.analysis.metrics.TenantStats`).
    """
    columns = ["tenant", "offered", "served", "shed", "shed_rate", "attainment", "p95_s"]
    rows = [
        [
            tenant,
            stats.offered,
            stats.served,
            stats.shed,
            stats.shed_rate,
            stats.slo_attainment,
            stats.latency.p95,
        ]
        for tenant, stats in tenant_stats.items()
    ]
    return format_table(title, columns, rows)
