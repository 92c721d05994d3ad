"""Result export: CSV and JSON writers for statistics and tables.

Research use needs results that leave the tool: experiment tables, the §3
statistics block, and time series all serialise to CSV/JSON so they can be
post-processed (gnuplot, pandas, spreadsheets) outside Rainbow.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.monitor.stats import OutputStatistics

if TYPE_CHECKING:  # import cycle guard: experiments builds on the monitor
    from repro.experiments.common import ExperimentTable

__all__ = [
    "table_to_csv",
    "table_to_json",
    "statistics_to_json",
    "network_stats_to_json",
    "timeseries_to_csv",
    "write_text",
]


def table_to_csv(table: "ExperimentTable", path: Optional[str | Path] = None) -> str:
    """Serialise an ExperimentTable to CSV (optionally writing ``path``)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=table.columns, lineterminator="\n")
    writer.writeheader()
    for row in table.rows:
        writer.writerow({column: row[column] for column in table.columns})
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def table_to_json(table: "ExperimentTable", path: Optional[str | Path] = None) -> str:
    """Serialise an ExperimentTable to JSON (optionally writing ``path``)."""
    payload = {
        "title": table.title,
        "columns": table.columns,
        "rows": table.rows,
        "notes": table.notes,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if path is not None:
        Path(path).write_text(text)
    return text


def statistics_to_json(
    statistics: OutputStatistics, path: Optional[str | Path] = None
) -> str:
    """Serialise the §3 statistics block to JSON."""
    text = json.dumps(asdict(statistics), indent=2, sort_keys=True, default=str)
    if path is not None:
        Path(path).write_text(text)
    return text


def network_stats_to_json(network_stats, path: Optional[str | Path] = None) -> str:
    """Serialise a :class:`NetworkStats` snapshot to JSON.

    Includes the per-type breakdowns of dropped (faults), randomly lost,
    and duplicated messages alongside the aggregate counters.
    """
    text = json.dumps(network_stats.snapshot(), indent=2, sort_keys=True, default=str)
    if path is not None:
        Path(path).write_text(text)
    return text


def timeseries_to_csv(
    series: dict[str, list[float]], path: Optional[str | Path] = None
) -> str:
    """Serialise a progress-monitor time series dict to CSV.

    Columns are the series keys; rows align by sample index.
    """
    keys = list(series)
    length = max((len(values) for values in series.values()), default=0)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(keys)
    for index in range(length):
        writer.writerow(
            [series[key][index] if index < len(series[key]) else "" for key in keys]
        )
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def write_text(text: str, path: str | Path) -> Path:
    """Write any rendered artifact (panel, chart, table) to a file."""
    target = Path(path)
    target.write_text(text)
    return target
