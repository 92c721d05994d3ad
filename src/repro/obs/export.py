"""Trace exporters: Chrome trace-event JSON (Perfetto) and flat CSV.

Both exporters take a tracer or its span columns and always *normalize*
ids: transaction ids are remapped to a dense ``1..n`` by order of first
appearance, and span ids are rewritten accordingly
(``t{txn}:{site}:{seq}`` keeps its site and sequence parts).  Raw transaction ids come from a process-global counter
— normalizing makes the exported bytes a pure function of the session's
seed, independent of what else ran earlier in the process or of which
worker executed the session under ``-j N``.

The Chrome output is a JSON object with a ``traceEvents`` list of
complete (``ph: "X"``) events, loadable in Perfetto or
``chrome://tracing``.  One simulated time unit maps to 1 ms, so ``ts``
and ``dur`` are in microseconds as the format requires.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Optional, Sequence, Union

from repro.obs.analyze import phase_of
from repro.obs.spans import Span, SpanColumns, SpanTracer

__all__ = [
    "normalize_spans",
    "spans_to_chrome_json",
    "spans_to_csv",
    "tracers_to_chrome_json",
]

SpansLike = Union[SpanTracer, SpanColumns]

#: One simulated time unit = 1 ms; Chrome trace timestamps are in µs.
_US_PER_UNIT = 1000.0


def normalize_spans(spans: SpansLike) -> list[Span]:
    """Spans with txn ids densely renumbered by first appearance.

    The spans are read from a tracer's columns straight into renumbered
    views.  Each keeps its site and sequence, so its ``span_id`` is the
    original's with the txn part renumbered, and it is linked to its
    parent's renumbered view.
    """
    columns = spans.spans if isinstance(spans, SpanTracer) else spans
    first_seen = dict.fromkeys(columns.txn)
    renumber = {txn_id: n for n, txn_id in enumerate(first_seen, start=1)}
    return list(columns.views(range(len(columns)), renumber))


def _chrome_events(spans: Iterable[Span], pid: int) -> list[dict]:
    events = []
    for span in spans:
        args = {
            "span": span.span_id,
            "parent": span.parent_id or "",
            "site": span.site,
        }
        attrs = span.attrs
        for key in sorted(attrs):
            args[key] = str(attrs[key])
        events.append(
            {
                "name": span.name,
                "cat": phase_of(span.name) or "structure",
                "ph": "X",
                "ts": span.start * _US_PER_UNIT,
                "dur": span.duration * _US_PER_UNIT,
                "pid": pid,
                "tid": span.txn_id,
                "args": args,
            }
        )
    return events


def spans_to_chrome_json(spans: SpansLike, *, label: str = "rainbow") -> str:
    """Chrome trace-event JSON for one session's spans."""
    return tracers_to_chrome_json([(label, spans)])


def tracers_to_chrome_json(labeled: Sequence[tuple[str, SpansLike]]) -> str:
    """Chrome trace-event JSON for several sessions (one pid each)."""
    events: list[dict] = []
    for pid, (label, spans) in enumerate(labeled, start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
        )
        events.extend(_chrome_events(normalize_spans(spans), pid))
    return json.dumps(
        {"displayTimeUnit": "ms", "traceEvents": events},
        sort_keys=True,
        indent=1,
    )


def spans_to_csv(spans: SpansLike, path: Optional[str] = None) -> str:
    """Flat per-span CSV (one row per span, attrs as sorted JSON)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "txn_id",
            "span_id",
            "parent_id",
            "name",
            "phase",
            "site",
            "start",
            "end",
            "duration",
            "attrs",
        ]
    )
    for span in normalize_spans(spans):
        writer.writerow(
            [
                span.txn_id,
                span.span_id,
                span.parent_id or "",
                span.name,
                phase_of(span.name) or "",
                span.site,
                f"{span.start:.6f}",
                "" if span.end is None else f"{span.end:.6f}",
                f"{span.duration:.6f}",
                json.dumps(span.attrs, sort_keys=True, default=str),
            ]
        )
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
