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

Both are written as they are read, a few events or one row at a time, so
an export holds no copy of the whole trace unless it returns the text.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import islice
from typing import Iterator, Optional, Sequence, TextIO, Union

from repro.obs.analyze import phase_of
from repro.obs.spans import Span, SpanColumns, SpanTracer

__all__ = [
    "chrome_json_chunks",
    "normalize_spans",
    "spans_to_chrome_json",
    "spans_to_csv",
    "tracers_to_chrome_json",
]

SpansLike = Union[SpanTracer, SpanColumns]

#: One simulated time unit = 1 ms; Chrome trace timestamps are in µs.
_US_PER_UNIT = 1000.0

#: Events encoded together by :func:`chrome_json_chunks`.  Encoding one
#: event per call made the export about a fifth slower: each call builds
#: the pure-Python encoder's closures afresh.
_EVENTS_PER_PIECE = 64


def _renumbered(spans: SpansLike) -> Iterator[Span]:
    columns = spans.spans if isinstance(spans, SpanTracer) else spans
    first_seen = dict.fromkeys(columns.txn)
    renumber = {txn_id: n for n, txn_id in enumerate(first_seen, start=1)}
    yield from columns.views(range(len(columns)), renumber)


def normalize_spans(spans: SpansLike) -> list[Span]:
    """Spans with txn ids densely renumbered by first appearance.

    The spans are read from a tracer's columns straight into renumbered
    views.  Each keeps its site and sequence, so its ``span_id`` is the
    original's with the txn part renumbered, and it is linked to its
    parent's renumbered view.  The exporters read the same views one at a
    time instead of as a list.
    """
    return list(_renumbered(spans))


def _chrome_events(label: str, spans: SpansLike, pid: int) -> Iterator[dict]:
    yield {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
    for span in _renumbered(spans):
        args = {
            "span": span.span_id,
            "parent": span.parent_id or "",
            "site": span.site,
        }
        attrs = span.attrs
        for key in sorted(attrs):
            args[key] = str(attrs[key])
        yield {
            "name": span.name,
            "cat": phase_of(span.name) or "structure",
            "ph": "X",
            "ts": span.start * _US_PER_UNIT,
            "dur": span.duration * _US_PER_UNIT,
            "pid": pid,
            "tid": span.txn_id,
            "args": args,
        }


def spans_to_chrome_json(spans: SpansLike, *, label: str = "rainbow") -> str:
    """Chrome trace-event JSON for one session's spans."""
    return tracers_to_chrome_json([(label, spans)])


def tracers_to_chrome_json(labeled: Sequence[tuple[str, SpansLike]]) -> str:
    """Chrome trace-event JSON for several sessions (one pid each)."""
    return "".join(chrome_json_chunks(labeled))


def chrome_json_chunks(labeled: Sequence[tuple[str, SpansLike]]) -> Iterator[str]:
    """:func:`tracers_to_chrome_json`'s text in pieces of 64 events.

    Each piece is encoded on its own and indented into its place in the
    list, so the pieces join to exactly what one ``json.dumps(document,
    sort_keys=True, indent=1)`` gives, while only one piece's events are
    held at a time.  Write them out with ``handle.writelines(...)``.
    """
    encode = json.JSONEncoder(sort_keys=True, indent=1).encode
    events = (
        event
        for pid, (label, spans) in enumerate(labeled, start=1)
        for event in _chrome_events(label, spans, pid)
    )
    head = '{\n "displayTimeUnit": "ms",\n "traceEvents": ['
    separator = "\n"
    while batch := list(islice(events, _EVENTS_PER_PIECE)):
        # ``encode`` puts the batch's events one level deep; the document
        # nests them two deep.  Drop the batch's brackets, indent once more.
        yield head + separator + " " + encode(batch)[2:-2].replace("\n", "\n ")
        head, separator = "", ",\n"
    # ``head`` is still unsent only for an empty list, which closes on its
    # own line as ``json.dumps`` writes ``[]``.
    yield head + ("]\n}" if head else "\n ]\n}")


def spans_to_csv(spans: SpansLike, path: Optional[str] = None) -> Optional[str]:
    """Flat per-span CSV (one row per span, attrs as sorted JSON).

    Returns the text, or, given ``path``, writes it there row by row and
    returns ``None``.
    """
    if path is None:
        buffer = io.StringIO()
        _write_csv(spans, buffer)
        return buffer.getvalue()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(spans, handle)
    return None


def _write_csv(spans: SpansLike, handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
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
    for span in _renumbered(spans):
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
