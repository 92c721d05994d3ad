"""Causal span store for transaction tracing.

A *span* is a named time interval attributed to one transaction at one
site, optionally nested under a parent span.  The coordinator opens a
root span per transaction attempt; the replica-control, concurrency-
control, and atomic-commit layers open children; the network records one
span per delivered (or dropped) message.  Together they form a causal
DAG whose root-to-leaf paths explain where a transaction's latency went.

A session retains every span it records, so the store keeps no object
per span: each span is one 28-byte row of :class:`SpanColumns` (two
4-byte ids, two times and a 4-byte tag naming its site, name and
attributes), and recording hands back a :class:`SpanRef` (transaction id
and row) for later ``finish`` and ``parent=`` arguments.  :class:`Span`
objects are read views, built only when the spans are read.

Determinism contract (enforced by rainbow-lint rule RB106): span ids are
derived purely from ``(txn_id, site, sequence)`` — never from ``id()``,
RNG draws, or the wall clock — and spans are appended in simulator
execution order.  Because the kernel schedules deterministically for a
given seed, the span list (ids, ordering, timestamps) is a pure function
of the seed.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from math import isnan
from typing import Any, Optional

__all__ = ["Span", "SpanColumns", "SpanRef", "SpanTracer"]

#: A row's site, name, attribute keys, attribute values and value types.
Tag = tuple[str, str, tuple[str, ...], tuple[Any, ...], tuple[type, ...]]


@dataclass(slots=True, eq=False)
class Span:
    """One named interval in a transaction's causal timeline.

    Reading a tracer's spans builds these views from its columns: the
    ``(txn_id, site, seq)`` identity, the parent *view* (not the parent's
    id), the times, and the attributes as two shared tuples —
    ``attr_keys`` and ``attr_values``.  ``span_id``, ``parent_id`` and
    ``attrs`` are read-only views computed from those fields.
    """

    txn_id: int
    site: str
    seq: int
    name: str
    parent: Optional[Span] = None
    start: float = 0.0
    end: Optional[float] = None
    attr_keys: tuple[str, ...] = ()
    attr_values: tuple[Any, ...] = ()

    @property
    def span_id(self) -> str:
        """``t{txn_id}:{site}:{seq}``."""
        return f"t{self.txn_id}:{self.site}:{self.seq}"

    @property
    def parent_id(self) -> Optional[str]:
        """The parent's ``span_id`` (``None`` for a root span)."""
        return None if self.parent is None else self.parent.span_id

    @property
    def attrs(self) -> dict[str, Any]:
        """The span's attributes as a fresh dict, in recording order."""
        return dict(zip(self.attr_keys, self.attr_values))

    @property
    def duration(self) -> float:
        """Span length; an unfinished span has zero duration."""
        if self.end is None:
            return 0.0
        return self.end - self.start


class SpanRef:
    """Handle to a recorded span: its transaction and its row."""

    __slots__ = ("txn_id", "row")

    def __init__(self, txn_id: int, row: int) -> None:
        self.txn_id = txn_id
        self.row = row


class SpanColumns(Sequence):
    """A session's spans as rows of flat columns, read as :class:`Span` views.

    A row is five numbers: ``txn`` and ``parent`` (-1 for a root) in
    4-byte ``array`` columns, ``start`` and ``end`` (NaN while a span is
    open) as doubles, and ``tag``, an index into ``tags``.  An id or row
    outside a column's range raises ``OverflowError``; nothing wraps.
    ``len()`` counts rows; indexing and iteration build views, each linked
    to its parent's view.

    A session has few distinct ``(site, name, attributes)`` combinations,
    so each is stored once, as a tag: the plain tuple ``(site, name,
    attr_keys, attr_values, value_types)``.  The values' types are part of
    a tag because ``(True,) == (1,)``: without them a ``vote=True`` row
    would share an ``attempt=1`` tag and export as ``1``.  A tag holds
    strings, numbers, tuples of them and built-in types, so the garbage
    collector stops tracking it.

    Recording fills only those columns.  The first read indexes the rows
    recorded since the last one: each transaction's rows, and each row's
    ``seq``, its ordinal among its transaction's rows at its site.
    """

    def __init__(self) -> None:
        self.txn = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("I")
        self.tags: list[Tag] = []
        # Read-side index, extended by each read to the rows recorded since.
        self.seq = array("i")
        self._by_txn: dict[int, array] = {}
        self._per_site: dict[tuple[int, str], int] = {}

    def __len__(self) -> int:
        return len(self.txn)

    def __getitem__(self, index):
        rows = range(len(self.txn))
        if isinstance(index, slice):
            return list(self.views(rows[index]))
        row = rows[index]
        self._index()
        parent = self.parent[row]
        return self._view(row, None if parent < 0 else self[parent], self.txn[row])

    def __iter__(self) -> Iterator[Span]:
        yield from self.views(range(len(self.txn)))

    def _index(self) -> None:
        by_txn, per_site, tags = self._by_txn, self._per_site, self.tags
        for row in range(len(self.seq), len(self.txn)):
            txn_id = self.txn[row]
            rows = by_txn.get(txn_id)
            if rows is None:
                rows = by_txn[txn_id] = array("i")
            rows.append(row)
            key = (txn_id, tags[self.tag[row]][0])
            seq = per_site[key] = per_site.get(key, 0) + 1
            self.seq.append(seq)

    def _view(self, row: int, parent: Optional[Span], txn_id: int) -> Span:
        site, name, keys, values, _types = self.tags[self.tag[row]]
        end = self.end[row]
        return Span(
            txn_id,
            site,
            self.seq[row],
            name,
            parent,
            self.start[row],
            None if isnan(end) else end,
            keys,
            values,
        )

    def views(
        self, rows: Sequence[int], renumber: Optional[Mapping[int, int]] = None
    ) -> Iterator[Span]:
        """Views of ``rows``, each linked to one shared view of its parent.

        ``renumber`` maps each row's transaction id to the id its view
        carries, as the exporters' normalization does; a parent outside
        ``rows`` keeps its own id.  A parent's view is kept only until its
        last child in ``rows`` is built, so a streamed export holds the
        views of the open parents, not of every span.
        """
        self._index()
        txn, parents = self.txn, self.parent
        last_child = {parents[row]: row for row in rows}
        built: dict[int, Span] = {}
        for row in rows:
            parent_row = parents[row]
            parent = None
            if parent_row >= 0:
                parent = built.get(parent_row)
                if parent is None:
                    parent = built[parent_row] = self[parent_row]
                if last_child[parent_row] == row:
                    del built[parent_row]
            txn_id = txn[row] if renumber is None else renumber[txn[row]]
            view = self._view(row, parent, txn_id)
            if row in last_child:
                built[row] = view
            yield view

    def rows_of(self, txn_id: int) -> Sequence[int]:
        """One transaction's rows, in recording order."""
        self._index()
        return self._by_txn.get(txn_id, ())


class SpanTracer:
    """Collects spans for one simulation session.

    One tracer is shared by the network, every site, and every
    coordinator context of a :class:`~repro.core.instance.RainbowInstance`
    (see ``RainbowInstance.enable_tracing``).  Ids follow the scheme
    ``t{txn_id}:{site}:{seq}`` where ``seq`` counts the transaction's
    spans at that site in recording order, so they are stable across
    processes and across ``-j N``.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.spans = SpanColumns()
        # Each distinct tag's row in ``spans.tags``, keyed by the tag itself.
        self._tag_of: dict[Tag, int] = {}
        # Keys and value-type tuples, shared by every tag that has them.
        self._shared: dict[tuple, tuple] = {}

    # -- recording ---------------------------------------------------------

    def _make(
        self,
        txn_id: int,
        site: str,
        name: str,
        parent: Optional[SpanRef],
        start: float,
        end: float,
        attrs: dict[str, Any],
    ) -> SpanRef:
        values = tuple(attrs.values())
        key = (site, name, tuple(attrs), values, tuple(map(type, values)))
        tag = self._tag_of.get(key)
        if tag is None:
            tag = self._new_tag(*key)
        columns = self.spans
        row = len(columns.txn)
        columns.txn.append(txn_id)
        columns.parent.append(-1 if parent is None else parent.row)
        columns.start.append(start)
        columns.end.append(end)
        columns.tag.append(tag)
        return SpanRef(txn_id, row)

    def _new_tag(
        self,
        site: str,
        name: str,
        keys: tuple[str, ...],
        values: tuple[Any, ...],
        types: tuple[type, ...],
    ) -> int:
        shared = self._shared
        keys = shared.setdefault(keys, keys)
        types = shared.setdefault(types, types)
        entry = (site, name, keys, values, types)
        tags = self.spans.tags
        tag = self._tag_of[entry] = len(tags)
        tags.append(entry)
        return tag

    def begin(
        self,
        txn_id: int,
        site: str,
        name: str,
        *,
        parent: Optional[SpanRef] = None,
        start: Optional[float] = None,
        **attrs: Any,
    ) -> SpanRef:
        """Open a span; close it later with :meth:`finish`."""
        return self._make(
            txn_id,
            site,
            name,
            parent,
            self.sim.now if start is None else start,
            float("nan"),
            attrs,
        )

    def finish(self, span: SpanRef, end: Optional[float] = None) -> None:
        """Close an open span at ``end`` (default: simulated now)."""
        self.spans.end[span.row] = self.sim.now if end is None else end

    def record(
        self,
        txn_id: int,
        site: str,
        name: str,
        *,
        start: float,
        end: float,
        parent: Optional[SpanRef] = None,
        **attrs: Any,
    ) -> SpanRef:
        """Record an already-complete span (e.g. a message flight)."""
        return self._make(txn_id, site, name, parent, start, end, attrs)

    # -- views -------------------------------------------------------------

    def txn_ids(self) -> list[int]:
        """Traced transaction ids, ascending."""
        return sorted(set(self.spans.txn))

    def txn_spans(self, txn_id: int) -> list[Span]:
        """All spans of one transaction, in recording order."""
        columns = self.spans
        return list(columns.views(columns.rows_of(txn_id)))

    def root(self, txn_id: int) -> Optional[Span]:
        """The transaction's root (``txn``) span, if it was traced."""
        columns = self.spans
        tag, tags = columns.tag, columns.tags
        for row in columns.rows_of(txn_id):
            if tags[tag[row]][1] == "txn":
                return columns[row]
        return None
