"""Causal span store for transaction tracing.

A *span* is a named time interval attributed to one transaction at one
site, optionally nested under a parent span.  The coordinator opens a
root span per transaction attempt; the replica-control, concurrency-
control, and atomic-commit layers open children; the network records one
span per delivered (or dropped) message.  Together they form a causal
DAG whose root-to-leaf paths explain where a transaction's latency went.

Determinism contract (enforced by rainbow-lint rule RB106): span ids are
derived purely from ``(txn_id, site, sequence)`` — never from ``id()``,
RNG draws, or the wall clock — and spans are appended in simulator
execution order.  Because the kernel schedules deterministically for a
given seed, the span list (ids, ordering, timestamps) is a pure function
of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Span", "SpanTracer"]


@dataclass(slots=True, eq=False)
class Span:
    """One named interval in a transaction's causal timeline.

    A session retains every span it records, so a span stores only what
    cannot be derived: its ``(txn_id, site, seq)`` identity, its parent
    *span* (not the parent's id), its times, and its attributes as two
    tuples — ``attr_keys``, shared by every span with the same key set,
    and ``attr_values``.  ``span_id``, ``parent_id`` and ``attrs`` are
    read-only views computed from those fields.
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


class SpanTracer:
    """Collects spans for one simulation session.

    One tracer is shared by the network, every site, and every
    coordinator context of a :class:`~repro.core.instance.RainbowInstance`
    (see ``RainbowInstance.enable_tracing``).  Ids follow the scheme
    ``t{txn_id}:{site}:{seq}`` where ``seq`` is a per-(txn, site) counter,
    so they are stable across processes and across ``-j N``.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.spans: list[Span] = []
        self._seq: dict[tuple[int, str], int] = {}
        # One keys tuple per distinct attribute key set, shared by spans.
        self._keys: dict[tuple[str, ...], tuple[str, ...]] = {}

    # -- recording ---------------------------------------------------------

    def _make(
        self,
        txn_id: int,
        site: str,
        name: str,
        parent: Optional[Span],
        start: float,
        end: Optional[float],
        attrs: dict[str, Any],
    ) -> Span:
        key = (txn_id, site)
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        keys = tuple(attrs)
        span = Span(
            txn_id,
            site,
            seq,
            name,
            parent,
            start,
            end,
            self._keys.setdefault(keys, keys),
            tuple(attrs.values()),
        )
        self.spans.append(span)
        return span

    def begin(
        self,
        txn_id: int,
        site: str,
        name: str,
        *,
        parent: Optional[Span] = None,
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; close it later with :meth:`finish`."""
        return self._make(
            txn_id, site, name, parent, self.sim.now if start is None else start, None, attrs
        )

    def finish(self, span: Span, end: Optional[float] = None) -> None:
        """Close an open span at ``end`` (default: simulated now)."""
        span.end = self.sim.now if end is None else end

    def record(
        self,
        txn_id: int,
        site: str,
        name: str,
        *,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-complete span (e.g. a message flight)."""
        return self._make(txn_id, site, name, parent, start, end, attrs)

    # -- views -------------------------------------------------------------

    def txn_ids(self) -> list[int]:
        """Traced transaction ids, ascending."""
        return sorted({span.txn_id for span in self.spans})

    def txn_spans(self, txn_id: int) -> list[Span]:
        """All spans of one transaction, in recording order."""
        return [span for span in self.spans if span.txn_id == txn_id]

    def root(self, txn_id: int) -> Optional[Span]:
        """The transaction's root (``txn``) span, if it was traced."""
        for span in self.spans:
            if span.txn_id == txn_id and span.name == "txn":
                return span
        return None

    def children(self, parent: Span) -> list[Span]:
        """Direct children of a span, in recording order."""
        return [span for span in self.spans if span.parent is parent]
