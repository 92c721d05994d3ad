"""Execution tracing: local and global histories.

Rainbow lets the user "observe local as well as global executions (history
and measured behavior and performance)".  The :class:`ExecutionTracer`
subscribes to every site's execution stream (``Site.subscribers``) and
records, per site, the local history of CCP-mediated operations — and, by
merging on simulated time, the global history of the whole instance.  Any
number of tracers (or other subscribers) can watch one instance at once.

Histories render in the textbook notation students know::

    r1[x]  w2[y=5]  p2  c2  a1

(read/write by transaction id, prepare, commit, abort), so a lab exercise
can literally print the interleaving an execution produced and discuss its
serializability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["TraceEvent", "ExecutionTracer", "format_history"]

EVENT_KINDS = ("read", "prewrite", "prepare", "precommit", "commit", "abort")


@dataclass
class TraceEvent:
    """One observed protocol event at one site."""

    at: float
    site: str
    kind: str  # one of EVENT_KINDS
    txn_id: int
    item: Optional[str] = None
    value: object = None
    version: Optional[float] = None

    def notation(self) -> str:
        """Textbook notation for this event."""
        if self.kind == "read":
            return f"r{self.txn_id}[{self.item}]"
        if self.kind == "prewrite":
            return f"w{self.txn_id}[{self.item}={self.value}]"
        if self.kind == "prepare":
            return f"p{self.txn_id}"
        if self.kind == "precommit":
            return f"pc{self.txn_id}"
        if self.kind == "commit":
            return f"c{self.txn_id}"
        return f"a{self.txn_id}"


def format_history(events: Iterable[TraceEvent], max_events: int | None = None) -> str:
    """Render a sequence of trace events as one history string."""
    ordered = sorted(events, key=lambda event: (event.at, event.txn_id))
    if max_events is not None:
        ordered = ordered[:max_events]
    return "  ".join(event.notation() for event in ordered)


class ExecutionTracer:
    """Collects local histories from every site of one instance.

    Constructing one subscribes its :meth:`record` to each site's execution
    stream: the site then reports every CCP-mediated operation and every
    termination event.  Tracing is opt-in (it costs memory) — sessions that
    only need statistics skip it.
    """

    def __init__(self, instance):
        self.sim = instance.sim
        self.events: list[TraceEvent] = []
        for site in instance.sites.values():
            site.subscribers.append(self.record)

    def record(self, kind: str, site: str, txn_id: int, item, value, version) -> None:
        """Append one event: the tracer's subscription to a site's stream."""
        if kind != "step":  # a coordinator's ACP step is no operation
            self.events.append(TraceEvent(self.sim.now, site, kind, txn_id, item, value, version))

    # -- views -------------------------------------------------------------------
    def local_events(self, site: str) -> list[TraceEvent]:
        """The local history of one site, in time order."""
        return sorted(
            (event for event in self.events if event.site == site),
            key=lambda event: (event.at, event.txn_id),
        )

    def global_events(self) -> list[TraceEvent]:
        """The merged global history, in time order."""
        return sorted(self.events, key=lambda event: (event.at, event.txn_id))

    def txn_events(self, txn_id: int) -> list[TraceEvent]:
        """Every event one transaction produced, across all sites."""
        return sorted(
            (event for event in self.events if event.txn_id == txn_id),
            key=lambda event: (event.at, event.site),
        )

    def local_history(self, site: str, max_events: int | None = None) -> str:
        """The local history string of one site."""
        return format_history(self.local_events(site), max_events)

    def global_history(self, max_events: int | None = None) -> str:
        """The global history string of the whole instance."""
        return format_history(self.global_events(), max_events)

    def operation_counts(self) -> dict[str, int]:
        """Events per kind (a quick sanity view for lab reports)."""
        counts: dict[str, int] = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
