"""Basic timestamp ordering (TSO) concurrency controller.

Each transaction carries a unique timestamp assigned at its home site.
Per item the controller tracks the largest committed read and write
timestamps plus the set of *pending* pre-writes (accepted but not yet
committed through 2PC).  The classic rules (Bernstein/Goodman "basic TO
with pre-write buffering"):

* ``read(ts)`` — rejected if ``ts < write_ts``; must *wait* while a pending
  pre-write with a smaller timestamp exists (the reader's correct value is
  still in flight); otherwise executes and advances ``read_ts``.
* ``prewrite(ts)`` — rejected if ``ts < read_ts`` or ``ts < write_ts``;
  otherwise buffered.  Pre-writes never wait, so a transaction with a
  smaller timestamp never waits for a larger one and the waits-for relation
  is acyclic: TSO has rejections and waits but no deadlocks.

A wait timeout (default generous) backstops pathological cases where the
blocking pre-write's coordinator crashed; the orphan-cleanup machinery in
the site normally resolves those first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConcurrencyAbort
from repro.protocols.ccp.workspace import TimestampController
from repro.sim.kernel import Event

__all__ = ["TimestampOrderingController"]


@dataclass
class _TsoItem:
    read_ts: float = -1.0
    write_ts: float = -1.0
    pending: dict[int, float] = field(default_factory=dict)  # txn -> ts
    waiters: list[tuple[Event, object]] = field(default_factory=list)  # (event, timer)

    def min_pending_below(self, ts: float) -> Optional[float]:
        smaller = [pts for pts in self.pending.values() if pts < ts]
        return min(smaller) if smaller else None


class TimestampOrderingController(TimestampController):
    """Basic TO with pre-write buffering."""

    name = "TSO"
    #: Under TO the installation order of writes is timestamp order, so the
    #: coordinator must stamp writes with txn.ts: two concurrent writers
    #: would otherwise both compute version max+1 and the store could apply
    #: them in arrival order instead of ts order (a lost update the
    #: serializability property test caught).  With ts versions the store's
    #: version check *is* the Thomas write rule.
    timestamp_versions = True

    def _new_record(self, item: str) -> _TsoItem:
        return _TsoItem()

    # -- operations -----------------------------------------------------------
    def _read_at(self, txn_id: int, ts: float, item: str, record: _TsoItem) -> Any:
        written, value = self._buffered_value(txn_id, item)
        if written:
            return value, self.store.version(item)
        if ts < record.write_ts:
            raise ConcurrencyAbort(
                f"TSO read too late: ts={ts:.4f} < write_ts={record.write_ts:.4f} on {item!r}"
            )
        if record.min_pending_below(ts) is not None:
            return self._wait(record, self._reread, txn_id, ts, item, record)
        record.read_ts = max(record.read_ts, ts)
        return self.store.read(item)

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> Any:
        self._check_doom(txn_id)
        record = self._item(item)
        if ts < record.read_ts or ts < record.write_ts:
            raise ConcurrencyAbort(
                f"TSO prewrite too late: ts={ts:.4f} vs read_ts={record.read_ts:.4f}, "
                f"write_ts={record.write_ts:.4f} on {item!r}"
            )
        return self._pend(txn_id, ts, item, value, record)

    # -- termination -----------------------------------------------------------
    def commit(self, txn_id: int, versions: dict[str, int]) -> None:
        ts = self._ts_of.pop(txn_id, None)
        for item in self.buffered_writes(txn_id):
            record = self._item(item)
            pts = record.pending.pop(txn_id, None)
            if pts is not None:
                record.write_ts = max(record.write_ts, pts)
            elif ts is not None:
                record.write_ts = max(record.write_ts, ts)
            self._wake(record)
        self._apply_workspace(txn_id, versions)
