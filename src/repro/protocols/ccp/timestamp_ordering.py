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
from typing import Any, Generator, Optional

from repro.errors import ConcurrencyAbort
from repro.protocols.ccp.workspace import WorkspaceController
from repro.site.storage import LocalStore
from repro.sim.kernel import Event, Simulator

__all__ = ["TimestampOrderingController"]


@dataclass
class _TsoItem:
    read_ts: float = -1.0
    write_ts: float = -1.0
    pending: dict[int, float] = field(default_factory=dict)  # txn -> ts
    waiters: list[Event] = field(default_factory=list)

    def min_pending_below(self, ts: float) -> Optional[float]:
        smaller = [pts for pts in self.pending.values() if pts < ts]
        return min(smaller) if smaller else None

    def wake(self) -> None:
        waiters, self.waiters = self.waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed(None)


class TimestampOrderingController(WorkspaceController):
    """Basic TO with pre-write buffering."""

    name = "TSO"
    #: Under TO the installation order of writes is timestamp order, so the
    #: coordinator must stamp writes with txn.ts: two concurrent writers
    #: would otherwise both compute version max+1 and the store could apply
    #: them in arrival order instead of ts order (a lost update the
    #: serializability property test caught).  With ts versions the store's
    #: version check *is* the Thomas write rule.
    timestamp_versions = True

    def __init__(
        self,
        sim: Simulator,
        store: LocalStore,
        *,
        wait_timeout: Optional[float] = 120.0,
    ):
        super().__init__(sim, store)
        self.wait_timeout = wait_timeout
        self._items: dict[str, _TsoItem] = {}
        self._ts_of: dict[int, float] = {}

    def _item(self, item: str) -> _TsoItem:
        record = self._items.get(item)
        if record is None:
            record = _TsoItem()
            self._items[item] = record
        return record

    # -- operations -----------------------------------------------------------
    def read(self, txn_id: int, ts: float, item: str) -> Generator:
        self._check_doom(txn_id)
        self.stats.reads += 1
        record = self._item(item)
        while True:
            written, value = self._buffered_value(txn_id, item)
            if written:
                return value, self.store.version(item)
            if ts < record.write_ts:
                self.stats.rejections += 1
                raise ConcurrencyAbort(
                    f"TSO read too late: ts={ts:.4f} < write_ts={record.write_ts:.4f} on {item!r}"
                )
            if record.min_pending_below(ts) is not None:
                self.stats.waits += 1
                yield self._wait(record)
                self._check_doom(txn_id)
                continue
            record.read_ts = max(record.read_ts, ts)
            return self.store.read(item)

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> Generator:
        self._check_doom(txn_id)
        self.stats.prewrites += 1
        record = self._item(item)
        if ts < record.read_ts or ts < record.write_ts:
            self.stats.rejections += 1
            raise ConcurrencyAbort(
                f"TSO prewrite too late: ts={ts:.4f} vs read_ts={record.read_ts:.4f}, "
                f"write_ts={record.write_ts:.4f} on {item!r}"
            )
        self._buffer(txn_id, item, value)
        record.pending[txn_id] = ts
        self._ts_of[txn_id] = ts
        return self.store.version(item)
        yield  # pragma: no cover - makes this a generator like its siblings

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
            record.wake()
        self._apply_workspace(txn_id, versions)
        self.stats.commits += 1

    def abort(self, txn_id: int) -> None:
        self._ts_of.pop(txn_id, None)
        for item in self.buffered_writes(txn_id):
            record = self._item(item)
            record.pending.pop(txn_id, None)
            record.wake()
        self._drop(txn_id)
        self.stats.aborts += 1

    def reinstate(self, txn_id: int, ts: float, writes: dict[str, Any]) -> None:
        super().reinstate(txn_id, ts, writes)
        self._ts_of[txn_id] = ts
        for item in writes:
            self._item(item).pending[txn_id] = ts

    def clear(self) -> None:
        for record in self._items.values():
            for event in record.waiters:
                if not event.triggered:
                    event.fail(ConcurrencyAbort("TSO state cleared (site crash)"))
        self._items.clear()
        self._workspace.clear()
        self._doomed.clear()
        self._ts_of.clear()

    # -- helpers -------------------------------------------------------------------
    def _wait(self, record: _TsoItem) -> Event:
        event = self.sim.event(name="tso-wait")
        record.waiters.append(event)
        if self.wait_timeout is not None:

            def _expire() -> None:
                if not event.triggered:
                    self.stats.rejections += 1
                    event.fail(ConcurrencyAbort("TSO wait timeout"))

            self.sim.defer(self.wait_timeout, _expire)
        return event
