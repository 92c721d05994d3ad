"""Multiversion timestamp ordering (MVTO).

The paper suggests "replacing … basic timestamp ordering by multi-versioning
TSO" as a term project; this is that extension.  Each item keeps a chain of
committed versions ``(wts, value, rts)``:

* ``read(ts)`` selects the version with the largest ``wts <= ts`` and
  advances its ``rts``.  Reads never get rejected; they only *wait* when a
  pending pre-write that the reader should observe (``chosen.wts < pts <=
  ts``) is still uncommitted.
* ``prewrite(ts)`` finds the same version; it is rejected only if that
  version was already read at some ``rts > ts`` (installing the new version
  would invalidate that read).

Read-heavy workloads therefore keep their throughput under contention —
the qualitative win EXP-CCP demonstrates.

The committed chain is mirrored into the site's single-version
:class:`~repro.site.storage.LocalStore` (latest version wins) so quorum
version numbers and recovery behave identically across CCPs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.errors import ConcurrencyAbort
from repro.protocols.ccp.workspace import WorkspaceController
from repro.site.storage import LocalStore
from repro.sim.kernel import Event, Simulator

__all__ = ["MultiversionTimestampController"]


@dataclass
class _Version:
    wts: float
    value: Any
    rts: float


@dataclass
class _MvItem:
    versions: list[_Version] = field(default_factory=list)  # sorted by wts
    pending: dict[int, float] = field(default_factory=dict)  # txn -> ts
    waiters: list[Event] = field(default_factory=list)

    def select(self, ts: float) -> Optional[_Version]:
        """Committed version with the largest wts <= ts."""
        keys = [v.wts for v in self.versions]
        index = bisect.bisect_right(keys, ts) - 1
        return self.versions[index] if index >= 0 else None

    def insert(self, version: _Version) -> None:
        keys = [v.wts for v in self.versions]
        self.versions.insert(bisect.bisect_right(keys, version.wts), version)

    def wake(self) -> None:
        waiters, self.waiters = self.waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed(None)


class MultiversionTimestampController(WorkspaceController):
    """MVTO over per-item version chains."""

    name = "MVTO"
    #: Versions under MVTO *are* writer timestamps; the coordinator must
    #: stamp writes with txn.ts rather than max(version)+1.
    timestamp_versions = True

    def __init__(
        self,
        sim: Simulator,
        store: LocalStore,
        *,
        wait_timeout: Optional[float] = 120.0,
        max_versions: int = 64,
    ):
        super().__init__(sim, store)
        self.wait_timeout = wait_timeout
        self.max_versions = max_versions
        self._items: dict[str, _MvItem] = {}
        self._ts_of: dict[int, float] = {}

    def _item(self, item: str) -> _MvItem:
        record = self._items.get(item)
        if record is None:
            value, version = self.store.read(item)
            record = _MvItem(versions=[_Version(wts=float(version), value=value, rts=float(version))])
            self._items[item] = record
        return record

    # -- operations -------------------------------------------------------------
    def read(self, txn_id: int, ts: float, item: str) -> Generator:
        self._check_doom(txn_id)
        self.stats.reads += 1
        record = self._item(item)
        while True:
            written, value = self._buffered_value(txn_id, item)
            if written:
                return value, self.store.version(item)
            chosen = record.select(ts)
            if chosen is None:
                # No committed version at or below ts (only possible with
                # negative timestamps); treat like a too-late read.
                self.stats.rejections += 1
                raise ConcurrencyAbort(f"MVTO: no version of {item!r} at ts={ts:.4f}")
            blocking = any(
                chosen.wts < pts <= ts
                for pending_txn, pts in record.pending.items()
                if pending_txn != txn_id
            )
            if blocking:
                self.stats.waits += 1
                yield self._wait(record)
                self._check_doom(txn_id)
                continue
            chosen.rts = max(chosen.rts, ts)
            return chosen.value, chosen.wts

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> Generator:
        self._check_doom(txn_id)
        self.stats.prewrites += 1
        record = self._item(item)
        chosen = record.select(ts)
        if chosen is not None and chosen.rts > ts:
            self.stats.rejections += 1
            raise ConcurrencyAbort(
                f"MVTO prewrite invalidates read: rts={chosen.rts:.4f} > ts={ts:.4f} on {item!r}"
            )
        self._buffer(txn_id, item, value)
        record.pending[txn_id] = ts
        self._ts_of[txn_id] = ts
        return self.store.version(item)
        yield  # pragma: no cover - generator marker

    # -- termination -------------------------------------------------------------
    def commit(self, txn_id: int, versions: dict[str, int]) -> None:
        ts = self._ts_of.pop(txn_id, None)
        workspace = self.buffered_writes(txn_id)
        for item, value in workspace.items():
            record = self._item(item)
            pts = record.pending.pop(txn_id, ts if ts is not None else 0.0)
            record.insert(_Version(wts=pts, value=value, rts=pts))
            if len(record.versions) > self.max_versions:
                del record.versions[0: len(record.versions) - self.max_versions]
            record.wake()
            # Mirror the newest version into the single-version store so
            # quorum version numbers and recovery are CCP-independent.
            newest = record.versions[-1]
            self.store.apply(item, newest.value, newest.wts, txn_id, self.sim.now)
        self._drop(txn_id)
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
                    event.fail(ConcurrencyAbort("MVTO state cleared (site crash)"))
        self._items.clear()
        self._workspace.clear()
        self._doomed.clear()
        self._ts_of.clear()

    # -- introspection (used by tests and the monitor) ----------------------------
    def version_count(self, item: str) -> int:
        """Number of committed versions currently kept for ``item``."""
        return len(self._item(item).versions)

    # -- helpers ---------------------------------------------------------------------
    def _wait(self, record: _MvItem) -> Event:
        event = self.sim.event(name="mvto-wait")
        record.waiters.append(event)
        if self.wait_timeout is not None:

            def _expire() -> None:
                if not event.triggered:
                    self.stats.rejections += 1
                    event.fail(ConcurrencyAbort("MVTO wait timeout"))

            self.sim.defer(self.wait_timeout, _expire)
        return event
