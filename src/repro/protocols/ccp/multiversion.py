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

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Optional

from repro.errors import ConcurrencyAbort
from repro.protocols.ccp.workspace import TimestampController
from repro.site.storage import LocalStore
from repro.sim.kernel import Event, Simulator

__all__ = ["MultiversionTimestampController"]


@dataclass
class _Version:
    wts: float
    value: Any
    rts: float


_by_wts = attrgetter("wts")


@dataclass
class _MvItem:
    versions: list[_Version] = field(default_factory=list)  # sorted by wts
    pending: dict[int, float] = field(default_factory=dict)  # txn -> ts
    waiters: list[tuple[Event, object]] = field(default_factory=list)  # (event, timer)

    def select(self, ts: float) -> Optional[_Version]:
        """Committed version with the largest wts <= ts."""
        index = bisect_right(self.versions, ts, key=_by_wts) - 1
        return self.versions[index] if index >= 0 else None

    def insert(self, version: _Version) -> None:
        self.versions.insert(bisect_right(self.versions, version.wts, key=_by_wts), version)


class MultiversionTimestampController(TimestampController):
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
        super().__init__(sim, store, wait_timeout=wait_timeout)
        self.max_versions = max_versions

    def _new_record(self, item: str) -> _MvItem:
        value, version = self.store.read(item)
        return _MvItem(versions=[_Version(wts=float(version), value=value, rts=float(version))])

    # -- operations -------------------------------------------------------------
    def _read_at(self, txn_id: int, ts: float, item: str, record: _MvItem) -> Any:
        written, value = self._buffered_value(txn_id, item)
        if written:
            return value, self.store.version(item)
        chosen = record.select(ts)
        if chosen is None:
            # No committed version at or below ts (only possible with
            # negative timestamps); treat like a too-late read.
            raise ConcurrencyAbort(f"MVTO: no version of {item!r} at ts={ts:.4f}")
        blocking = any(
            chosen.wts < pts <= ts
            for pending_txn, pts in record.pending.items()
            if pending_txn != txn_id
        )
        if blocking:
            return self._wait(record, self._reread, txn_id, ts, item, record)
        chosen.rts = max(chosen.rts, ts)
        return chosen.value, chosen.wts

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> Any:
        self._check_doom(txn_id)
        record = self._item(item)
        chosen = record.select(ts)
        if chosen is not None and chosen.rts > ts:
            raise ConcurrencyAbort(
                f"MVTO prewrite invalidates read: rts={chosen.rts:.4f} > ts={ts:.4f} on {item!r}"
            )
        return self._pend(txn_id, ts, item, value, record)

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
            self._wake(record)
            # Mirror the newest version into the single-version store so
            # quorum version numbers and recovery are CCP-independent.
            newest = record.versions[-1]
            self.store.apply(item, newest.value, newest.wts, txn_id, self.sim.now)
        self._drop(txn_id)

    # -- introspection (used by tests and the monitor) ----------------------------
    def version_count(self, item: str) -> int:
        """Number of committed versions currently kept for ``item``."""
        return len(self._item(item).versions)
