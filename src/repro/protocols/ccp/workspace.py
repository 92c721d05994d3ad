"""Shared workspace machinery for concurrency controllers.

All three CCPs buffer uncommitted writes in a per-transaction, per-site
workspace and only touch the committed store at commit.  This base class
owns that workspace plus the *doomed* set (transactions that must abort —
wound-wait victims, or in-doubt leftovers recovery resolved to abort), and
the timed reader waits of the timestamp controllers (TSO, MVTO).
:class:`TimestampController` adds what TSO and MVTO share on top: per-item
records with pending pre-writes, each transaction's timestamp, and the
abort, recovery and crash paths over them.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.errors import ConcurrencyAbort
from repro.protocols.base import ConcurrencyController, Wait, wait_for
from repro.sim.kernel import Simulator
from repro.site.storage import LocalStore

__all__ = ["WorkspaceController", "TimestampController"]


class WorkspaceController(ConcurrencyController):
    """Base class: workspace + doom handling; subclasses add the ordering."""

    #: How long a reader parked by :meth:`_wait` may wait (``None``: forever).
    wait_timeout: Optional[float] = None

    def __init__(self, sim: Simulator, store: LocalStore):
        self.sim = sim
        self.store = store
        self._workspace: dict[int, dict[str, Any]] = {}
        self._doomed: set[int] = set()

    # -- workspace ------------------------------------------------------------
    def buffered_writes(self, txn_id: int) -> dict[str, Any]:
        return dict(self._workspace.get(txn_id, {}))

    def _buffer(self, txn_id: int, item: str, value: Any) -> None:
        self._workspace.setdefault(txn_id, {})[item] = value

    def _buffered_value(self, txn_id: int, item: str):
        """``(True, value)`` if the txn wrote ``item`` here, else ``(False, None)``."""
        workspace = self._workspace.get(txn_id)
        if workspace is not None and item in workspace:
            return True, workspace[item]
        return False, None

    def _drop(self, txn_id: int) -> dict[str, Any]:
        self._doomed.discard(txn_id)
        return self._workspace.pop(txn_id, {})

    # -- dooming ------------------------------------------------------------
    def doom(self, txn_id: int) -> None:
        self._doomed.add(txn_id)

    def is_doomed(self, txn_id: int) -> bool:
        return txn_id in self._doomed

    def _check_doom(self, txn_id: int) -> None:
        if txn_id in self._doomed:
            raise ConcurrencyAbort(f"txn{txn_id} doomed at site {self.store.site_name}")

    # -- reader waits (TSO, MVTO) -------------------------------------------------
    def _wait(self, record, then: Callable[..., Any], *args: Any) -> Wait:
        """Park a reader on ``record.waiters``; ``then(*args)`` continues it.

        The wait ends at :meth:`_wake` or, failed, at the timeout.
        """
        event = self.sim.event(name=f"{self.name.lower()}-wait")
        timer = None
        if self.wait_timeout is not None:  # _wake cancels it: it fails only a pending wait
            timeout = ConcurrencyAbort(f"{self.name} wait timeout")
            timer = self.sim.defer(self.wait_timeout, event.fail, timeout)
        record.waiters.append((event, timer))
        return wait_for(event, partial(then, *args))

    def _wake(self, record, failure: Optional[str] = None) -> None:
        """Resume every reader parked on ``record`` (or fail it with ``failure``)."""
        waiters, record.waiters = record.waiters, []
        for event, timer in waiters:
            if timer is not None:
                self.sim.cancel(timer)
            if event.triggered:
                continue
            if failure is None:
                event.succeed(None)
            else:
                event.fail(ConcurrencyAbort(failure))

    # -- recovery ------------------------------------------------------------
    def reinstate(self, txn_id: int, ts: float, writes: dict[str, Any]) -> None:
        """Rebuild the workspace of an in-doubt transaction after a crash.

        Subclasses additionally restore their ordering state (locks for
        2PL, pending pre-writes for TSO/MVTO) so that the in-doubt
        transaction keeps excluding conflicting work until its decision is
        learned — the essence of why 2PC "blocks".
        """
        for item, value in writes.items():
            self._buffer(txn_id, item, value)

    # -- bookkeeping ------------------------------------------------------------
    def active_transactions(self) -> set[int]:
        return set(self._workspace)

    def _apply_workspace(self, txn_id: int, versions: dict[str, int]) -> None:
        """Write the workspace into the committed store."""
        for item, value in self._drop(txn_id).items():
            version = versions.get(item)
            if version is None:
                version = self.store.version(item) + 1
            self.store.apply(item, value, version, txn_id, self.sim.now)


class TimestampController(WorkspaceController):
    """Base class of TSO and MVTO: per-item records with pending pre-writes.

    A record is whatever :meth:`_new_record` builds for an item; it must
    carry ``pending`` (txn id -> timestamp of its accepted pre-write) and
    ``waiters`` (the readers :meth:`_wait` parked on it).
    """

    def __init__(
        self, sim: Simulator, store: LocalStore, *, wait_timeout: Optional[float] = 120.0
    ):
        super().__init__(sim, store)
        self.wait_timeout = wait_timeout
        self._items: dict[str, Any] = {}
        self._ts_of: dict[int, float] = {}

    def _new_record(self, item: str) -> Any:
        """A fresh ordering record for ``item``."""
        raise NotImplementedError

    def _item(self, item: str) -> Any:
        record = self._items.get(item)
        if record is None:
            record = self._new_record(item)
            self._items[item] = record
        return record

    def read(self, txn_id: int, ts: float, item: str) -> Any:
        self._check_doom(txn_id)
        return self._read_at(txn_id, ts, item, self._item(item))

    def _read_at(self, txn_id: int, ts: float, item: str, record) -> Any:
        """One try at reading ``record``: the answer, or a reader :meth:`_wait`."""
        raise NotImplementedError

    def _reread(self, txn_id: int, ts: float, item: str, record) -> Any:
        self._check_doom(txn_id)  # doomed while it waited
        return self._read_at(txn_id, ts, item, record)

    def _pend(self, txn_id: int, ts: float, item: str, value: Any, record) -> float:
        """Accept a pre-write: buffer it, mark it pending; returns the current version."""
        self._buffer(txn_id, item, value)
        record.pending[txn_id] = ts
        self._ts_of[txn_id] = ts
        return self.store.version(item)

    def abort(self, txn_id: int) -> None:
        self._ts_of.pop(txn_id, None)
        for item in self.buffered_writes(txn_id):
            record = self._item(item)
            record.pending.pop(txn_id, None)
            self._wake(record)
        self._drop(txn_id)

    def reinstate(self, txn_id: int, ts: float, writes: dict[str, Any]) -> None:
        super().reinstate(txn_id, ts, writes)
        self._ts_of[txn_id] = ts
        for item in writes:
            self._item(item).pending[txn_id] = ts

    def clear(self) -> None:
        for record in self._items.values():
            self._wake(record, f"{self.name} state cleared (site crash)")
        self._items.clear()
        self._workspace.clear()
        self._doomed.clear()
        self._ts_of.clear()
