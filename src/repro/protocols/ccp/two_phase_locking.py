"""Strict two-phase locking (2PL) concurrency controller.

Reads take shared locks, pre-writes take exclusive locks, and everything is
held until the transaction's global commit or abort reaches this site
(strict 2PL — required for 2PC to be able to abort cleanly).  Deadlock
handling is delegated to the site's :class:`~repro.site.locks.LockManager`
and is configurable (detection, timeout, wait-die, wound-wait).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.protocols.base import wait_for
from repro.protocols.ccp.workspace import WorkspaceController
from repro.site.locks import LockManager, LockMode
from repro.site.storage import LocalStore
from repro.sim.kernel import Simulator

__all__ = ["TwoPhaseLockingController"]


class TwoPhaseLockingController(WorkspaceController):
    """Strict 2PL over the site's lock manager."""

    name = "2PL"
    lock_based = True

    def __init__(
        self,
        sim: Simulator,
        store: LocalStore,
        *,
        deadlock_strategy: str = "detect",
        wait_timeout: Optional[float] = 60.0,
    ):
        super().__init__(sim, store)
        self.locks = LockManager(
            sim,
            strategy=deadlock_strategy,
            wait_timeout=wait_timeout,
            on_wound=self.doom,
        )

    def read(self, txn_id: int, ts: float, item: str) -> Any:
        self._check_doom(txn_id)
        wait = self.locks.acquire(txn_id, ts, item, LockMode.S)
        if wait is not None:
            return wait_for(wait, partial(self._read_locked, txn_id, item))
        return self._read_locked(txn_id, item)

    def _read_locked(self, txn_id: int, item: str) -> tuple[Any, int]:
        self._check_doom(txn_id)  # wounded while waiting
        written, value = self._buffered_value(txn_id, item)
        if written:
            return value, self.store.version(item)
        return self.store.read(item)

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> Any:
        self._check_doom(txn_id)
        wait = self.locks.acquire(txn_id, ts, item, LockMode.X)
        if wait is not None:
            return wait_for(wait, partial(self._prewrite_locked, txn_id, item, value))
        return self._prewrite_locked(txn_id, item, value)

    def _prewrite_locked(self, txn_id: int, item: str, value: Any) -> int:
        self._check_doom(txn_id)
        self._buffer(txn_id, item, value)
        return self.store.version(item)

    def commit(self, txn_id: int, versions: dict[str, int]) -> None:
        self._apply_workspace(txn_id, versions)
        self.locks.release_all(txn_id)

    def abort(self, txn_id: int) -> None:
        self._drop(txn_id)
        self.locks.release_all(txn_id)

    def reinstate(self, txn_id: int, ts: float, writes: dict[str, Any]) -> None:
        super().reinstate(txn_id, ts, writes)
        # Right after a crash the lock table is empty, so these X locks are
        # granted immediately; they re-establish the exclusion the in-doubt
        # transaction held before the crash.
        for item in writes:
            self.locks.acquire(txn_id, ts, item, LockMode.X)

    def clear(self) -> None:
        self.locks.clear()
        self._workspace.clear()
        self._doomed.clear()
