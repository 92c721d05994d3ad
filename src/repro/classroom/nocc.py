"""NOCC — deliberately *broken* concurrency control, for teaching.

"The code can be distributed to students so they can gain hands-on
experience …  Term projects can be based on modifying Rainbow by adding a
protocol."  NOCC is the cautionary half of that exercise: a controller
that accepts every read and pre-write immediately, with no ordering at
all.  Under concurrent read-modify-write transactions it produces lost
updates, which the history checker then catches — demonstrating both what
concurrency control is *for* and how Rainbow's checker finds violations.

It registers as ``"NOCC"`` when :mod:`repro.classroom` is imported, so the
Protocols Configuration panel offers it like any student protocol.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.ccp.workspace import WorkspaceController

__all__ = ["NoConcurrencyController"]


class NoConcurrencyController(WorkspaceController):
    """No locks, no timestamps, no waits — and no isolation."""

    name = "NOCC"

    def read(self, txn_id: int, ts: float, item: str) -> tuple[Any, int]:
        self._check_doom(txn_id)
        written, value = self._buffered_value(txn_id, item)
        if written:
            return value, self.store.version(item)
        return self.store.read(item)

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> int:
        self._check_doom(txn_id)
        self._buffer(txn_id, item, value)
        return self.store.version(item)

    def commit(self, txn_id: int, versions: dict[str, int]) -> None:
        self._apply_workspace(txn_id, versions)

    def abort(self, txn_id: int) -> None:
        self._drop(txn_id)

    def clear(self) -> None:
        self._workspace.clear()
        self._doomed.clear()
