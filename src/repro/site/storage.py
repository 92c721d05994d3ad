"""Per-site local storage: versioned committed copies of database items.

Each Rainbow site stores the *local copies* of the items the catalog places
on it.  A copy carries a monotonically increasing ``version`` number — the
currency token quorum consensus uses to pick the most recent value in a read
quorum and to stamp writes (new version = max version in the write quorum
plus one).

The store only ever holds *committed* state.  Uncommitted writes live in
per-transaction workspaces owned by the concurrency controller and reach the
store through :meth:`LocalStore.apply` at commit time, after the WAL has
made them durable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.errors import CatalogError

__all__ = ["Copy", "LocalStore"]


@dataclass
class Copy:
    """One committed local copy of an item."""

    item: str
    value: Any
    version: int = 0

    def as_tuple(self) -> tuple[Any, int]:
        return (self.value, self.version)


class WriteRecord(NamedTuple):
    """An applied write, kept for audit/history checking.

    The store keeps each one as a plain tuple of atomics, which the garbage
    collector stops tracking; :attr:`LocalStore.audit_log` builds these
    named views on demand.
    """

    item: str
    value: Any
    version: int
    txn_id: int
    at: float


class LocalStore:
    """The committed key/value/version store of one site."""

    def __init__(self, site_name: str):
        self.site_name = site_name
        self._copies: dict[str, Copy] = {}
        self._audit: list[tuple] = []  # WriteRecord fields, as plain tuples
        self.reads_served = 0
        self.writes_applied = 0

    # -- schema ------------------------------------------------------------
    def create_copy(self, item: str, initial_value: Any = 0) -> Copy:
        """Install the local copy of ``item`` (version 0)."""
        if item in self._copies:
            raise CatalogError(f"site {self.site_name}: copy of {item!r} already exists")
        copy = Copy(item=item, value=initial_value, version=0)
        self._copies[item] = copy
        return copy

    def has_copy(self, item: str) -> bool:
        """True if this site holds a copy of ``item``."""
        return item in self._copies

    def items(self) -> list[str]:
        """Item names stored here, sorted."""
        return sorted(self._copies)

    # -- access ------------------------------------------------------------
    def read(self, item: str) -> tuple[Any, int]:
        """Return ``(value, version)`` of the committed copy."""
        copy = self._get(item)
        self.reads_served += 1
        return copy.as_tuple()

    def version(self, item: str) -> int:
        """Current committed version of the copy."""
        return self._get(item).version

    def apply(self, item: str, value: Any, version: int, txn_id: int, at: float) -> None:
        """Install a committed write.

        Versions never move backwards: a write carrying a version lower than
        the committed one is ignored (Thomas-write-rule flavour; this only
        arises for QC writes racing with recovery, and dropping the stale
        write is the correct outcome).
        """
        copy = self._get(item)
        if version < copy.version:
            return
        copy.value = value
        copy.version = version
        self.writes_applied += 1
        self._audit.append((item, value, version, txn_id, at))

    @property
    def audit_log(self) -> list[WriteRecord]:
        """Every applied write in order (a fresh list of views)."""
        return list(map(WriteRecord._make, self._audit))

    def reset_value(self, item: str, value: Any) -> None:
        """Administratively set a copy's value (pre-session bootstrap only).

        Keeps version 0 so the first transactional write still stamps
        version 1; not for use while transactions are running.
        """
        copy = self._get(item)
        copy.value = value
        copy.version = 0

    def snapshot(self) -> dict[str, tuple[Any, int]]:
        """Copy of the committed state (for panels, tests, recovery checks)."""
        return {name: copy.as_tuple() for name, copy in self._copies.items()}

    def _get(self, item: str) -> Copy:
        try:
            return self._copies[item]
        except KeyError:
            raise CatalogError(
                f"site {self.site_name} holds no copy of {item!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._copies)
