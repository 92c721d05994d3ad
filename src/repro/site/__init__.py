"""Rainbow site substrate: storage, WAL, locks, deadlocks, and the site."""

from repro.site.deadlock import DeadlockDetector, ProbeTypes
from repro.site.locks import LockManager, LockMode, LockStats
from repro.site.site import Site, SiteStats
from repro.site.storage import Copy, LocalStore
from repro.site.wal import LogRecord, WriteAheadLog

__all__ = [
    "Copy",
    "DeadlockDetector",
    "LocalStore",
    "LockManager",
    "LockMode",
    "LockStats",
    "LogRecord",
    "ProbeTypes",
    "Site",
    "SiteStats",
    "WriteAheadLog",
]
