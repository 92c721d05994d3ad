"""Transaction model: operations, statuses, abort causes.

A Rainbow transaction is a flat sequence of read/write operations over
logical items, processed one at a time by the replication controller at the
transaction's *home site* and terminated by the atomic commit protocol
("When all operations of a transaction are processed by the RCP, the home
site initiates a two-phase commit session").
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import WorkloadError

__all__ = ["OpKind", "Operation", "TxnStatus", "Transaction", "txn_id_scope"]


@contextmanager
def txn_id_scope(start: int = 1):
    """A no-op kept for callers written when ids were process-global.

    Each session (:class:`~repro.core.instance.RainbowInstance`) numbers
    its own transactions from 1, so there is no counter left to scope.
    ``perfbench/session.py`` still wraps its sessions in this block; drop
    both together.
    """
    yield


class OpKind:
    """Operation kinds."""

    READ = "R"
    WRITE = "W"
    INCREMENT = "I"  # read-modify-write: write(read(item) + delta)


@dataclass
class Operation:
    """One logical read, write, or increment.

    An increment is the classic read-modify-write: the coordinator reads
    the item through the RCP, adds ``value`` (the delta), and writes the
    result back — making lost updates *observable in the data*, which the
    counter-invariant tests exploit.
    """

    kind: str
    item: str
    value: Any = None

    def __post_init__(self):
        if self.kind not in (OpKind.READ, OpKind.WRITE, OpKind.INCREMENT):
            raise WorkloadError(f"unknown operation kind {self.kind!r}")
        if self.kind == OpKind.READ and self.value is not None:
            raise WorkloadError("read operations carry no value")
        if self.kind == OpKind.INCREMENT and not isinstance(self.value, (int, float)):
            raise WorkloadError("increment operations need a numeric delta")

    @classmethod
    def read(cls, item: str) -> "Operation":
        """Shorthand for a read of ``item``."""
        return cls(OpKind.READ, item)

    @classmethod
    def write(cls, item: str, value: Any) -> "Operation":
        """Shorthand for a write of ``value`` to ``item``."""
        return cls(OpKind.WRITE, item, value)

    @classmethod
    def increment(cls, item: str, delta: float = 1) -> "Operation":
        """Shorthand for a read-modify-write adding ``delta``."""
        return cls(OpKind.INCREMENT, item, delta)

    def __str__(self) -> str:
        if self.kind == OpKind.READ:
            return f"r[{self.item}]"
        if self.kind == OpKind.INCREMENT:
            return f"i[{self.item}+={self.value}]"
        return f"w[{self.item}={self.value}]"


class TxnStatus:
    """Transaction lifecycle states."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class Transaction:
    """One transaction instance (a restart is a *new* Transaction)."""

    ops: list[Operation]
    home_site: str
    txn_id: int = 0  # 0 until the session admits it (see ``stamp``)
    ts: float = 0.0
    status: str = TxnStatus.PENDING
    abort_cause: Optional[str] = None  # "RCP" | "CCP" | "ACP" | "SYSTEM"
    abort_detail: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    decided_at: Optional[float] = None
    finished_at: Optional[float] = None
    reads: dict[str, Any] = field(default_factory=dict)
    read_versions: dict[str, int] = field(default_factory=dict)
    write_versions: dict[str, int] = field(default_factory=dict)
    attempt: int = 1
    template_id: Optional[int] = None  # stable across restarts
    # Coordinator died before logging a decision (the paper's "orphan
    # transactions" statistic); set by run_transaction's crash handler.
    orphaned: bool = False

    def __post_init__(self):
        if not self.ops:
            raise WorkloadError("transaction must have at least one operation")
        if self.template_id is None and self.txn_id:
            self.template_id = self.txn_id

    def stamp(self, txn_ids: Iterator[int]) -> "Transaction":
        """Take the next id from the session's ``txn_ids`` unless numbered.

        A first attempt's template id is its own id; a restart keeps the
        template it was built with.
        """
        if not self.txn_id:
            self.txn_id = next(txn_ids)
            if self.template_id is None:
                self.template_id = self.txn_id
        return self

    @property
    def committed(self) -> bool:
        return self.status == TxnStatus.COMMITTED

    @property
    def aborted(self) -> bool:
        return self.status == TxnStatus.ABORTED

    @property
    def response_time(self) -> Optional[float]:
        """Submission-to-decision latency (None until decided)."""
        if self.decided_at is None:
            return None
        return self.decided_at - self.submitted_at

    @property
    def read_set(self) -> list[str]:
        """Items read (increments read too), in order, without duplicates."""
        seen: list[str] = []
        for op in self.ops:
            if op.kind in (OpKind.READ, OpKind.INCREMENT) and op.item not in seen:
                seen.append(op.item)
        return seen

    @property
    def write_set(self) -> list[str]:
        """Items written (increments write too), in order, no duplicates."""
        seen: list[str] = []
        for op in self.ops:
            if op.kind in (OpKind.WRITE, OpKind.INCREMENT) and op.item not in seen:
                seen.append(op.item)
        return seen

    def restarted(self) -> "Transaction":
        """A fresh transaction re-running the same operations."""
        return Transaction(
            ops=list(self.ops),
            home_site=self.home_site,
            attempt=self.attempt + 1,
            template_id=self.template_id,
        )

    def __str__(self) -> str:
        body = " ".join(str(op) for op in self.ops)
        return f"T{self.txn_id}@{self.home_site}: {body}"
