"""Per-site write-ahead log: the participant's state and its decisions.

The original Rainbow keeps everything in Java objects; for the classroom
exercises about atomicity and recovery we model the durable half explicitly.
The WAL survives site crashes (it is the simulated disk).  It records, per
transaction:

* ``PREPARE`` — the participant voted YES in 2PC and buffered its writes
  (the record carries the writes, so recovery can reinstate them);
* ``PRECOMMIT`` — the 3PC intermediate state;
* ``COMMIT`` / ``ABORT`` — the final decision (coordinator or participant);
* ``END`` — the coordinator collected every acknowledgement of its decision.

The PREPARE record *is* the participant's state: the site keeps no copy of
it.  :meth:`WriteAheadLog.prepared` finds a transaction's undecided PREPARE,
:meth:`WriteAheadLog.precommitted` its PRECOMMIT, and
:meth:`WriteAheadLog.in_doubt` lists every undecided PREPARE — the
transactions that voted YES and know no decision, Rainbow's "orphan
transactions" until the decision is re-learned from the coordinator.  The
site asks the same questions while it is up and after a crash, so the
answers cannot differ between the two.

The log forgets what recovery no longer needs as soon as a transaction is
decided (:meth:`WriteAheadLog.release`, the one way a record leaves the
log), by presumed-abort retention rules.  A decided transaction's
PREPARE/PRECOMMIT records go: the store is the durable image of a commit
(a fail-stop crash never loses it), and an abort is presumed.  Only a
decision that someone may still ask about stays — the coordinator's COMMIT
until its END, and, when the site's ACP has a precommit round (3PC), one
decision (COMMIT or ABORT) for the peers' termination queries, which
presume nothing.  That is the log's one ACP setting, ``keep_decisions``,
fixed when the site builds it; no record names its protocol.  A
fault-free 2PC session therefore leaves only the records of the
transactions still in flight.
The log is indexed by transaction, so a release and a decision lookup cost
what the transaction holds, not the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Mapping, Optional

__all__ = ["LogRecord", "WriteAheadLog"]

#: The ``writes`` of every record that carries none (read-only, shared).
NO_WRITES: Mapping[str, tuple[Any, int]] = MappingProxyType({})

_DECISIONS = ("COMMIT", "ABORT")


def _no_writes() -> Mapping[str, tuple[Any, int]]:
    return NO_WRITES


@dataclass(slots=True)
class LogRecord:
    """One durable log record.

    Records are slotted, and those without writes or peers share
    :data:`NO_WRITES` and ``()`` instead of holding empty containers of
    their own.  Records are never mutated after they are appended.
    """

    lsn: int
    txn_id: int
    kind: str  # "PREPARE" | "PRECOMMIT" | "COMMIT" | "ABORT" | "END"
    at: float
    writes: Mapping[str, tuple[Any, int]] = field(default_factory=_no_writes)
    coordinator: Optional[str] = None  # address to ask for the decision
    ts: float = 0.0  # transaction timestamp (needed to reinstate TO state)
    peers: tuple[str, ...] = ()  # 3PC termination set


class WriteAheadLog:
    """Durable log for one site, indexed by transaction.

    ``_live`` maps a transaction to its records still in the log, in LSN
    order; ``_retained`` maps a transaction whose records have been released
    to the one decision record the retention rules keep.

    ``keep_decisions`` is set under an ACP with a precommit round: its peers
    ask each other with no presumption, so any decision answers their
    termination queries.
    """

    def __init__(self, site_name: str, keep_decisions: bool = False):
        self.site_name = site_name
        self.keep_decisions = keep_decisions
        self._live: dict[int, list[LogRecord]] = {}
        self._retained: dict[int, LogRecord] = {}
        self._next_lsn = 1

    # -- appends -------------------------------------------------------------
    def log_prepare(
        self,
        txn_id: int,
        writes: dict[str, tuple[Any, int]],
        coordinator: Optional[str],
        at: float,
        ts: float = 0.0,
        peers: Optional[list[str]] = None,
    ) -> LogRecord:
        """Force a PREPARE record (participant voted YES)."""
        return self._append(
            "PREPARE", txn_id, at, writes=writes, coordinator=coordinator, ts=ts, peers=peers
        )

    def log_precommit(self, txn_id: int, at: float) -> LogRecord:
        """Force a PRECOMMIT record (3PC only)."""
        return self._append("PRECOMMIT", txn_id, at)

    def log_commit(self, txn_id: int, at: float, *, coordinator: Optional[str] = None) -> LogRecord:
        """Force a COMMIT decision record.

        ``coordinator`` distinguishes the record's role: ``None`` marks the
        coordinator's own decision record, an address marks a participant's
        copy of the decision.  The retention rules use the role (and
        ``keep_decisions``) to decide how long the record must outlive the
        decision — see :meth:`release`.
        """
        return self._append("COMMIT", txn_id, at, coordinator=coordinator)

    def log_abort(self, txn_id: int, at: float, *, coordinator: Optional[str] = None) -> LogRecord:
        """Force an ABORT decision record (roles as in :meth:`log_commit`)."""
        return self._append("ABORT", txn_id, at, coordinator=coordinator)

    def log_end(self, txn_id: int, at: float) -> LogRecord:
        """Mark a decided transaction fully acknowledged (presumed-abort END).

        Once the coordinator has collected every participant's decision
        acknowledgement, nobody can ever ask about the transaction again,
        so its COMMIT record no longer needs to survive.
        """
        return self._append("END", txn_id, at)

    def _append(
        self, kind, txn_id, at, writes=None, coordinator=None, ts=0.0, peers=None
    ) -> LogRecord:
        record = LogRecord(
            lsn=self._next_lsn,
            txn_id=txn_id,
            kind=kind,
            at=at,
            writes=dict(writes) if writes else NO_WRITES,
            coordinator=coordinator,
            ts=ts,
            peers=tuple(peers) if peers else (),
        )
        self._next_lsn += 1
        records = self._live.get(txn_id)
        if records is None:
            self._live[txn_id] = [record]
        else:
            records.append(record)
        return record

    # -- forgetting -----------------------------------------------------------
    def release(self, txn_id: int) -> int:
        """Drop what recovery no longer needs of a *decided* transaction.

        Presumed abort means a missing record answers ABORT, so everything
        goes except one decision record that someone may still ask about:
        the coordinator's COMMIT until an END marks the decision round fully
        acknowledged, or with ``keep_decisions`` the first decision record,
        because the termination protocol queries peers without presuming
        abort (END releases that too).  PREPARE and PRECOMMIT records go — the store
        is the durable image of a commit.  Costs O(the transaction's
        records); returns the number of records dropped.
        """
        records = self._live.pop(txn_id, ())
        kept = self._retained.pop(txn_id, None)
        dropped = len(records) + (kept is not None)
        for record in records:
            if record.kind == "END":
                return dropped
            if kept is None and record.kind in _DECISIONS and self._retains(record):
                kept = record
        if kept is None:
            return dropped
        self._retained[txn_id] = kept
        return dropped - 1

    def _retains(self, record: LogRecord) -> bool:
        """Whether a decision record may be asked about after its decision.

        With ``keep_decisions`` every decision answers its peers.  Otherwise
        only the coordinator's COMMIT (no ``coordinator`` address) is asked
        about, by DECISION_REQ until END; a missing ABORT is presumed.
        """
        return self.keep_decisions or (record.kind == "COMMIT" and record.coordinator is None)

    # -- queries -------------------------------------------------------------
    @property
    def records(self) -> list[LogRecord]:
        """Every record still in the log, in LSN order (a fresh list)."""
        records = list(self._retained.values())
        for txn_records in self._live.values():
            records += txn_records
        records.sort(key=attrgetter("lsn"))
        return records

    def _decision(self, txn_id: int, records) -> Optional[str]:
        """The latest decision of ``txn_id`` given its live ``records``."""
        for record in reversed(records):
            if record.kind in _DECISIONS:
                return record.kind
        # A retained record predates every live one of its transaction.
        retained = self._retained.get(txn_id)
        return retained.kind if retained is not None else None

    def decision_for(self, txn_id: int) -> Optional[str]:
        """The logged decision ("COMMIT"/"ABORT") for a transaction, if any."""
        return self._decision(txn_id, self._live.get(txn_id, ()))

    def prepared(self, txn_id: int) -> Optional[LogRecord]:
        """The latest PREPARE of ``txn_id`` that no participant decision follows.

        A participant decision record (one with a ``coordinator`` address)
        is released at once with the PREPARE it decides, so this is the
        latest live PREPARE.  The coordinator's own decision record (no
        address) does not decide the home site's participant: its PREPARE
        stays prepared until the participant applies the decision.
        """
        for record in reversed(self._live.get(txn_id, ())):
            if record.kind == "PREPARE":
                return record
            if record.kind in _DECISIONS and record.coordinator is not None:
                return None
        return None

    def precommitted(self, txn_id: int) -> bool:
        """Whether ``txn_id`` has a live PRECOMMIT record."""
        return any(record.kind == "PRECOMMIT" for record in self._live.get(txn_id, ()))

    def in_doubt(self) -> list[LogRecord]:
        """Every transaction's :meth:`prepared` record, in the order the
        transactions entered the log."""
        in_doubt = []
        for txn_id in self._live:
            prepare = self.prepared(txn_id)
            if prepare is not None:
                in_doubt.append(prepare)
        return in_doubt

    def __len__(self) -> int:
        live = sum(len(records) for records in self._live.values())
        return live + len(self._retained)
