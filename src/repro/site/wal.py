"""Per-site write-ahead log and the participant decision table.

The original Rainbow keeps everything in Java objects; for the classroom
exercises about atomicity and recovery we model the durable half explicitly.
The WAL survives site crashes (it is the simulated disk).  It records, per
transaction:

* ``PREPARE`` — the participant voted YES in 2PC and buffered its writes
  (the record carries the writes, so recovery can reinstate them);
* ``PRECOMMIT`` — the 3PC intermediate state;
* ``COMMIT`` / ``ABORT`` — the final decision (coordinator or participant).

After a crash, :meth:`WriteAheadLog.recover_state` classifies every logged
transaction: decided ones are re-applied/forgotten, while transactions that
prepared but saw no decision are *in doubt* — those are Rainbow's "orphan
transactions" until the decision is re-learned from the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Optional

__all__ = ["LogRecord", "WriteAheadLog", "InDoubt"]

#: The ``writes`` of every record that carries none (read-only, shared).
NO_WRITES: Mapping[str, tuple[Any, int]] = MappingProxyType({})


def _no_writes() -> Mapping[str, tuple[Any, int]]:
    return NO_WRITES


@dataclass(slots=True)
class LogRecord:
    """One durable log record.

    A log keeps every record it writes, so records are slotted, and those
    without writes or peers share :data:`NO_WRITES` and ``()`` instead of
    holding empty containers of their own.  Records are never mutated
    after they are appended; recovery copies what it needs.
    """

    lsn: int
    txn_id: int
    kind: str  # "PREPARE" | "PRECOMMIT" | "COMMIT" | "ABORT" | "END" | "CHECKPOINT"
    at: float
    writes: Mapping[str, tuple[Any, int]] = field(default_factory=_no_writes)
    coordinator: Optional[str] = None  # address to ask for the decision
    ts: float = 0.0  # transaction timestamp (needed to reinstate TO state)
    acp: str = "2PC"  # protocol in force (recovery follows its rules)
    peers: tuple[str, ...] = ()  # 3PC termination set


@dataclass
class InDoubt:
    """A transaction left uncertain by a crash (prepared, no decision)."""

    txn_id: int
    writes: dict[str, tuple[Any, int]]
    coordinator: Optional[str]
    precommitted: bool = False
    ts: float = 0.0
    acp: str = "2PC"
    peers: list[str] = field(default_factory=list)


class WriteAheadLog:
    """Append-only durable log for one site."""

    def __init__(self, site_name: str):
        self.site_name = site_name
        self.records: list[LogRecord] = []
        self._next_lsn = 1

    # -- appends -------------------------------------------------------------
    def log_prepare(
        self,
        txn_id: int,
        writes: dict[str, tuple[Any, int]],
        coordinator: Optional[str],
        at: float,
        ts: float = 0.0,
        acp: str = "2PC",
        peers: Optional[list[str]] = None,
    ) -> LogRecord:
        """Force a PREPARE record (participant voted YES)."""
        return self._append(
            "PREPARE",
            txn_id,
            at,
            writes=writes,
            coordinator=coordinator,
            ts=ts,
            acp=acp,
            peers=peers,
        )

    def log_precommit(self, txn_id: int, at: float) -> LogRecord:
        """Force a PRECOMMIT record (3PC only)."""
        return self._append("PRECOMMIT", txn_id, at)

    def log_commit(
        self,
        txn_id: int,
        at: float,
        *,
        coordinator: Optional[str] = None,
        acp: str = "2PC",
    ) -> LogRecord:
        """Force a COMMIT decision record.

        ``coordinator`` distinguishes the record's role: ``None`` marks the
        coordinator's own decision record, an address marks a participant's
        copy of the decision.  Checkpointing uses the role (and ``acp``) to
        decide how long the record must outlive the decision — see
        :meth:`checkpoint`.
        """
        return self._append("COMMIT", txn_id, at, coordinator=coordinator, acp=acp)

    def log_abort(self, txn_id: int, at: float) -> LogRecord:
        """Force an ABORT decision record."""
        return self._append("ABORT", txn_id, at)

    def log_end(self, txn_id: int, at: float) -> LogRecord:
        """Mark a decided transaction fully acknowledged (presumed-abort END).

        Once the coordinator has collected every participant's decision
        acknowledgement, nobody can ever ask about the transaction again,
        so its COMMIT record no longer needs to survive checkpoints.
        """
        return self._append("END", txn_id, at)

    # -- checkpointing --------------------------------------------------------
    def checkpoint(self, store_snapshot: dict[str, tuple[Any, int]], at: float) -> int:
        """Take a fuzzy checkpoint and truncate the log.

        The committed store state is recorded in a CHECKPOINT record and the
        PREPARE/PRECOMMIT records of still-undecided transactions are
        carried over.  COMMIT decision records are *retained* until it is
        provably safe to forget them: presumed abort means a missing record
        answers ABORT, so dropping a COMMIT that an in-doubt participant
        may still ask about would abort a committed transaction.  A
        coordinator's COMMIT record (no ``coordinator`` address) is kept
        until an END record marks the decision round fully acknowledged; a
        participant's copy is kept only under 3PC, where the termination
        protocol queries peers.  ABORT records always drop — presumed abort
        re-derives them.  Returns the number of records truncated — the
        classroom-visible benefit of checkpointing.
        """
        in_doubt, _committed = self.recover_state()
        retained = self._retained_decisions()
        old_length = len(self.records)
        kept: list[LogRecord] = []
        checkpoint_record = LogRecord(
            lsn=self._next_lsn,
            txn_id=0,
            kind="CHECKPOINT",
            at=at,
            writes=dict(store_snapshot),
        )
        self._next_lsn += 1
        kept.append(checkpoint_record)
        for doubt in in_doubt:
            kept.append(
                LogRecord(
                    lsn=self._next_lsn,
                    txn_id=doubt.txn_id,
                    kind="PREPARE",
                    at=at,
                    writes=dict(doubt.writes),
                    coordinator=doubt.coordinator,
                    ts=doubt.ts,
                    acp=doubt.acp,
                    peers=tuple(doubt.peers),
                )
            )
            self._next_lsn += 1
            if doubt.precommitted:
                kept.append(
                    LogRecord(
                        lsn=self._next_lsn, txn_id=doubt.txn_id,
                        kind="PRECOMMIT", at=at,
                    )
                )
                self._next_lsn += 1
        for record in retained:
            kept.append(
                LogRecord(
                    lsn=self._next_lsn,
                    txn_id=record.txn_id,
                    kind="COMMIT",
                    at=record.at,
                    coordinator=record.coordinator,
                    acp=record.acp,
                )
            )
            self._next_lsn += 1
        self.records = kept
        # The CHECKPOINT record itself is new, not carried over: the number
        # of old records dropped is old_length minus the carried-over
        # PREPARE/PRECOMMIT/COMMIT records (len(kept) - 1).
        return old_length - (len(kept) - 1)

    def _retained_decisions(self) -> list[LogRecord]:
        """COMMIT records a checkpoint must carry over, in LSN order."""
        ended = {
            record.txn_id for record in self.records if record.kind == "END"
        }
        retained: dict[int, LogRecord] = {}
        for record in self.records:
            if record.kind != "COMMIT" or record.txn_id in ended:
                continue
            if record.coordinator is None or record.acp == "3PC":
                retained.setdefault(record.txn_id, record)
        return sorted(retained.values(), key=lambda record: record.lsn)

    def last_checkpoint(self) -> Optional[LogRecord]:
        """The most recent CHECKPOINT record, if any."""
        for record in reversed(self.records):
            if record.kind == "CHECKPOINT":
                return record
        return None

    def _append(
        self, kind, txn_id, at, writes=None, coordinator=None, ts=0.0, acp="2PC", peers=None
    ) -> LogRecord:
        record = LogRecord(
            lsn=self._next_lsn,
            txn_id=txn_id,
            kind=kind,
            at=at,
            writes=dict(writes) if writes else NO_WRITES,
            coordinator=coordinator,
            ts=ts,
            acp=acp,
            peers=tuple(peers) if peers else (),
        )
        self._next_lsn += 1
        self.records.append(record)
        return record

    # -- queries -------------------------------------------------------------
    def decision_for(self, txn_id: int) -> Optional[str]:
        """The logged decision ("COMMIT"/"ABORT") for a transaction, if any."""
        for record in reversed(self.records):
            if record.txn_id == txn_id and record.kind in ("COMMIT", "ABORT"):
                return record.kind
        return None

    def recover_state(self) -> tuple[list[InDoubt], list[LogRecord]]:
        """Analyse the log after a crash.

        Returns ``(in_doubt, committed_records)``:

        * ``in_doubt`` — transactions with a PREPARE but no decision; their
          buffered writes and coordinator address come from the log.
        * ``committed_records`` — the PREPARE records of transactions whose
          COMMIT was logged, in commit order, so recovery can re-apply their
          writes idempotently (the store's version check makes replay safe).
        """
        prepares: dict[int, LogRecord] = {}
        precommitted: set[int] = set()
        decisions: dict[int, str] = {}
        for record in self.records:
            if record.kind == "PREPARE":
                prepares[record.txn_id] = record
            elif record.kind == "PRECOMMIT":
                precommitted.add(record.txn_id)
            elif record.kind in ("COMMIT", "ABORT"):
                decisions[record.txn_id] = record.kind

        in_doubt = [
            InDoubt(
                txn_id=txn_id,
                writes=dict(record.writes),
                coordinator=record.coordinator,
                precommitted=txn_id in precommitted,
                ts=record.ts,
                acp=record.acp,
                peers=list(record.peers),
            )
            for txn_id, record in prepares.items()
            if txn_id not in decisions
        ]
        committed = [
            record
            for txn_id, record in prepares.items()
            if decisions.get(txn_id) == "COMMIT"
        ]
        committed.sort(key=lambda record: record.lsn)
        in_doubt.sort(key=lambda d: d.txn_id)
        return in_doubt, committed

    def __len__(self) -> int:
        return len(self.records)
