"""Two-phase commit (2PC) — Rainbow's default ACP.

Phase 1: the coordinator sends VOTE_REQ to every participant (including
itself, via a local call); each participant forces a PREPARE record and
votes.  A missing vote (crash, partition) counts as NO after
``vote_timeout``.

Phase 2: on unanimous YES the coordinator forces its COMMIT record — the
moment the transaction is decided — and broadcasts COMMIT, retrying a few
times; participants that stay silent will learn the decision later through
DECISION_REQ (presumed abort).  Any NO ⇒ force ABORT and broadcast it.

2PC's known weakness is reproduced faithfully: participants that voted YES
are *blocked* while the coordinator is down — they are Rainbow's "orphan
transactions" until the coordinator site recovers and answers decision
requests.

:class:`CentralisedCommit` is that round for every centralised ACP: with
``precommit_round`` set (3PC) a PRECOMMIT round runs between the votes and
the decision.  Each round and force is a numbered ``TxnContext.step``.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import CommitAbort
from repro.net.message import MessageType
from repro.protocols.base import CommitProtocol

__all__ = ["CentralisedCommit", "TwoPhaseCommit"]


class CentralisedCommit(CommitProtocol):
    """The coordinator's rounds of a centralised presumed-abort commit."""

    def run(self, ctx) -> Generator:
        all_yes, detail = yield from ctx.collect_votes()
        if not all_yes:
            ctx.log_decision("ABORT")
            yield from ctx.broadcast(MessageType.ABORT)
            raise CommitAbort(f"vote phase failed: {detail}")
        if self.precommit_round:
            yield from ctx.broadcast(MessageType.PRECOMMIT)
        ctx.log_decision("COMMIT")
        acked = yield from ctx.broadcast(MessageType.COMMIT)
        ctx.log_end_if_complete(acked)
        return "COMMIT"


class TwoPhaseCommit(CentralisedCommit):
    """Centralised presumed-abort 2PC."""

    name = "2PC"
