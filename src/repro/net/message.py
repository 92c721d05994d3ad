"""Message model for the simulated network.

Every unit of communication in a Rainbow instance — replica reads and
pre-writes, 2PC votes, name-server lookups, web-tier requests — is a
:class:`Message`.  Messages carry a type tag so the progress monitor can
report traffic *per message type* (one of the paper's §3 output statistics),
and a ``reply_to`` correlation id so the RPC helper can match replies to
requests and count round trips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.spans import SpanRef

__all__ = ["Message", "MessageType"]

_message_ids = itertools.count(1)


class MessageType:
    """Well-known message type tags (plain strings, open for extension)."""

    # Replica access (RCP ↔ CCP)
    READ = "READ"
    READ_REPLY = "READ_REPLY"
    PREWRITE = "PREWRITE"
    PREWRITE_REPLY = "PREWRITE_REPLY"
    # One message carrying several co-located copy accesses (the
    # ``batch_site_ops`` optimization): the receiving site fans the sub-ops
    # out to itself and its same-host siblings and answers with a vector.
    BATCH_ACCESS = "BATCH_ACCESS"
    BATCH_REPLY = "BATCH_REPLY"

    # Atomic commitment (ACP)
    VOTE_REQ = "VOTE_REQ"
    VOTE = "VOTE"
    PRECOMMIT = "PRECOMMIT"
    PRECOMMIT_ACK = "PRECOMMIT_ACK"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    ACK = "ACK"
    DECISION_REQ = "DECISION_REQ"
    DECISION = "DECISION"

    # Name server
    NS_REGISTER = "NS_REGISTER"
    NS_LOOKUP = "NS_LOOKUP"
    NS_CATALOG = "NS_CATALOG"
    NS_REPLY = "NS_REPLY"

    # Web middle tier
    WEB_REQUEST = "WEB_REQUEST"
    WEB_REPLY = "WEB_REPLY"

    # Workload dispatch and monitoring
    TXN_SUBMIT = "TXN_SUBMIT"
    TXN_RESULT = "TXN_RESULT"

    DATA_CATEGORY = frozenset(
        {READ, READ_REPLY, PREWRITE, PREWRITE_REPLY, BATCH_ACCESS, BATCH_REPLY}
    )
    COMMIT_CATEGORY = frozenset(
        {VOTE_REQ, VOTE, PRECOMMIT, PRECOMMIT_ACK, COMMIT, ABORT, ACK, DECISION_REQ, DECISION}
    )

    @classmethod
    def category(cls, mtype: str) -> str:
        """Coarse grouping used by the traffic breakdown panels."""
        if mtype in cls.DATA_CATEGORY:
            return "data"
        if mtype in cls.COMMIT_CATEGORY:
            return "commit"
        if mtype.startswith("NS_"):
            return "nameserver"
        if mtype.startswith("WEB_"):
            return "web"
        return "other"


@dataclass(slots=True)
class Message:
    """One message in flight on the simulated network.

    ``size`` is an abstract payload size in units the latency model may use;
    the default of 1 makes message *counts* the primary traffic measure, as
    in the paper.
    """

    src: str
    dst: str
    mtype: str
    payload: Any = None
    reply_to: Optional[int] = None
    txn_id: Optional[int] = None
    size: int = 1
    msg_id: int = field(default_factory=_message_ids.__next__)
    sent_at: float = 0.0
    # Causal trace context: a handle to the sender's active span, so the
    # network and the receiving site can parent their spans under the
    # coordinator's.
    # Stays None whenever tracing is disabled.
    span: Optional[SpanRef] = None

    def reply(self, mtype: str, payload: Any = None, size: int = 1) -> "Message":
        """Build the reply message for this request (swaps src/dst)."""
        return Message(
            src=self.dst,
            dst=self.src,
            mtype=mtype,
            payload=payload,
            reply_to=self.msg_id,
            txn_id=self.txn_id,
            size=size,
            span=self.span,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        corr = f" re={self.reply_to}" if self.reply_to else ""
        return f"<Msg#{self.msg_id} {self.mtype} {self.src}->{self.dst}{corr}>"
