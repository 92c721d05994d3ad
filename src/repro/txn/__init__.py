"""Transactions: model, home-site coordinator, histories."""

from repro.txn.coordinator import (
    AccessResult,
    Participant,
    TxnContext,
    run_transaction,
)
from repro.txn.history import CommittedTxn, HistoryRecorder, SerializationGraph
from repro.txn.transaction import Operation, OpKind, Transaction, TxnStatus

__all__ = [
    "AccessResult",
    "CommittedTxn",
    "HistoryRecorder",
    "Operation",
    "OpKind",
    "Participant",
    "SerializationGraph",
    "Transaction",
    "TxnContext",
    "TxnStatus",
    "run_transaction",
]
