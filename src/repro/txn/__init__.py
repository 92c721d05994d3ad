"""Transactions: model, home-site coordinator, histories."""

from repro.txn.coordinator import (
    AccessResult,
    Participant,
    TxnContext,
    run_transaction,
)
from repro.txn.history import CommittedTxn, HistoryRecorder, SerializationGraph
from repro.txn.transaction import Operation, OpKind, Transaction, TxnStatus, next_txn_id

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
    "next_txn_id",
    "run_transaction",
]
