"""Concurrency-control protocols (CCP): 2PL, TSO, MVTO, and OCC."""

from repro.protocols.base import register_ccp
from repro.protocols.ccp.multiversion import MultiversionTimestampController
from repro.protocols.ccp.optimistic import OptimisticController
from repro.protocols.ccp.timestamp_ordering import TimestampOrderingController
from repro.protocols.ccp.two_phase_locking import TwoPhaseLockingController
from repro.protocols.ccp.workspace import WorkspaceController

register_ccp("2PL", TwoPhaseLockingController)
register_ccp("TSO", TimestampOrderingController)
register_ccp("MVTO", MultiversionTimestampController)
register_ccp("OCC", OptimisticController)

__all__ = [
    "MultiversionTimestampController",
    "OptimisticController",
    "TimestampOrderingController",
    "TwoPhaseLockingController",
    "WorkspaceController",
]
