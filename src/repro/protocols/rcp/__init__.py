"""Replication control protocols (RCP): ROWA, available copies, quorums.

One engine, three vote policies.  Quorum consensus's wave loop
(:meth:`QuorumConsensusController._assemble`) is the only code that
reaches copies; each RCP only states how many votes a read or write needs
and which holders its next wave contacts:

========  ===========  ===============  =====================================
RCP       read needs   write needs      next wave
========  ===========  ===============  =====================================
QC        read quorum  write quorum     minimal vote-sufficient prefix
ROWA      1 vote       all votes        minimal vote-sufficient prefix
ROWAA     1 vote       1 vote           reads: minimal prefix; writes: every
                                        remaining holder
========  ===========  ===============  =====================================
"""

from repro.protocols.base import register_rcp
from repro.protocols.rcp.available_copies import AvailableCopiesController
from repro.protocols.rcp.quorum import QuorumConsensusController
from repro.protocols.rcp.rowa import RowaController

register_rcp("ROWA", RowaController)
register_rcp("ROWAA", AvailableCopiesController)
register_rcp("QC", QuorumConsensusController)

__all__ = [
    "AvailableCopiesController",
    "QuorumConsensusController",
    "RowaController",
]
