"""Read-One-Write-All (ROWA) replication control.

Reads touch a single copy — the local one when the home site holds a copy,
otherwise the first reachable remote copy.  Writes must pre-write **every**
copy; a single unreachable replica holder makes the write impossible, which
is exactly ROWA's availability weakness that quorum consensus fixes
(EXP-AVAIL reproduces the collapse).

Abort classification:

* a CCP rejection at any copy → :class:`~repro.errors.ConcurrencyAbort`
  (counted against the CCP);
* an unreachable copy that ROWA *requires* → :class:`~repro.errors.ReplicationAbort`
  (counted against the RCP).

ROWA is quorum consensus with ``r = 1`` and ``w = V`` (all votes), the
textbook reduction; it reuses QC's wave loop and only sets those quorums.
"""

from __future__ import annotations

from repro.protocols.rcp.quorum import QuorumConsensusController

__all__ = ["RowaController"]


class RowaController(QuorumConsensusController):
    """Read one copy, write all copies."""

    name = "ROWA"

    def votes_needed(self, spec, write: bool) -> int:
        return spec.total_votes if write else 1
