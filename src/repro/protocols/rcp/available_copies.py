"""ROWA-Available (available copies) replication control.

The middle ground between ROWA and quorum consensus, and the scheme the
SETH lineage ([3] in the paper) used for its failure experiments: reads
touch one copy; writes touch **every reachable** copy and tolerate
unreachable holders (at least one copy must accept).  Write availability is
therefore as good as "any copy up", unlike ROWA's "all copies up".

The textbook caveat is reproduced on purpose: without the validation
protocol real available-copies systems add, a network *partition* can let
both sides write "their" copies independently — one-copy serializability is
lost (two committed writers can install conflicting versions).  The
classroom test demonstrates exactly that, caught by the history checker's
version-collision detector.  Under fail-stop site crashes (no partitions),
the protocol behaves correctly.

On top of QC's wave loop, ROWA-A needs one vote for reads and writes alike;
its write wave contacts every remaining holder at once, so all reachable
copies are written even though one would satisfy the quorum.
"""

from __future__ import annotations

from repro.protocols.rcp.quorum import QuorumConsensusController

__all__ = ["AvailableCopiesController"]


class AvailableCopiesController(QuorumConsensusController):
    """Read one copy, write all *available* copies."""

    name = "ROWAA"

    def votes_needed(self, spec, write: bool) -> int:
        return 1

    def choose_wave(
        self, remaining: list[str], votes: dict[str, int], needed: int, write: bool
    ) -> list[str]:
        return remaining if write else self._next_wave(remaining, votes, needed)
