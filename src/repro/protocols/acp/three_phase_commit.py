"""Three-phase commit (3PC) — the paper's suggested term-project extension.

Adds the PRECOMMIT buffer state between the vote and the decision so that
no participant can be uncertain while another has already committed.
Under the fail-stop/no-partition assumptions 3PC makes, a coordinator
failure never blocks participants: the termination protocol implemented in
:meth:`repro.site.site.Site._terminate_3pc` lets them decide among
themselves (any PRECOMMITTED ⇒ commit; all uncertain ⇒ abort).

3PC is :class:`~repro.protocols.acp.two_phase_commit.CentralisedCommit`
with ``precommit_round`` set; that one attribute is all the rest of the
system reads.  The coordinator side:

1. VOTE_REQ round (as in 2PC; any NO or silence ⇒ abort).  The vote is
   never piggybacked on the final access.
2. PRECOMMIT round — participants force a PRECOMMIT record and ack.
   Silent participants are tolerated (they will terminate correctly).
3. Force the COMMIT record, broadcast COMMIT.

On the participant side, a site in doubt runs the termination protocol
over its peers, and its WAL keeps each decision for the peers' queries.

EXP-ACP contrasts the two protocols under coordinator crashes before ACP
step 2 or, under 3PC, 3: 2PC leaves orphans blocked for the whole outage;
3PC resolves them within the termination timeout.
"""

from __future__ import annotations

from repro.protocols.acp.two_phase_commit import CentralisedCommit

__all__ = ["ThreePhaseCommit"]


class ThreePhaseCommit(CentralisedCommit):
    """Centralised 3PC with the participant-side termination protocol."""

    name = "3PC"
    precommit_round = True
