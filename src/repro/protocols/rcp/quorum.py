"""Quorum consensus (QC) replication control — Rainbow's default RCP.

Each copy of an item carries a vote (from the catalog); an operation must
assemble enough votes: ``r`` for reads, ``w`` for writes, with
``r + w > V`` and ``2w > V`` guaranteeing read/write and write/write
intersection.

"QC starts by building a quorum (read or write) for the first operation of
the transaction.  To do this, QC needs first to find a set of sites from
whom the quorum can be built.  QC then sends each site in the set a request
for that site's local copies.  At that site, copies are read (returning
their current value) or pre-written (returning their current version
number) through CCP.  When a quorum is built for an operation, the next
operation is considered."

Message economy matters for the paper's traffic experiments: QC first
contacts a *minimal* vote-sufficient set of sites (home site first — its
copy is free), and only expands to further holders when members of the
first wave fail.  Reads pick the value of the highest version in the
assembled read quorum; writes stamp ``max(version in write quorum) + 1``.

This wave loop is the only replica-control algorithm in the package.  ROWA
and ROWA-A are vote policies on top of it: each overrides
:meth:`~QuorumConsensusController.votes_needed` (how many votes a read or
write must gather) and, where its waves differ,
:meth:`~QuorumConsensusController.choose_wave` (which holders the next wave
contacts).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ConcurrencyAbort, ReplicationAbort
from repro.protocols.base import ReplicationController

__all__ = ["QuorumConsensusController"]


class QuorumConsensusController(ReplicationController):
    """Weighted-voting replica control (Gifford-style)."""

    name = "QC"

    def do_read(self, ctx, item: str) -> Generator:
        results = yield from self._assemble(ctx, item, write=False)
        best = max(results, key=lambda r: r.version)
        ctx.note_read(item, best.version)
        # Every quorum member holds CCP state (e.g. an S lock) and must see
        # the decision; register them all as participants.
        return best.value

    def do_write(self, ctx, item: str, value: Any) -> Generator:
        results = yield from self._assemble(ctx, item, write=True, value=value)
        new_version = ctx.assign_version(results)
        for result in results:
            ctx.note_prewrite(result.site, item, new_version)
        ctx.note_write(item, new_version)

    # -- vote policy ----------------------------------------------------------------
    def votes_needed(self, spec, write: bool) -> int:
        """Votes a read (``write=False``) or write of ``spec``'s item must gather."""
        return spec.effective_write_quorum() if write else spec.effective_read_quorum()

    def choose_wave(
        self, remaining: list[str], votes: dict[str, int], needed: int, write: bool
    ) -> list[str]:
        """The holders the next wave contacts, still ``needed`` votes short."""
        return self._next_wave(remaining, votes, needed)

    # -- quorum assembly ----------------------------------------------------------
    def _assemble(self, ctx, item: str, write: bool, value: Any = None):
        """Contact holders in waves until the quorum's votes are gathered."""
        spec = ctx.catalog.item(item)
        needed = self.votes_needed(spec, write)
        votes = spec.placement
        remaining = ctx.order_local_first(spec.sites)
        gathered = []
        collected_votes = 0
        failures = []

        while collected_votes < needed:
            attainable = collected_votes + sum(votes[site] for site in remaining)
            wave = self.choose_wave(remaining, votes, needed - collected_votes, write)
            if not wave or attainable < needed:
                raise ReplicationAbort(
                    f"cannot build {'write' if write else 'read'} quorum for {item!r}: "
                    f"have {collected_votes}/{needed} votes "
                    f"({'; '.join(failures) or 'no holders left'})"
                )
            remaining = [site for site in remaining if site not in wave]
            wave_span = ctx.begin_span("rcp.wave", sites=",".join(wave))
            try:
                if write:
                    results = yield from ctx.access_prewrite_many(wave, item, value)
                else:
                    results = yield from ctx.access_read_many(wave, item)
            finally:
                ctx.end_span(wave_span)
            for result in results:
                if result.ok:
                    gathered.append(result)
                    collected_votes += votes[result.site]
                elif result.kind == "ccp":
                    # A concurrency rejection is not a matter of trying
                    # another copy: the transaction is ordered out.
                    raise ConcurrencyAbort(
                        f"{'prewrite' if write else 'read'} {item!r} at "
                        f"{result.site}: {result.reason}"
                    )
                else:
                    failures.append(f"{result.site}: {result.reason}")
        return gathered

    @staticmethod
    def _next_wave(remaining: list[str], votes: dict[str, int], needed: int) -> list[str]:
        """A minimal prefix of ``remaining`` whose votes reach ``needed``.

        If the remaining holders cannot reach ``needed`` at all, the whole
        remainder is returned — the caller discovers the shortfall after the
        wave completes and raises the RCP abort with full failure detail.
        """
        wave: list[str] = []
        acc = 0
        for site in remaining:
            wave.append(site)
            acc += votes[site]
            if acc >= needed:
                break
        return wave
