"""Distributed deadlock detection: Chandy–Misra–Haas edge chasing.

The lock manager's wait-for graph only sees *local* cycles; a transaction
blocked at site A by a transaction that is itself blocked at site B forms a
distributed deadlock no single site can observe.  Rainbow's stock answer is
the lock-wait timeout; this module adds the classic alternative as a term-
project-grade extension: probe-based edge chasing.

Protocol (per Chandy, Misra & Haas 1983, adapted to Rainbow's topology):

1. When transaction *T* blocks at a site, the site sends a ``PROBE_HOME``
   for every blocker *B* older than *T* to *B*'s home site (every blocker
   has visited this site, so its home address is known from its operation
   messages).
2. *B*'s home site consults the coordinator state: if *B* is currently
   blocked at some site, the probe is forwarded there as ``PROBE_SITE``.
3. The site where *B* waits looks up *B*'s own blockers.  If the probe's
   initiator is among them, a cycle is certain: a ``VICTIM_HOME`` message
   goes to the initiator's home, which sends ``ABORT_WAIT`` to every site
   where the initiator is queued; its lock waits fail with a
   :class:`~repro.errors.ConcurrencyAbort` (a CCP abort, like any deadlock
   victim).  Otherwise the probe keeps chasing edges to blockers older
   than its initiator (bounded by ``max_hops``).
4. Races (a wait resolving while a probe is in flight) simply drop the
   probe; a periodic re-probe pass regenerates probes for waits that
   persist, so real deadlocks are detected eventually.

A probe only ever goes to transactions older than its initiator, so of the
members of a cycle only the youngest, the one the local detector would
also abort, chases it all the way round: a cycle is confirmed from one end,
and its victim is the probe's initiator.  A victim that waits for several
older transactions, or at several sites, sends one probe per wait; a site
reports a victim once per ``probe_interval``, so one deadlock is one report.

All probe traffic flows through the simulated network and is counted like
any other message — so the *cost* of distributed detection is measurable
(see the deadlock ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ProbeTypes", "DeadlockDetector"]


class ProbeTypes:
    """Message types of the edge-chasing protocol."""

    PROBE_HOME = "DDD_PROBE_HOME"
    PROBE_SITE = "DDD_PROBE_SITE"
    VICTIM_HOME = "DDD_VICTIM_HOME"
    ABORT_WAIT = "DDD_ABORT_WAIT"

    ALL = frozenset({PROBE_HOME, PROBE_SITE, VICTIM_HOME, ABORT_WAIT})


@dataclass
class DetectorStats:
    probes_sent: int = 0
    probes_forwarded: int = 0
    probes_dropped: int = 0
    cycles_found: int = 0
    victims_aborted: int = 0


class DeadlockDetector:
    """Edge-chasing detector attached to one site."""

    def __init__(self, site, probe_interval: float = 20.0, max_hops: int = 16):
        self.site = site
        self.sim = site.sim
        self.probe_interval = probe_interval
        self.max_hops = max_hops
        self.stats = DetectorStats()
        self._reported: dict[int, float] = {}  # victim -> when this site reported it
        if probe_interval:
            site._spawn(self._reprobe_loop(), name=f"ddd:{site.name}")

    # -- initiation ----------------------------------------------------------
    def on_block(self, txn_id: int, ts: float, blockers: set[int]) -> None:
        """Called by the lock manager whenever a request queues."""
        self._chase(
            initiator=txn_id,
            initiator_ts=ts,
            initiator_home=self.site._txn_home.get(txn_id, self.site.address),
            blockers=blockers,
            hops=0,
        )

    def _reprobe_loop(self):
        while self.site.up:
            yield self.sim.timeout(self.probe_interval)
            if not self.site.up:
                return
            if not self.site.cc.lock_based:
                return
            locks = self.site.cc.locks
            horizon = self.sim.now - self.probe_interval
            for txn_id, ts, _item, blockers, since in locks.waiting_info():
                if since <= horizon and blockers:
                    self.on_block(txn_id, ts, blockers)

    def _chase(self, initiator, initiator_ts, initiator_home, blockers, hops) -> None:
        if hops > self.max_hops:
            self.stats.probes_dropped += 1
            return
        payload_base = {
            "initiator": initiator,
            "initiator_ts": initiator_ts,
            "initiator_home": initiator_home,
            "hops": hops + 1,
        }
        locks = self.site.cc.locks
        for blocker in sorted(blockers):
            if blocker == initiator:
                # Local self-cycle (should have been caught by the local
                # detector): the initiator is the victim.
                self._report_cycle(initiator, initiator_home)
                continue
            blocker_ts = locks.ts_of(blocker)
            if blocker_ts is None or blocker_ts > initiator_ts:
                continue  # a younger blocker chases its own cycles
            home = self.site._txn_home.get(blocker)
            if home is None:
                self.stats.probes_dropped += 1
                continue
            payload = dict(payload_base, target=blocker)
            self.stats.probes_sent += 1
            self._dispatch(home, ProbeTypes.PROBE_HOME, payload)

    # -- message handling -------------------------------------------------------
    def handle(self, msg) -> None:
        """Route one detector message (called from the site's dispatcher)."""
        self._route(msg.mtype, msg.payload or {})

    def _route(self, mtype: str, payload: dict) -> None:
        if mtype == ProbeTypes.PROBE_HOME:
            self._probe_at_home(payload)
        elif mtype == ProbeTypes.PROBE_SITE:
            self._probe_at_site(payload)
        elif mtype == ProbeTypes.VICTIM_HOME:
            self._victim_at_home(payload)
        elif mtype == ProbeTypes.ABORT_WAIT:
            self._abort_wait(payload)

    def _probe_at_home(self, payload) -> None:
        """We are the target's home: forward to wherever it is blocked."""
        ctx = self.site._home_ctxs.get(payload.get("target"))
        blocked = ctx.blocked_sites if ctx is not None else []
        if not blocked:
            self.stats.probes_dropped += 1  # target finished or is running
            return
        self.stats.probes_forwarded += 1
        address = self.site.directory_address(blocked[0])
        self._dispatch(address, ProbeTypes.PROBE_SITE, payload)

    def _probe_at_site(self, payload) -> None:
        """The target waits here: extend the chase with its blockers."""
        if not self.site.cc.lock_based:
            return
        locks = self.site.cc.locks
        target = payload.get("target")
        blockers = locks.blockers_of(target)
        if not blockers:
            self.stats.probes_dropped += 1  # wait resolved meanwhile
            return
        initiator = payload["initiator"]
        if initiator in blockers:
            # Cycle confirmed; the initiator is its youngest member.
            self._report_cycle(initiator, payload["initiator_home"])
            return
        self._chase(
            initiator=initiator,
            initiator_ts=payload["initiator_ts"],
            initiator_home=payload["initiator_home"],
            blockers=blockers,
            hops=payload.get("hops", 0),
        )

    def _report_cycle(self, victim: int, victim_home: str) -> None:
        now = self.sim.now
        reported = self._reported.get(victim)
        if reported is not None and now - reported < self.probe_interval:
            return  # another wait of the same victim closed the same deadlock
        self._reported = {
            txn: at for txn, at in self._reported.items() if now - at < self.probe_interval
        }
        self._reported[victim] = now
        self.stats.cycles_found += 1
        self._dispatch(victim_home, ProbeTypes.VICTIM_HOME, {"txn": victim})

    def _victim_at_home(self, payload) -> None:
        """We are the victim's home: unwind it everywhere it waits."""
        ctx = self.site._home_ctxs.get(payload.get("txn"))
        blocked = ctx.blocked_sites if ctx is not None else []
        if not blocked:
            return  # already unblocked/finished: the deadlock resolved
        self.stats.victims_aborted += 1
        for site in blocked:
            address = self.site.directory_address(site)
            self._dispatch(address, ProbeTypes.ABORT_WAIT, {"txn": payload["txn"]})

    def _abort_wait(self, payload) -> None:
        if self.site.cc.lock_based:
            self.site.cc.locks.abort_waiter(payload["txn"], reason="distributed deadlock victim")

    # -- transport ---------------------------------------------------------------
    def _dispatch(self, address: Optional[str], mtype: str, payload: dict) -> None:
        if address is None:
            self.stats.probes_dropped += 1
            return
        if address == self.site.address:
            # Local hop: no network message, same handling.
            self._route(mtype, payload)
            return
        self.site.endpoint.send(address, mtype, payload)
