"""Strict two-phase-locking lock manager for one site.

Grants shared (S) and exclusive (X) locks with FIFO queueing, lock
upgrades, and a pluggable deadlock strategy:

* ``"detect"`` (default) — on every block, search the local wait-for
  edges reachable from the new waiter for a cycle through it and abort the
  *youngest* transaction on the cycle (largest timestamp — it has done the
  least work).  The search takes each node's edges in a fixed order (lock
  table, then holders, then queue), never in the order of the ids'
  values, so the cycle and the victim do not depend on how ids are
  numbered; wound-wait wounds in that order too.
* ``"timeout"`` — no graph; a waiter that exceeds ``wait_timeout`` is
  aborted.  This is also the backstop for *distributed* deadlocks, which a
  single site's graph cannot see, so ``wait_timeout`` stays armed under
  ``"detect"`` too.
* ``"wait_die"`` — non-preemptive timestamp scheme: an older transaction
  may wait for a younger one; a younger requester dies immediately.
* ``"wound_wait"`` — preemptive: an older requester wounds (dooms) younger
  holders; a younger requester waits.

A victim's pending lock event fails with :class:`ConcurrencyAbort`, which
unwinds through the operation handler to the coordinator and is counted as
a CCP abort — the paper's per-protocol abort breakdown.

Wounding a transaction that is *not* currently waiting cannot unwind it
synchronously; instead the wounded id is reported through ``on_wound`` and
the concurrency controller dooms it, so its next operation (or its 2PC
vote) fails.  This mirrors how real wound-wait implementations deliver
asynchronous aborts.  A holder that has already voted YES (the site wires
``prepared`` to its WAL) is not wounded: a prepared participant waits for
the global decision, so a doom could not act, and the requester waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from repro.errors import ConcurrencyAbort, ProtocolError
from repro.sim.kernel import Event, Simulator

__all__ = ["LockMode", "LockManager", "LockStats"]


class LockMode:
    """Lock modes; X conflicts with everything, S only with X."""

    S = "S"
    X = "X"

    @staticmethod
    def compatible(held: str, wanted: str) -> bool:
        return held == LockMode.S and wanted == LockMode.S


_STRATEGIES = ("detect", "timeout", "wait_die", "wound_wait")


@dataclass
class _Request:
    txn_id: int
    ts: float
    mode: str
    upgrade: bool = False
    event: Event = None  # set with enqueued_at when the request queues
    enqueued_at: float = 0.0
    expiry: object = None  # the wait-timeout timer, cancelled on leaving the queue


@dataclass(eq=False)  # hashed by identity: the index keys on entries
class _ItemLock:
    item: str
    rank: int  # creation order in the table: walks visit entries by rank
    holders: dict[int, str] = field(default_factory=dict)  # txn -> mode
    queue: list[_Request] = field(default_factory=list)


_by_rank = attrgetter("rank")


def _never_prepared(txn_id: int) -> None:
    """The ``prepared`` answer of a lock manager no site has wired."""
    return None


@dataclass
class LockStats:
    """Counters the progress monitor samples."""

    acquired: int = 0
    waits: int = 0
    deadlocks: int = 0
    timeouts: int = 0
    wounds: int = 0
    deaths: int = 0
    total_wait_time: float = 0.0


class LockManager:
    """S/X lock table with queueing and deadlock handling for one site."""

    def __init__(
        self,
        sim: Simulator,
        *,
        strategy: str = "detect",
        wait_timeout: Optional[float] = 60.0,
        on_wound: Optional[Callable[[int], None]] = None,
        on_block: Optional[Callable[[int, float, set[int]], None]] = None,
    ):
        if strategy not in _STRATEGIES:
            raise ProtocolError(f"unknown deadlock strategy {strategy!r}")
        if strategy == "timeout" and wait_timeout is None:
            raise ProtocolError("timeout strategy requires wait_timeout")
        self.sim = sim
        self.strategy = strategy
        self.wait_timeout = wait_timeout
        self.on_wound = on_wound
        self.on_block = on_block  # distributed-deadlock probe hook
        # Whether a transaction has voted YES here (wound-wait spares it).
        self.prepared: Callable[[int], object] = _never_prepared
        self.stats = LockStats()
        self._table: dict[str, _ItemLock] = {}
        self._ts_of: dict[int, float] = {}
        # Index so that no walk scans the whole table: the entries each
        # txn has held or queued on since its last release_all, and the
        # entries that have had waiters (drained ones are pruned lazily).
        # Entries are never dropped, so a rank stays fixed for the table's
        # lifetime and walks by rank keep the table's visiting order.
        self._entries: dict[int, dict[_ItemLock, None]] = {}
        self._waiting: dict[_ItemLock, None] = {}

    # -- public API -----------------------------------------------------------
    def acquire(self, txn_id: int, ts: float, item: str, mode: str) -> Optional[Event]:
        """Request a lock: None if granted now, else the event to wait on.

        The event fires when the lock is granted.  It fails with
        :class:`ConcurrencyAbort` if the transaction becomes a deadlock
        victim, dies under wait-die, or times out; a request that dies or
        is chosen as victim on arrival gets an event that has failed already.
        """
        if mode not in (LockMode.S, LockMode.X):
            raise ProtocolError(f"unknown lock mode {mode!r}")
        self._ts_of[txn_id] = ts
        entry = self._table.get(item)
        if entry is None:
            entry = self._table[item] = _ItemLock(item, len(self._table))

        held = entry.holders.get(txn_id)
        if held is not None:
            if held == LockMode.X or held == mode:
                self.stats.acquired += 1
                return None
            # S -> X upgrade
            if len(entry.holders) == 1:
                entry.holders[txn_id] = LockMode.X
                self.stats.acquired += 1
                return None
            return self._block(entry, item, _Request(txn_id, ts, LockMode.X, upgrade=True))

        if self._grantable(entry, txn_id, mode):
            entry.holders[txn_id] = mode
            self._index(txn_id, entry)
            self.stats.acquired += 1
            return None

        return self._block(entry, item, _Request(txn_id, ts, mode))

    def release_all(self, txn_id: int) -> None:
        """Release every lock and cancel every queued request of ``txn_id``.

        A cancelled request's event fails with :class:`ConcurrencyAbort`, so
        an access still waiting on it settles (and is answered) like any
        other rejected one.
        """
        for entry in self._entries_of(txn_id):
            dirty = False
            if txn_id in entry.holders:
                del entry.holders[txn_id]
                dirty = True
            kept = []
            for request in entry.queue:
                if request.txn_id != txn_id:
                    kept.append(request)
                else:
                    self._disarm(request)
                    if not request.event.triggered:
                        request.event.fail(ConcurrencyAbort(f"txn{txn_id} released"))
            if len(kept) != len(entry.queue):
                entry.queue = kept
                dirty = True
            if dirty:
                self._grant_from_queue(entry)
        self._entries.pop(txn_id, None)
        self._ts_of.pop(txn_id, None)

    def held_locks(self, txn_id: int) -> dict[str, str]:
        """Items currently locked by ``txn_id`` mapped to mode."""
        return {
            entry.item: entry.holders[txn_id]
            for entry in self._entries_of(txn_id)
            if txn_id in entry.holders
        }

    def waiting_count(self) -> int:
        """Number of queued (blocked) requests across all items."""
        return sum(len(entry.queue) for entry in self._waiting_entries())

    def waiting_info(self) -> list[tuple[int, float, str, set[int], float]]:
        """Every queued request: (txn, ts, item, blockers, enqueued_at).

        Used by the distributed-deadlock re-probe pass.
        """
        info = []
        for entry in self._waiting_entries():
            for request in entry.queue:
                info.append(
                    (
                        request.txn_id,
                        request.ts,
                        entry.item,
                        set(self._blockers_of(entry, request)),
                        request.enqueued_at,
                    )
                )
        return info

    def ts_of(self, txn_id: int) -> Optional[float]:
        """The timestamp this manager has recorded for ``txn_id``."""
        return self._ts_of.get(txn_id)

    def blockers_of(self, txn_id: int) -> set[int]:
        """Union of blockers over all of ``txn_id``'s queued requests."""
        return set(self._waits_for(txn_id))

    def wait_for_graph_dot(self) -> str:
        """Graphviz DOT rendering of the current local wait-for graph."""
        graph: dict[int, set[int]] = {}
        for entry in self._waiting_entries():
            for request in entry.queue:
                graph.setdefault(request.txn_id, set()).update(
                    self._blockers_of(entry, request)
                )
        lines = ["digraph waits_for {"]
        nodes = set(graph) | {b for blockers in graph.values() for b in blockers}
        for node in sorted(nodes):
            lines.append(f'  "T{node}";')
        for node in sorted(graph):
            for blocker in sorted(graph[node]):
                lines.append(f'  "T{node}" -> "T{blocker}";')
        lines.append("}")
        return "\n".join(lines)

    def abort_waiter(self, txn_id: int, reason: str) -> bool:
        """Fail ``txn_id``'s queued requests (external victim selection).

        Returns True if the transaction was actually waiting here.
        """
        waiting = self._is_waiting(txn_id)
        if waiting:
            self.stats.deadlocks += 1
            self._abort_waiter(txn_id, reason)
        return waiting

    def clear(self) -> None:
        """Drop all lock state (site crash: volatile state is lost)."""
        for entry in self._table.values():
            for request in entry.queue:
                self._disarm(request)
                if not request.event.triggered:
                    request.event.fail(ConcurrencyAbort("lock manager cleared (site crash)"))
        self._table.clear()
        self._ts_of.clear()
        self._entries.clear()
        self._waiting.clear()

    # -- index ----------------------------------------------------------------------
    def _index(self, txn_id: int, entry: _ItemLock) -> None:
        entries = self._entries.get(txn_id)
        if entries is None:
            entries = self._entries[txn_id] = {}
        entries[entry] = None

    def _entries_of(self, txn_id: int) -> list[_ItemLock]:
        """Entries ``txn_id`` may hold or queue on, in table order."""
        entries = self._entries.get(txn_id)
        return sorted(entries, key=_by_rank) if entries else []

    def _waiting_entries(self) -> list[_ItemLock]:
        """Entries with queued requests, in table order."""
        waiting = [entry for entry in self._waiting if entry.queue]
        if len(waiting) != len(self._waiting):
            self._waiting = dict.fromkeys(waiting)
        return sorted(waiting, key=_by_rank)

    def _is_waiting(self, txn_id: int) -> bool:
        return any(
            request.txn_id == txn_id
            for entry in self._entries_of(txn_id)
            for request in entry.queue
        )

    # -- granting -----------------------------------------------------------------
    def _grantable(self, entry: _ItemLock, txn_id: int, mode: str) -> bool:
        conflicts_holders = any(
            holder != txn_id and not LockMode.compatible(held, mode)
            for holder, held in entry.holders.items()
        )
        if conflicts_holders:
            return False
        # FIFO fairness: a new request must not overtake queued conflicting
        # requests (prevents writer starvation behind a reader stream).
        for queued in entry.queue:
            if queued.txn_id == txn_id:
                continue
            if not LockMode.compatible(queued.mode, mode) or not LockMode.compatible(
                mode, queued.mode
            ):
                return False
        return True

    def _block(self, entry: _ItemLock, item: str, request: _Request) -> Event:
        request.event = self.sim.event(name="lock")
        request.enqueued_at = self.sim.now
        blockers = self._blockers_of(entry, request)

        if self.strategy == "wait_die":
            # Younger requester (larger ts) dies rather than waits.
            if any(self._ts_of.get(b, float("inf")) < request.ts for b in blockers):
                self.stats.deaths += 1
                request.event.fail(
                    ConcurrencyAbort(f"wait-die: txn{request.txn_id} younger than holder")
                )
                self._forget_if_idle(request.txn_id)
                return request.event
        elif self.strategy == "wound_wait":
            # Older requester wounds every younger unprepared holder, then
            # waits for the rest; wounded holders abort asynchronously.
            for blocker in blockers:
                younger = self._ts_of.get(blocker, float("-inf")) > request.ts
                if younger and not self.prepared(blocker):
                    self._wound(blocker)

        entry.queue.append(request)
        self._index(request.txn_id, entry)
        self._waiting[entry] = None
        self.stats.waits += 1
        if self.on_block is not None:
            self.on_block(request.txn_id, request.ts, set(self._blockers_of(entry, request)))

        if self.strategy == "detect":
            victim = self._find_deadlock_victim(request.txn_id)
            if victim is not None:
                self.stats.deadlocks += 1
                self._abort_waiter(victim, reason="deadlock victim")
                if victim == request.txn_id:
                    return request.event

        # The victim's abort above may already have granted this request.
        if self.wait_timeout is not None and not request.event.triggered:
            request.expiry = self.sim.defer(
                self.wait_timeout, lambda: self._expire(item, request)
            )
        return request.event

    def _disarm(self, request: _Request) -> None:
        """Cancel the wait timeout of a request that left its queue."""
        if request.expiry is not None:
            self.sim.cancel(request.expiry)

    def _blockers_of(self, entry: _ItemLock, request: _Request) -> dict[int, None]:
        """The transactions ``request`` waits for: holders, then queue order.

        A dict's keys keep that order; a set of ints would iterate by value.
        """
        blockers = {
            holder: None
            for holder, held in entry.holders.items()
            if holder != request.txn_id and not LockMode.compatible(held, request.mode)
        }
        # FIFO queueing also makes the request wait behind earlier queued
        # conflicting requests — but only those *ahead* of it; later
        # arrivals wait for us, not the other way around.
        for queued in entry.queue:
            if queued is request:
                break
            if queued.txn_id == request.txn_id:
                continue
            if not LockMode.compatible(queued.mode, request.mode) or not LockMode.compatible(
                request.mode, queued.mode
            ):
                blockers[queued.txn_id] = None
        return blockers

    def _waits_for(self, txn_id: int) -> dict[int, None]:
        """:meth:`blockers_of` in table, holder and queue order (dict keys)."""
        blockers: dict[int, None] = {}
        for entry in self._entries_of(txn_id):
            for request in entry.queue:
                if request.txn_id == txn_id:
                    blockers.update(self._blockers_of(entry, request))
        return blockers

    def _grant_from_queue(self, entry: _ItemLock) -> None:
        # Upgrades first: an S-holder waiting for X proceeds once alone.
        progressed = True
        while progressed:
            progressed = False
            for request in list(entry.queue):
                if request.upgrade:
                    if set(entry.holders) <= {request.txn_id}:
                        entry.queue.remove(request)
                        entry.holders[request.txn_id] = LockMode.X
                        self._grant(request)
                        progressed = True
                    continue
                if self._head_grantable(entry, request):
                    entry.queue.remove(request)
                    entry.holders[request.txn_id] = request.mode
                    self._grant(request)
                    progressed = True
                else:
                    # FIFO: do not let later requests overtake this one
                    # (upgrades excepted, handled above).
                    break

    def _head_grantable(self, entry: _ItemLock, request: _Request) -> bool:
        return all(
            holder == request.txn_id or LockMode.compatible(held, request.mode)
            for holder, held in entry.holders.items()
        )

    def _grant(self, request: _Request) -> None:
        self._disarm(request)
        self.stats.acquired += 1
        self.stats.total_wait_time += self.sim.now - request.enqueued_at
        if not request.event.triggered:
            request.event.succeed()

    # -- deadlock machinery ----------------------------------------------------------
    def _find_deadlock_victim(self, start: int) -> Optional[int]:
        """Find a cycle through ``start``; return the youngest member or None.

        An iterative depth-first search over the wait-for edges.  It asks
        :meth:`_waits_for` for the edges of each node it reaches and of no
        other, so a block costs the waits it can reach, not the whole table.
        Each node's edges come in table, holder and queue order, never in
        the order of the ids' values, so the walk, the cycle it finds and
        its victim do not change when every id is shifted by a constant.
        """
        path = [start]
        on_path = {start}
        visited: set[int] = set()
        pending = [iter(self._waits_for(start))]  # unexplored edges per level
        while pending:
            for succ in pending[-1]:
                if succ == start:
                    return max(path, key=lambda txn: (self._ts_of.get(txn, 0.0), txn))
                if succ not in on_path and succ not in visited:
                    path.append(succ)
                    on_path.add(succ)
                    pending.append(iter(self._waits_for(succ)))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                visited.add(node)
                pending.pop()
        return None

    def _abort_waiter(self, txn_id: int, reason: str) -> None:
        for entry in self._entries_of(txn_id):
            for request in list(entry.queue):
                if request.txn_id == txn_id:
                    entry.queue.remove(request)
                    self._disarm(request)
                    if not request.event.triggered:
                        request.event.fail(ConcurrencyAbort(reason))
        # Every entry with waiters, not only the victim's: a request queued
        # behind a pending upgrade can be grantable without its entry having
        # changed.  Entries with empty queues have nothing to grant.
        for entry in self._waiting_entries():
            self._grant_from_queue(entry)
        self._forget_if_idle(txn_id)

    def _forget_if_idle(self, txn_id: int) -> None:
        """Forget a rejected transaction that holds and awaits nothing here.

        No ``release_all`` reaches a site where the transaction holds
        nothing, so its timestamp and index entries would otherwise stay
        for the rest of the session.
        """
        for entry in self._entries.get(txn_id, ()):
            if txn_id in entry.holders or any(
                request.txn_id == txn_id for request in entry.queue
            ):
                return
        self._entries.pop(txn_id, None)
        self._ts_of.pop(txn_id, None)

    def _wound(self, txn_id: int) -> None:
        self.stats.wounds += 1
        # If the victim is waiting here, unwind it immediately; otherwise
        # report it so the controller dooms the transaction.
        if self._is_waiting(txn_id):
            self._abort_waiter(txn_id, reason="wounded by older transaction")
        if self.on_wound is not None:
            self.on_wound(txn_id)

    def _expire(self, item: str, request: _Request) -> None:
        entry = self._table.get(item)
        if entry is None or request not in entry.queue:
            return
        entry.queue.remove(request)
        self.stats.timeouts += 1
        if not request.event.triggered:
            request.event.fail(ConcurrencyAbort(f"lock wait timeout on {item!r}"))
        self._grant_from_queue(entry)
        self._forget_if_idle(request.txn_id)
