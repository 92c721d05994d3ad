"""The Rainbow site: storage, concurrency control, and protocol participants.

"The Rainbow core is comprised of the name server and a number of Rainbow
sites … Each site can freely communicate with each other.  Any site has the
capability to concurrently process multiple transactions."

A :class:`Site` owns:

* a network endpoint whose served mailbox handles every message inline.
  A data access (READ, PREWRITE, BATCH_ACCESS: a plain request is one
  access here, a batch one per co-located target) is a plain CCP call;
  one that must wait continues from a callback on the event it waits on,
  so the paper's "one thread per transaction" is one process per *home*
  transaction and none per access;
* the committed :class:`~repro.site.storage.LocalStore` and durable
  :class:`~repro.site.wal.WriteAheadLog` (the simulated disk);
* a pluggable concurrency controller (2PL / TSO / MVTO) guarding the local
  copies;
* the *participant* halves of 2PC and 3PC, including uncertainty timeouts,
  decision requests with presumed abort, recovery of in-doubt transactions
  from the WAL, and the simplified 3PC termination protocol;
* a garbage sweeper that unilaterally aborts unprepared transactions whose
  coordinator has stopped driving them (their home site crashed).

Everything above the dashed line in the paper's Figure 1 — the web tier and
GUI — talks to sites only through messages; the coordinator for a *home*
transaction runs as a process on its site and uses the ``local_*`` methods
directly (no self-messages, so message counts match the real system).
Those methods are also where the site is observed: with tracing on they
open ``ccp.*`` spans under the caller's explicit ``span`` argument, and an
attached :class:`~repro.monitor.tracing.ExecutionTracer` (``history``)
records each completed operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from repro.errors import ConcurrencyAbort, NetworkError, RpcTimeout
from repro.net.message import Message, MessageType
from repro.site.deadlock import ProbeTypes as _ProbeTypesModule

from repro.net.network import Network
from repro.obs.spans import Span
from repro.protocols.base import Wait, follow, make_ccp
from repro.site.storage import LocalStore
from repro.site.wal import WriteAheadLog
from repro.sim.kernel import Process, Simulator

_PROBE_TYPES = _ProbeTypesModule.ALL

__all__ = ["Site", "SiteStats", "PreparedState"]


@dataclass
class PreparedState:
    """Volatile record of a transaction this site has voted YES on."""

    txn_id: int
    ts: float
    versions: dict[str, int]
    coordinator: Optional[str]
    acp: str = "2PC"
    peers: list[str] = field(default_factory=list)
    prepared_at: float = 0.0
    precommitted: bool = False
    resolving: bool = False


@dataclass
class SiteStats:
    """Per-site counters sampled by the progress monitor."""

    messages_handled: int = 0
    reads_served: int = 0
    prewrites_served: int = 0
    votes_yes: int = 0
    votes_no: int = 0
    commits_applied: int = 0
    aborts_applied: int = 0
    orphan_events: int = 0
    orphans_resolved: int = 0
    gc_aborts: int = 0
    crashes: int = 0
    recoveries: int = 0
    home_txns_started: int = 0


class Site:
    """One Rainbow site."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        host: str,
        *,
        ccp: str = "2PL",
        ccp_options: Optional[dict] = None,
        uncertainty_timeout: Optional[float] = 80.0,
        decision_retry: float = 25.0,
        gc_interval: float = 60.0,
        gc_timeout: float = 150.0,
        sweep_interval: float = 20.0,
        distributed_deadlock: bool = False,
        probe_interval: float = 20.0,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.host = host
        self.endpoint = network.endpoint(host, name)
        self.store = LocalStore(name)
        self.wal = WriteAheadLog(name)
        self.ccp_name = ccp.upper()
        self._ccp_options = dict(ccp_options or {})
        self.cc = make_ccp(self.ccp_name, sim, self.store, **self._ccp_options)
        self.stats = SiteStats()
        self.up = True

        self.uncertainty_timeout = uncertainty_timeout
        self.decision_retry = decision_retry
        self.gc_interval = gc_interval
        self.gc_timeout = gc_timeout
        self.sweep_interval = sweep_interval

        # Set by the Rainbow instance: called to run a home transaction when
        # one arrives via TXN_SUBMIT (the WLGlet dispatch path).
        self.coordinator_factory: Optional[Callable[["Site", Any], Any]] = None

        self._prepared: dict[int, PreparedState] = {}
        self._activity: dict[int, float] = {}
        # Live processes of this site, in spawn order: a crash interrupts
        # them in that order, so teardown is the same in every run.
        self._handlers: dict[Process, None] = {}
        # Same-host sibling sites (the paper's shared Sitelet): the instance
        # wires this map so one BATCH_ACCESS can fan out to co-located
        # copies without extra network hops.
        self.colocated: dict[str, "Site"] = {}
        # Transaction ids already accepted via TXN_SUBMIT: duplicated
        # deliveries (flaky links, duplication_rate) must not start the
        # same transaction twice.
        self._seen_submissions: set[int] = set()
        # Distributed-deadlock support: where each known transaction's home
        # is, and the contexts of transactions homed here.
        self._txn_home: dict[int, str] = {}
        self._home_ctxs: dict[int, object] = {}
        # Name-server metadata fetched at bring-up: the site directory and
        # the instance's one schema object (shared, never copied).
        self.directory: dict[str, str] = {}
        self.catalog = None
        # The two observers of local operations, both off by default: the
        # causal span tracer (``RainbowInstance.enable_tracing``), which
        # nests each CCP operation under the span passed in by its caller,
        # and the textbook history (``ExecutionTracer.attach``), which
        # records every operation that completed.
        self.tracer = None
        self.history = None
        self._start_background()
        self.deadlock_detector = None
        if distributed_deadlock:
            from repro.site.deadlock import DeadlockDetector

            self.deadlock_detector = DeadlockDetector(
                self, probe_interval=probe_interval
            )
            self._wire_detector()

    @property
    def address(self) -> str:
        """Network address of this site's endpoint."""
        return self.endpoint.address

    def in_doubt_count(self) -> int:
        """Transactions currently prepared with no known decision (orphans)."""
        return len(self._prepared)

    # -------------------------------------------------------- deadlock support
    def _wire_detector(self) -> None:
        if self.cc.lock_based and self.deadlock_detector is not None:
            self.cc.locks.on_block = self.deadlock_detector.on_block

    def register_home_txn(self, txn_id: int, ctx) -> None:
        """Track a home transaction's context (probe forwarding needs it)."""
        self._home_ctxs[txn_id] = ctx
        self._txn_home[txn_id] = self.address

    def unregister_home_txn(self, txn_id: int) -> None:
        self._home_ctxs.pop(txn_id, None)
        self._txn_home.pop(txn_id, None)

    def directory_address(self, site_name: str) -> Optional[str]:
        """Resolve a site name to its endpoint address (None if unknown)."""
        if site_name == self.name:
            return self.address
        return self.directory.get(site_name)

    # ------------------------------------------------------------------ lifecycle
    def _start_background(self) -> None:
        self.endpoint.serve(self._dispatch)
        if self.gc_interval:
            self._spawn(self._gc_loop(), name=f"site:{self.name}:gc")
        if self.uncertainty_timeout is not None:
            self._spawn(self._uncertainty_loop(), name=f"site:{self.name}:uncertain")

    def _spawn(self, generator, name: str) -> Process:
        process = self.sim.process(generator, name=name)
        self._handlers[process] = None
        process.add_callback(lambda _ev: self._handlers.pop(process, None))
        return process

    def spawn_home_transaction(self, generator, name: str) -> Process:
        """Run a home-transaction coordinator as a process of this site.

        The process dies with the site (it is interrupted on crash), exactly
        like the dedicated Java thread in the original system.
        """
        self.stats.home_txns_started += 1
        return self._spawn(generator, name=name)

    def crash(self) -> None:
        """Fail-stop: lose all volatile state; keep the store and the WAL."""
        if not self.up:
            return
        self.up = False
        self.stats.crashes += 1
        self.endpoint.set_down()
        for process in list(self._handlers):
            process.interrupt("site crash")
        self._handlers.clear()
        self.cc.clear()
        self._prepared.clear()
        self._activity.clear()
        self._home_ctxs.clear()
        self._txn_home.clear()

    def recover(self) -> None:
        """Restart from durable state; resolve in-doubt transactions.

        The store survived the crash with every committed write (a commit
        is applied and released in one step), so recovery only reinstates
        the in-doubt transactions in a fresh CCP and starts resolving them.
        """
        if self.up:
            return
        self.up = True
        self.stats.recoveries += 1
        self.endpoint.set_up()
        self.cc = make_ccp(self.ccp_name, self.sim, self.store, **self._ccp_options)
        for doubt in self.wal.recover_state():
            writes = {item: value for item, (value, _version) in doubt.writes.items()}
            versions = {item: version for item, (_value, version) in doubt.writes.items()}
            self.cc.reinstate(doubt.txn_id, doubt.ts, writes)
            state = PreparedState(
                txn_id=doubt.txn_id,
                ts=doubt.ts,
                versions=versions,
                coordinator=doubt.coordinator,
                acp=doubt.acp,
                peers=list(doubt.peers),
                prepared_at=self.sim.now,
                precommitted=doubt.precommitted,
            )
            self._prepared[doubt.txn_id] = state
            self._begin_resolution(state)

        self._start_background()
        if self.deadlock_detector is not None:
            self._wire_detector()
            self._spawn(
                self.deadlock_detector._reprobe_loop(), name=f"ddd:{self.name}"
            )

    # ------------------------------------------------------------------ server
    def _dispatch(self, msg: Message) -> None:
        """Handle one incoming message (the endpoint's served mailbox).

        Every message is handled inline, in the event that delivers it.
        Only an access (READ, PREWRITE, BATCH_ACCESS) can wait on the CCP,
        and its reply then leaves from a callback on the event it waits on.
        """
        self.stats.messages_handled += 1
        if msg.reply_to is not None:
            # A reply whose RPC already timed out at this endpoint: the
            # caller has moved on.  Drop it (answering would bounce replies
            # between servers forever).
            return
        payload = msg.payload or {}
        mtype = msg.mtype
        if mtype in (MessageType.READ, MessageType.PREWRITE, MessageType.BATCH_ACCESS):
            self._handle_access(msg, payload)
        elif mtype == MessageType.VOTE_REQ:
            self._handle_vote_req(msg, payload)
        elif mtype == MessageType.PRECOMMIT:
            self.local_precommit(payload["txn"])
            self.endpoint.reply(msg, MessageType.PRECOMMIT_ACK, {"ok": True})
        elif mtype == MessageType.COMMIT:
            self.local_commit(payload["txn"])
            self.endpoint.reply(msg, MessageType.ACK, {"ok": True})
        elif mtype == MessageType.ABORT:
            self.local_abort(payload["txn"])
            self.endpoint.reply(msg, MessageType.ACK, {"ok": True})
        elif mtype == MessageType.DECISION_REQ:
            decision = self.decision_of(
                payload["txn"], presume_abort=payload.get("presume_abort", False)
            )
            self.endpoint.reply(msg, MessageType.DECISION, {"decision": decision})
        elif mtype == MessageType.TXN_SUBMIT:
            self._handle_txn_submit(msg, payload)
        elif self.deadlock_detector is not None and mtype in _PROBE_TYPES:
            self.deadlock_detector.handle(msg)
        else:
            self.endpoint.reply(msg, MessageType.ACK, {"ok": False, "reason": "bad type"})

    def _handle_access(self, msg: Message, payload: dict) -> None:
        """Serve a READ, PREWRITE or BATCH_ACCESS request.

        A plain request is one access at this site; a BATCH_ACCESS names
        several sites on this host, and this site, the gateway, makes one
        access at each.  The reply has one entry per access: ``ok`` with the
        value and/or version, plus the folded vote when the request carried
        a piggybacked prepare; or not ``ok`` with a ``reason``, marked
        ``kind="net"`` when the target could not be reached.  An access that
        must wait settles from a callback on its event, without holding up
        the others.  The reply leaves as soon as the last access settles.  A
        site that crashed meanwhile sends nothing, even if it has recovered
        since.
        """
        txn, ts, item = payload["txn"], payload["ts"], payload["item"]
        write = msg.mtype == MessageType.PREWRITE or payload.get("kind") == "W"
        batch = msg.mtype == MessageType.BATCH_ACCESS
        sites = (payload.get("sites") or []) if batch else [self.name]
        prepares = (payload.get("prepare") or {}) if batch else {self.name: payload.get("prepare")}
        crashes = self.stats.crashes
        entries: dict[str, dict] = {}

        def reply() -> None:
            if self.stats.crashes != crashes:
                return
            if not batch:
                reply_type = MessageType.PREWRITE_REPLY if write else MessageType.READ_REPLY
                self.endpoint.reply(msg, reply_type, entries[self.name])
                return
            results = [{"site": name, **entries[name]} for name in sites]
            self.endpoint.reply(
                msg, MessageType.BATCH_REPLY, {"results": results}, size=max(1, len(results))
            )

        def settle(name: str, entry: dict) -> None:
            entries[name] = entry
            if len(entries) == len(sites):
                reply()

        def accessed(name: str, target: "Site", outcome: Any) -> None:
            if self.stats.crashes != crashes:
                return  # no one is left to answer: prepare nothing either
            if isinstance(outcome, ConcurrencyAbort):
                entry = {"ok": False, "reason": str(outcome)}
                if not target.up:
                    # A sibling crashed mid-wait (its lock table was cleared):
                    # like an unanswered request, the copy was unreachable.
                    entry = {"ok": False, "kind": "net", "reason": str(outcome)}
            elif write:
                entry = {"ok": True, "version": outcome}
            else:
                entry = {"ok": True, "value": outcome[0], "version": outcome[1]}
            prepare = prepares.get(name)
            if prepare is not None and entry["ok"]:
                # The last-agent optimization: the coordinator attached the
                # VOTE_REQ payload to the transaction's final access, so this
                # reply doubles as the participant's vote and the explicit
                # round is skipped.  A failed access aborts the transaction
                # before any vote matters, so only a successful one prepares.
                vote, reason = target.local_prepare(
                    txn,
                    prepare.get("versions", {}),
                    prepare.get("coordinator"),
                    ts,
                    acp=prepare.get("acp", "2PC"),
                    peers=prepare.get("peers", []),
                    span=msg.span,
                )
                entry["vote"] = vote
                entry["vote_reason"] = reason
            settle(name, entry)

        for name in sites:
            target = self if name == self.name else self.colocated.get(name)
            if target is None or not target.up:
                reason = f"{name} unavailable at gateway {self.name}"
                settle(name, {"ok": False, "kind": "net", "reason": reason})
                continue
            if payload.get("home") is not None:
                target._txn_home[txn] = payload["home"]
            if write:
                call = partial(target.local_prewrite, txn, ts, item, payload.get("value"), msg.span)
            else:
                call = partial(target.local_read, txn, ts, item, msg.span)
            follow(call, partial(accessed, name, target))

    def _handle_vote_req(self, msg: Message, payload: dict) -> None:
        vote, reason = self.local_prepare(
            payload["txn"],
            payload.get("versions", {}),
            payload.get("coordinator"),
            payload.get("ts", 0.0),
            acp=payload.get("acp", "2PC"),
            peers=payload.get("peers", []),
            span=msg.span,
        )
        self.endpoint.reply(msg, MessageType.VOTE, {"vote": vote, "reason": reason})

    def _handle_txn_submit(self, msg: Message, payload: dict) -> None:
        if self.coordinator_factory is None:
            self.endpoint.reply(
                msg, MessageType.TXN_RESULT, {"ok": False, "reason": "no coordinator"}
            )
            return
        # An unreliable link can deliver the same submission twice; running
        # the transaction again would double-apply its effects.  The first
        # delivery wins and its eventual TXN_RESULT answers the client.
        txn_id = payload["txn_spec"].txn_id
        if txn_id in self._seen_submissions:
            return
        self._seen_submissions.add(txn_id)

        def _run_and_report():
            outcome = yield from self.coordinator_factory(self, payload["txn_spec"])
            if self.up:
                # Result size tracks the data returned (one unit per read
                # value), so byte-weighted latency models see real payloads.
                n_values = len(outcome.get("reads", {})) if isinstance(outcome, dict) else 0
                self.endpoint.reply(
                    msg,
                    MessageType.TXN_RESULT,
                    {"ok": True, "outcome": outcome},
                    size=max(1, n_values),
                )

        self.spawn_home_transaction(_run_and_report(), name=f"txn@{self.name}")

    # ------------------------------------------------------------------ local ops
    def local_read(self, txn: int, ts: float, item: str, span: Optional[Span] = None) -> Any:
        """CCP-mediated read of the local copy.

        Returns ``(value, version)``, raises :class:`ConcurrencyAbort`, or
        returns a :class:`~repro.protocols.base.Wait` whose ``resume()``
        gives one of these outcomes once its event has fired.  ``span`` is
        the caller's trace context: the span this operation nests under
        when tracing is on.
        """
        self.stats.reads_served += 1
        return self._local("read", txn, item, None, span, partial(self.cc.read, txn, ts, item))

    def local_prewrite(
        self, txn: int, ts: float, item: str, value: Any, span: Optional[Span] = None
    ) -> Any:
        """CCP-mediated pre-write of the local copy; the current version.

        Its outcomes are those of :meth:`local_read`.
        """
        self.stats.prewrites_served += 1
        return self._local(
            "prewrite", txn, item, value, span, partial(self.cc.prewrite, txn, ts, item, value)
        )

    def _local(self, op: str, txn: int, item: str, value: Any, span, call) -> Any:
        self._touch(txn)
        opened = None
        if self.tracer is not None:
            opened = self.tracer.begin(txn, self.name, f"ccp.{op}", parent=span, item=item)
        return self._settle(call, self.stats.crashes, opened, op, txn, item, value)

    def _settle(self, step, crashes: int, opened, op: str, txn: int, item: str, value) -> Any:
        """Take one step of a local access; end it with the one epilogue.

        An answer and a rejection share the epilogue: the ``ccp.*`` span
        closes, then the operation goes into the history (an answer) or a
        transaction left holding nothing here is forgotten (a rejection).
        A :class:`Wait` is handed on with this method as its continuation.
        An access whose site crashed while it waited ends rejected, and only
        its span closes: the crash dropped the state it held.
        """
        try:
            if self.stats.crashes != crashes:
                raise ConcurrencyAbort(f"site {self.name} crashed while txn{txn} waited")
            outcome = step()
        except ConcurrencyAbort:
            if opened is not None:
                self.tracer.finish(opened)
            if self.stats.crashes == crashes:
                self._forget_if_idle(txn)
            raise
        if isinstance(outcome, Wait):
            return Wait(
                outcome.event,
                partial(self._settle, outcome.resume, crashes, opened, op, txn, item, value),
            )
        if opened is not None:
            self.tracer.finish(opened)
        if self.history is not None:
            if op == "read":
                value, version = outcome
            else:
                version = outcome
            self.history.record(op, self.name, txn, item=item, value=value, version=version)
        return outcome

    def local_prepare(
        self,
        txn: int,
        versions: dict[str, int],
        coordinator: Optional[str],
        ts: float,
        acp: str = "2PC",
        peers: Optional[list[str]] = None,
        span: Optional[Span] = None,
    ) -> tuple[bool, str]:
        """Participant prepare: force the PREPARE record and vote.

        Returns ``(vote, reason)``.  A NO vote locally aborts right away
        (the coordinator will abort globally anyway).
        """
        vote, reason = self._prepare_vote(txn, versions, coordinator, ts, acp, peers)
        if self.tracer is not None:
            now = self.sim.now
            self.tracer.record(
                txn, self.name, "ccp.prepare", start=now, end=now, parent=span, vote=vote
            )
        if vote and self.history is not None:
            self.history.record("prepare", self.name, txn)
        return vote, reason

    def _prepare_vote(
        self,
        txn: int,
        versions: dict[str, int],
        coordinator: Optional[str],
        ts: float,
        acp: str,
        peers: Optional[list[str]],
    ) -> tuple[bool, str]:
        self._touch(txn)
        if self.cc.is_doomed(txn):
            self.cc.abort(txn)
            self.stats.votes_no += 1
            return False, "doomed (wounded or recovery abort)"
        buffered = self.cc.buffered_writes(txn)
        missing = [item for item in versions if item not in buffered]
        if missing:
            self.stats.votes_no += 1
            return False, f"workspace lost for {missing}"
        valid, validation_reason = self.cc.validate(txn)
        if not valid:
            self.cc.abort(txn)
            self.stats.votes_no += 1
            return False, f"validation failed: {validation_reason}"
        writes = {item: (buffered[item], versions[item]) for item in versions}
        self.wal.log_prepare(
            txn, writes, coordinator, self.sim.now, ts=ts, acp=acp, peers=list(peers or [])
        )
        self._prepared[txn] = PreparedState(
            txn_id=txn,
            ts=ts,
            versions=dict(versions),
            coordinator=coordinator,
            acp=acp,
            peers=list(peers or []),
            prepared_at=self.sim.now,
        )
        self.stats.votes_yes += 1
        return True, "yes"

    def local_precommit(self, txn: int) -> None:
        """3PC pre-commit: durable, moves the participant out of uncertainty."""
        state = self._prepared.get(txn)
        if state is not None:
            self.wal.log_precommit(txn, self.sim.now)
            state.precommitted = True
        if self.history is not None:
            self.history.record("precommit", self.name, txn)

    def local_commit(self, txn: int) -> None:
        """Apply the global COMMIT decision at this participant.

        Only a prepared transaction commits.  A COMMIT that finds no
        prepared state is a duplicate (a retry, a duplicated delivery, or a
        resolution racing the coordinator's broadcast): the decision was
        applied and released already, so it is acknowledged and otherwise
        ignored.
        """
        state = self._prepared.pop(txn, None)
        if state is not None:
            # Tag the record as a participant's copy of the decision: the
            # release that follows keeps it only under 3PC (see
            # WriteAheadLog.release), as it does an ABORT.
            self.wal.log_commit(
                txn, self.sim.now, coordinator=state.coordinator, acp=state.acp
            )
            self.cc.commit(txn, state.versions)
            self.wal.release(txn)
            self._forget(txn)
            self.stats.commits_applied += 1
            if state.resolving:
                self.stats.orphans_resolved += 1
        if self.history is not None:
            self.history.record("commit", self.name, txn)

    def local_abort(self, txn: int) -> None:
        """Apply the global ABORT decision (idempotent, presumed abort)."""
        state = self._prepared.pop(txn, None)
        if state is not None:
            self.wal.log_abort(txn, self.sim.now, coordinator=state.coordinator, acp=state.acp)
            self.wal.release(txn)
        self.cc.abort(txn)
        self._forget(txn)
        self.stats.aborts_applied += 1
        if state is not None and state.resolving:
            self.stats.orphans_resolved += 1
        if self.history is not None:
            self.history.record("abort", self.name, txn)

    def decision_of(self, txn: int, presume_abort: bool = False) -> str:
        """Answer a DECISION_REQ about ``txn`` from durable + volatile state.

        ``presume_abort`` queries are directed at the transaction's
        *coordinator*: no logged decision means the coordinator never
        decided, so the answer is ABORT — even if this site also happens to
        hold an (equally undecided) participant state for the transaction.
        A PRECOMMIT record still wins: under 3PC it certifies that every
        participant voted YES.
        """
        decision = self.wal.decision_for(txn)
        if decision is not None:
            return decision
        state = self._prepared.get(txn)
        if state is not None and state.precommitted:
            return "PRECOMMITTED"
        if presume_abort:
            return "ABORT"
        if state is not None:
            return "UNCERTAIN"
        return "UNKNOWN"

    # ------------------------------------------------------------------ sweepers
    def _gc_loop(self):
        """Abort unprepared transactions abandoned by a dead coordinator."""
        while self.up:
            yield self.sim.timeout(self.gc_interval)
            if not self.up:
                return
            horizon = self.sim.now - self.gc_timeout
            for txn in sorted(self.cc.active_transactions()):
                if txn in self._prepared:
                    continue  # prepared: must wait for the decision
                if self._activity.get(txn, self.sim.now) < horizon:
                    self.cc.abort(txn)
                    self._forget(txn)
                    self.stats.gc_aborts += 1

    def _uncertainty_loop(self):
        """Start decision resolution for participants stuck in doubt."""
        while self.up:
            yield self.sim.timeout(self.sweep_interval)
            if not self.up:
                return
            horizon = self.sim.now - (self.uncertainty_timeout or 0.0)
            for state in list(self._prepared.values()):
                if not state.resolving and state.prepared_at < horizon:
                    self._begin_resolution(state)

    def _begin_resolution(self, state: PreparedState) -> None:
        state.resolving = True
        self.stats.orphan_events += 1
        self._spawn(self._resolve(state), name=f"site:{self.name}:resolve:{state.txn_id}")

    def _resolve(self, state: PreparedState):
        """Learn the decision for an in-doubt transaction.

        2PC: poll the coordinator (presumed abort) until it answers — the
        blocking window of 2PC is exactly the time spent in this loop.
        3PC: after a failed coordinator round, run the (simplified,
        fail-stop) termination protocol over the peers: any decision is
        adopted; any PRECOMMITTED means commit; all-uncertain means abort.
        """
        txn = state.txn_id
        while self.up and txn in self._prepared:
            answer = yield from self._ask(state.coordinator, txn, presume_abort=True)
            if answer == "COMMIT":
                self.local_commit(txn)
                return
            if answer == "ABORT":
                self.local_abort(txn)
                return
            if state.acp == "3PC":
                decided = yield from self._terminate_3pc(state)
                if decided:
                    return
            yield self.sim.timeout(self.decision_retry)

    def _terminate_3pc(self, state: PreparedState):
        """Simplified (fail-stop) 3PC termination over the reachable peers.

        * Any peer with a decision → adopt it.
        * Any reachable PRECOMMITTED peer (or self) → COMMIT: precommit
          certifies unanimous YES votes.
        * Otherwise → ABORT: the coordinator commits only after delivering
          PRECOMMIT to the operational participants, so if none of them is
          precommitted nobody can have committed.  (This is the classic
          no-partition assumption of 3PC; crashed peers adopt the outcome
          via their own recovery resolution.)
        """
        txn = state.txn_id
        saw_precommit = state.precommitted
        reached_any = False
        for peer in state.peers:
            if peer == self.address:
                continue
            answer = yield from self._ask(peer, txn, presume_abort=False)
            if answer == "COMMIT":
                self.local_commit(txn)
                return True
            if answer == "ABORT":
                self.local_abort(txn)
                return True
            if answer == "PRECOMMITTED":
                saw_precommit = True
            if answer is not None:
                reached_any = True
        if saw_precommit:
            self.local_commit(txn)
            return True
        if reached_any or len([p for p in state.peers if p != self.address]) == 0:
            self.local_abort(txn)
            return True
        return False  # total isolation: keep retrying

    def _ask(self, address: Optional[str], txn: int, presume_abort: bool):
        if address is None:
            return None
        if address == self.address:
            return self.decision_of(txn, presume_abort=presume_abort)
        try:
            reply = yield self.endpoint.request(
                address,
                MessageType.DECISION_REQ,
                {"txn": txn, "presume_abort": presume_abort},
                timeout=self.decision_retry,
                txn_id=txn,
            )
        except (RpcTimeout, NetworkError):
            return None
        decision = (reply.payload or {}).get("decision")
        return decision  # may be UNCERTAIN/UNKNOWN — the caller interprets

    # ------------------------------------------------------------------ helpers
    def _touch(self, txn: int) -> None:
        self._activity[txn] = self.sim.now

    def _forget(self, txn: int) -> None:
        """Drop the volatile per-transaction state of a finished transaction."""
        self._activity.pop(txn, None)
        self._txn_home.pop(txn, None)

    def _forget_if_idle(self, txn: int) -> None:
        """After a rejected access, forget a transaction that holds nothing here.

        A site whose only access was rejected is no participant, so no
        decision will ever reach it.  Nothing reads the dropped entries:
        the garbage sweeper reads the activity only of transactions with
        CCP state, and the deadlock detector the homes only of lock holders
        and waiters.
        """
        if txn in self.cc.active_transactions():
            return
        if self.cc.lock_based and self.cc.locks.held_locks(txn):
            return
        self._forget(txn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.up else "down"
        return f"<Site {self.name}@{self.host} {status} ccp={self.ccp_name}>"
