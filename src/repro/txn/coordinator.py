"""The home-site transaction coordinator.

"When a new transaction arrives at a Rainbow site, the site dedicates one
thread to process it.  The thread immediately invokes the RCP. … When all
operations of a transaction are processed by the RCP, the home site
initiates a two-phase commit session … When commitment terminates, the
transaction is complete and the thread finishes."

:func:`run_transaction` is that thread, as a kernel process running *on*
the home site (it dies with it).  :class:`TxnContext` is the toolbox it
hands to the pluggable RCP and ACP: copy access (local calls for the home
copy, request/reply messages for remote copies), participant registration,
version bookkeeping, and the vote/decision machinery of the commit
protocols.

Abort classification follows the paper's statistics: RCP (quorum or copy
set unattainable), CCP (rejected/deadlock victim), ACP (a NO vote or vote
timeout), SYSTEM (the home site crashed mid-flight).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import CommitAbort, ConcurrencyAbort, SystemAbort, TransactionAborted
from repro.nameserver.catalog import Catalog
from repro.net.message import MessageType
from repro.obs.spans import SpanRef
from repro.protocols.base import CommitProtocol, ReplicationController, follow
from repro.sim.kernel import Countdown, Interrupt
from repro.site.site import Site
from repro.txn.transaction import OpKind, Transaction, TxnStatus

if TYPE_CHECKING:  # import cycle guard: repro.core builds on the coordinator
    from repro.core.config import ProtocolConfig

__all__ = ["AccessResult", "Participant", "TxnContext", "run_transaction"]


@dataclass
class AccessResult:
    """Outcome of one copy access (never raises — RCPs classify)."""

    ok: bool
    site: str
    value: Any = None
    version: float = 0.0
    kind: Optional[str] = None  # "ccp" | "net" when not ok
    reason: str = ""


@dataclass
class Participant:
    """A site the transaction touched; it must see the final decision."""

    site: str
    address: str
    versions: dict[str, float] = field(default_factory=dict)  # prewritten items


class TxnContext:
    """Everything the RCP and ACP need while processing one transaction."""

    def __init__(
        self,
        txn: Transaction,
        home: Site,
        catalog: Catalog,
        directory: dict[str, str],
        config: ProtocolConfig,
        rcp: ReplicationController,
        acp: CommitProtocol,
        monitor=None,
    ):
        self.txn = txn
        self.home = home
        self.sim = home.sim
        self.catalog = catalog
        self.directory = directory  # site name -> endpoint address
        self.config = config
        self.monitor = monitor
        self.participants: dict[str, Participant] = {}
        self.rcp = rcp  # the instance's shared policies
        self.acp = acp
        # Sites where copy accesses are currently outstanding (a counted
        # multiset: quorum accesses run concurrently).  The distributed-
        # deadlock detector forwards probes through ``blocked_sites``.
        self._blocked_counts: dict[str, int] = {}
        # Piggybacked-prepare state: armed only while the final operation's
        # accesses are in flight; votes folded into access replies wait
        # here until collect_votes consumes them.
        self._piggyback_armed = False
        self._pending_votes: dict[str, tuple[bool, str]] = {}
        # Causal tracing: the instance's span tracer (None = tracing off)
        # and handles to the transaction's root span and the innermost open
        # span.  The current handle rides on every outgoing message so
        # network and site spans nest under the coordinator phase that
        # caused them.
        self.tracer = home.tracer
        self.root_span = None
        self.current_span = None

    # -- causal tracing ----------------------------------------------------------
    def begin_span(self, name: str, **attrs):
        """Open a child span under the current one; None when tracing is off.

        Returns an opaque token for :meth:`end_span`.  Spans opened through
        this pair form a stack, so nested protocol layers (an RCP wave
        inside an op, a vote round inside the ACP) parent correctly.
        """
        if self.tracer is None:
            return None
        span = self.tracer.begin(
            self.txn.txn_id,
            self.home.name,
            name,
            parent=self.trace_context(),
            **attrs,
        )
        token = (span, self.current_span)
        self.current_span = span
        return token

    def end_span(self, token) -> None:
        """Close a span opened with :meth:`begin_span` (no-op for None)."""
        if token is None:
            return
        span, previous = token
        self.tracer.finish(span)
        self.current_span = previous

    def trace_context(self) -> Optional[SpanRef]:
        """Handle of the span to stamp on outgoing messages (None when off)."""
        return self.current_span or self.root_span

    @property
    def blocked_sites(self) -> list[str]:
        """The sites where the transaction is currently waiting, first waited first."""
        return list(self._blocked_counts)

    def _block_enter(self, site: str) -> None:
        self._blocked_counts[site] = self._blocked_counts.get(site, 0) + 1

    def _block_exit(self, site: str) -> None:
        count = self._blocked_counts.get(site, 0) - 1
        if count <= 0:
            self._blocked_counts.pop(site, None)
        else:
            self._blocked_counts[site] = count

    # -- topology helpers --------------------------------------------------------
    def order_local_first(self, sites: list[str]) -> list[str]:
        """Copy-holder order: the home copy is free, so it goes first.

        With ``latency_aware_routing`` the remaining holders are ranked by
        the latency model's expected delay from the home host (deterministic
        tie-break on name), so quorum waves and ROWA-A reads prefer LAN
        replicas over WAN ones under :class:`~repro.net.latency.LanWanLatency`.
        """
        if self.config.latency_aware_routing:
            ordered = sorted(
                (site for site in sites if site != self.home.name),
                key=self._latency_rank,
            )
            if self.home.name in sites:
                ordered.insert(0, self.home.name)
            return ordered
        ordered = sorted(sites)
        if self.home.name in ordered:
            ordered.remove(self.home.name)
            ordered.insert(0, self.home.name)
        return ordered

    def _latency_rank(self, site: str) -> tuple[float, str]:
        """Sort key for copy holders: (expected delay from home, name).

        Uses the model's deterministic expectation — never a random draw —
        so routing cannot perturb the network's latency stream.
        """
        latency = self.home.network.latency
        return (latency.expected_delay(self.home.host, self.host_of(site)), site)

    def address_of(self, site: str) -> str:
        return self.directory[site]

    def host_of(self, site: str) -> str:
        """The host a site lives on (addresses are ``host/name``)."""
        return self.address_of(site).split("/", 1)[0]

    # -- copy access ---------------------------------------------------------------
    #
    # Every copy access goes through one planner: ``_plan`` splits the
    # target sites into groups, ``_request_group`` issues one request per
    # remote group, and ``_group_results`` classifies its reply.  Batching
    # is only a grouping policy; a group of one is the plain message.
    def access_read(self, site: str, item: str):
        """Read the copy of ``item`` at ``site`` (generator → AccessResult)."""
        (result,) = yield from self._access_many([site], item, write=False)
        return result

    def access_prewrite(self, site: str, item: str, value: Any):
        """Pre-write ``item`` at ``site`` (generator → AccessResult)."""
        (result,) = yield from self._access_many([site], item, write=True, value=value)
        return result

    def access_read_many(self, sites: list[str], item: str):
        """Concurrent reads at several sites (generator → list[AccessResult])."""
        return (yield from self._access_many(sites, item, write=False))

    def access_prewrite_many(self, sites: list[str], item: str, value: Any):
        """Concurrent pre-writes at several sites (generator → results)."""
        return (yield from self._access_many(sites, item, write=True, value=value))

    def _access_many(self, sites: list[str], item: str, write: bool, value: Any = None):
        """Run every group of the plan concurrently; results in ``sites`` order.

        The one copy-access path: a single access is a wave of one.  No
        group runs as a process.  Each group starts inline, in plan order:
        the home copy as a direct local call that :func:`follow` drives
        through its waits, a remote group as one request.  Each outcome,
        classified as it settles, counts down the wave's join.
        """
        join = Countdown(self.sim, len(sites))
        results: dict[str, AccessResult] = {}

        def home_done(outcome: Any) -> None:
            results[self.home.name] = self._home_result(outcome, write)
            join.tick()

        def settle(group: list[str], event) -> None:
            for access in self._group_results(group, event):
                results[access.site] = access
                join.tick()

        for group in self._plan(sites):
            if group == [self.home.name]:
                follow(partial(self._home_call, item, write, value), home_done)
            else:
                event = self._request_group(group, item, write, value)
                event.add_callback(partial(settle, group))
        yield join
        return [results[site] for site in sites]

    def _plan(self, sites: list[str]) -> list[list[str]]:
        """Split ``sites`` into access groups, one request each.

        Without ``batch_site_ops`` every site is its own group, in the order
        of ``sites``.  With it, the home copy comes first and the remote
        sites are grouped by host (hosts in name order), so co-located
        copies share one BATCH_ACCESS.
        """
        if not self.config.batch_site_ops:
            return [[site] for site in sites]
        home = self.home.name
        groups = [[home]] if home in sites else []
        by_host: dict[str, list[str]] = {}
        for site in sites:
            if site != home:
                by_host.setdefault(self.host_of(site), []).append(site)
        return groups + [by_host[host] for host in sorted(by_host)]

    def _request_group(self, group: list[str], item: str, write: bool, value: Any = None):
        """Send one request for a remote ``group``; returns its RPC event.

        A group of one is a plain READ/PREWRITE; a larger group (one host)
        is a BATCH_ACCESS to its first (name-ordered) member, which fans the
        sub-ops out to its co-located siblings.  The group's sites count as
        blocked until :meth:`_group_results` classifies the reply.
        """
        request: dict[str, Any] = {
            "txn": self.txn.txn_id,
            "ts": self.txn.ts,
            "item": item,
            "home": self.home.address,
        }
        if write:
            request["value"] = value
        prepares = {}
        for site in group:
            prepare = self._piggyback_payload(site, item, write)
            if prepare is not None:
                prepares[site] = prepare
        if len(group) == 1:
            mtype = MessageType.PREWRITE if write else MessageType.READ
            if prepares:
                request["prepare"] = prepares[group[0]]
        else:
            mtype = MessageType.BATCH_ACCESS
            request.update(kind="W" if write else "R", sites=list(group))
            if prepares:
                request["prepare"] = prepares
        for site in group:
            self._block_enter(site)
        return self.home.endpoint.request(
            self.address_of(min(group)),
            mtype,
            request,
            timeout=self.config.op_timeout,
            txn_id=self.txn.txn_id,
            size=len(group),
            span=self.trace_context(),
        )

    def _group_results(self, group: list[str], event) -> list[AccessResult]:
        """Classify the fired RPC event of :meth:`_request_group`.

        A failed request (timeout, endpoint down) is a net failure for
        every member of the group.
        """
        for site in group:
            self._block_exit(site)
        if not event.ok:
            return [
                AccessResult(False, site, kind="net", reason=str(event.value)) for site in group
            ]
        payload = event.value.payload or {}
        if len(group) == 1:
            return [self._access_result(group[0], payload)]
        if self.monitor is not None:
            self.monitor.note_batched_ops(len(group), saved=len(group) - 1)
        entries = {entry.get("site"): entry for entry in payload.get("results", [])}
        return [self._access_result(site, entries.get(site)) for site in group]

    def _home_call(self, item: str, write: bool, value: Any) -> Any:
        """Start a home-copy access: a direct local call, no message.

        The home site counts as blocked until :meth:`_home_result`.
        """
        self._block_enter(self.home.name)
        txn_id, ts, span = self.txn.txn_id, self.txn.ts, self.trace_context()
        if write:
            return self.home.local_prewrite(txn_id, ts, item, value, span)
        return self.home.local_read(txn_id, ts, item, span)

    def _home_result(self, outcome: Any, write: bool) -> AccessResult:
        """Classify the answer or ConcurrencyAbort of a home-copy access."""
        site = self.home.name
        self._block_exit(site)
        if isinstance(outcome, ConcurrencyAbort):
            return AccessResult(False, site, kind="ccp", reason=str(outcome))
        self._register(site)
        if write:
            return AccessResult(True, site, version=outcome)
        return AccessResult(True, site, value=outcome[0], version=outcome[1])

    def _access_result(self, site: str, entry: Optional[dict]) -> AccessResult:
        """Classify one reply entry (a plain reply or one batch entry).

        A missing entry is a net failure; a rejection is a CCP failure
        unless the site marked it ``kind="net"`` (target unreachable).
        """
        if entry is None:
            return AccessResult(False, site, kind="net", reason="no batch result")
        if not entry.get("ok"):
            return AccessResult(
                False, site, kind=entry.get("kind", "ccp"), reason=entry.get("reason", "")
            )
        self._register(site)
        self._absorb_vote(site, entry)
        return AccessResult(True, site, value=entry.get("value"), version=entry.get("version", 0))

    # -- piggybacked prepare -----------------------------------------------------
    def arm_piggyback(self) -> None:
        """Arm prepare piggybacking for the transaction's final operation.

        Only an ACP without a precommit round benefits (3PC's extra
        PRECOMMIT round dominates either way), so one with it leaves the
        flag unarmed and keeps the explicit vote round.
        """
        self._piggyback_armed = self.config.piggyback_prepare and not self.acp.precommit_round

    def _piggyback_payload(self, site: str, item: str, write: bool) -> Optional[dict]:
        """VOTE_REQ payload to ride on a final-operation access (or None).

        A write access can only carry a prepare when versions are
        timestamps (the installed version is known before the prewrite is
        sent); counter-version CCPs miss the window and fall back to the
        explicit vote round.  The home site always prepares via the direct
        local call in :meth:`collect_votes`.
        """
        if not self._piggyback_armed or site == self.home.name:
            return None
        if write and not self.home.cc.timestamp_versions:
            return None
        participant = self.participants.get(site)
        versions = dict(participant.versions) if participant is not None else {}
        if write:
            versions[item] = self.txn.ts
        return {
            "versions": versions,
            "coordinator": self.home.address,
            "peers": self.participant_addresses(),
        }

    def _absorb_vote(self, site: str, payload: dict) -> None:
        """Store a vote folded into an access reply for collect_votes."""
        if "vote" in payload:
            self._pending_votes[site] = (
                bool(payload["vote"]),
                payload.get("vote_reason", ""),
            )

    # -- bookkeeping -----------------------------------------------------------------
    def _register(self, site: str) -> None:
        if site not in self.participants:
            self.participants[site] = Participant(site=site, address=self.address_of(site))

    def assign_version(self, results) -> float:
        """The version a write will install, from its prewrite results.

        Counter semantics (2PL, OCC): one past the highest committed
        version seen in the written copy set.  Timestamp semantics (TSO,
        MVTO — CCPs declaring ``timestamp_versions``): the writer's own
        timestamp, so versions are ordered by ts.
        """
        if self.home.cc.timestamp_versions:
            return self.txn.ts
        return max(result.version for result in results) + 1

    def note_prewrite(self, site: str, item: str, new_version: float) -> None:
        """Record that ``site`` buffered ``item`` to be stamped ``new_version``."""
        self._register(site)
        self.participants[site].versions[item] = new_version

    def note_read(self, item: str, version: float) -> None:
        """Record the version the transaction observed for ``item``."""
        self.txn.read_versions[item] = version

    def note_write(self, item: str, version: float) -> None:
        """Record the version this transaction will install for ``item``."""
        self.txn.write_versions[item] = version

    def participant_addresses(self) -> list[str]:
        return [p.address for p in self.participants.values()]

    # -- ACP primitives -----------------------------------------------------------------
    def step(self, name: str) -> None:
        """Start the next numbered ACP step: a ``"step"`` event on the home's stream.

        A crash plan there may crash the home first; then nothing is forced or sent.
        """
        home = self.home
        for subscriber in home.subscribers:
            subscriber("step", home.name, self.txn.txn_id, name, None, None)
        if not home.up:
            raise Interrupt("home site crashed")

    def collect_votes(self):
        """Phase 1: VOTE_REQ to every participant; returns (all_yes, detail).

        The home participant votes via a direct call; remote participants
        via messages.  A vote that does not arrive within ``vote_timeout``
        counts as NO (the classic timeout action).
        """
        self.step("acp.vote")
        span = self.begin_span("acp.vote", acp=self.acp.name)
        try:
            result = yield from self._collect_votes()
        finally:
            self.end_span(span)
        return result

    def _collect_votes(self):
        peers = self.participant_addresses()
        remote = []
        all_yes = True
        detail = []
        for participant in sorted(self.participants.values(), key=lambda p: p.site):
            if participant.site == self.home.name:
                vote, reason = self.home.local_prepare(
                    self.txn.txn_id,
                    participant.versions,
                    self.home.address,
                    self.txn.ts,
                    peers=peers,
                    span=self.trace_context(),
                )
                if not vote:
                    all_yes = False
                    detail.append(f"{participant.site}: {reason}")
            elif participant.site in self._pending_votes:
                # The vote rode back on the final access reply (piggybacked
                # prepare): the whole VOTE_REQ round trip is saved for this
                # participant.
                vote, reason = self._pending_votes[participant.site]
                if self.monitor is not None:
                    self.monitor.note_round_trips_saved(1)
                if not vote:
                    all_yes = False
                    detail.append(f"{participant.site}: {reason or 'NO'}")
            else:
                remote.append(participant)

        if remote:
            events = [
                self.home.endpoint.request(
                    participant.address,
                    MessageType.VOTE_REQ,
                    {
                        "txn": self.txn.txn_id,
                        "ts": self.txn.ts,
                        "versions": participant.versions,
                        "coordinator": self.home.address,
                        "peers": peers,
                    },
                    timeout=self.config.vote_timeout,
                    txn_id=self.txn.txn_id,
                    span=self.trace_context(),
                )
                for participant in remote
            ]
            join = Countdown(self.sim, len(events))
            for event in events:
                event.add_callback(join.tick)
            yield join
            for participant, event in zip(remote, events):
                if not event.ok:
                    all_yes = False
                    detail.append(f"{participant.site}: no vote ({event.value})")
                    continue
                payload = event.value.payload or {}
                if not payload.get("vote"):
                    all_yes = False
                    detail.append(f"{participant.site}: {payload.get('reason', 'NO')}")
        return all_yes, "; ".join(detail)

    def broadcast(self, mtype: str, *, retries: Optional[int] = None):
        """Send a decision/phase message to every participant, with retries.

        The home participant is handled by direct local calls.  Remote
        participants that never acknowledge are abandoned — they hold the
        prepared state and will resolve it through DECISION_REQ.
        Returns the number of participants that acknowledged.
        """
        name = "acp.precommit" if mtype == MessageType.PRECOMMIT else "acp.decision"
        self.step(name)
        span = self.begin_span(name, decision=mtype)
        try:
            result = yield from self._broadcast(mtype, retries=retries)
        finally:
            self.end_span(span)
        return result

    def _broadcast(self, mtype: str, *, retries: Optional[int] = None):
        attempts = max(1, self.config.ack_retries if retries is None else retries)
        crashes = self.home.stats.crashes
        acked = 0
        remote = []
        for participant in sorted(self.participants.values(), key=lambda p: p.site):
            if participant.site == self.home.name:
                self._local_decision(mtype)
                acked += 1
            else:
                remote.append(participant)

        join = Countdown(self.sim, len(remote))
        acks: list[str] = []
        for participant in remote:
            self._deliver(participant.address, mtype, attempts, crashes, join, acks)
        yield join
        return acked + len(acks)

    def _local_decision(self, mtype: str) -> None:
        if mtype == MessageType.COMMIT:
            self.home.local_commit(self.txn.txn_id)
        elif mtype == MessageType.ABORT:
            self.home.local_abort(self.txn.txn_id)
        elif mtype == MessageType.PRECOMMIT:
            self.home.local_precommit(self.txn.txn_id)

    def _deliver(
        self, address: str, mtype: str, attempts: int, crashes: int, join, acks: list
    ) -> None:
        """Request ``mtype`` at ``address``; on failure, retry from the callback.

        At most ``attempts`` tries; the participant's one outcome
        (``address`` appended to ``acks`` or not) ticks ``join``.  Once the
        home site has crashed since the broadcast began (its crash count is
        no longer ``crashes``, even if it has recovered since), the dead
        coordinator sends nothing more and the participant counts as not
        acknowledged; it resolves through DECISION_REQ.
        """
        if self.home.stats.crashes != crashes:
            join.tick()
            return

        def settle(event) -> None:
            if event.ok:
                acks.append(address)
            elif attempts > 1:
                self._deliver(address, mtype, attempts - 1, crashes, join, acks)
                return
            join.tick()

        self.home.endpoint.request(
            address,
            mtype,
            {"txn": self.txn.txn_id},
            timeout=self.config.ack_timeout,
            txn_id=self.txn.txn_id,
            span=self.trace_context(),
        ).add_callback(settle)

    def log_decision(self, decision: str) -> None:
        """Force the coordinator's decision record at the home site.

        A COMMIT stays until END.  An ABORT is released at once: presumed
        abort answers a missing record with ABORT (a WAL that keeps
        decisions keeps it for the peers' termination queries, see
        WriteAheadLog.release).
        """
        self.step("force.decision")
        wal = self.home.wal
        if decision == "COMMIT":
            wal.log_commit(self.txn.txn_id, self.sim.now)
        else:
            wal.log_abort(self.txn.txn_id, self.sim.now)
            wal.release(self.txn.txn_id)
        self.txn.decided_at = self.sim.now

    def log_end_if_complete(self, acked: int) -> None:
        """Force END once every participant acknowledged the decision.

        With the full ack round collected, no participant can ever be in
        doubt about this transaction again, so the coordinator's COMMIT
        record leaves the log with its END (presumed abort's END record).
        An incomplete round leaves the record pinned until the silent
        participants resolve through DECISION_REQ.
        """
        if acked == len(self.participants):
            self.step("force.end")
            wal = self.home.wal
            wal.log_end(self.txn.txn_id, self.sim.now)
            wal.release(self.txn.txn_id)


_OP_SPAN_NAMES = {
    OpKind.READ: "rcp.read",
    OpKind.WRITE: "rcp.write",
    OpKind.INCREMENT: "rcp.increment",
}


def run_transaction(ctx: TxnContext):
    """Process one transaction end to end (RCP loop, then ACP).

    Returns the transaction's final status string; all bookkeeping happens
    on ``ctx.txn`` and through the monitor.
    """
    txn = ctx.txn
    sim = ctx.sim
    txn.started_at = sim.now
    # Unique, arrival-ordered timestamps (TO protocols need uniqueness).
    txn.ts = sim.now + (txn.txn_id % 1_000_000) * 1e-9
    txn.status = TxnStatus.RUNNING
    if ctx.monitor is not None:
        ctx.monitor.txn_started(txn)
    if ctx.tracer is not None:
        # Root span covers [submission, decision] — exactly the monitor's
        # response time — so a txn's phase breakdown sums to it.  The time
        # between submission and this process starting (WLG dispatch, the
        # TXN_SUBMIT flight) is recorded as a complete "dispatch" child.
        ctx.root_span = ctx.tracer.begin(
            txn.txn_id,
            ctx.home.name,
            "txn",
            start=txn.submitted_at,
            attempt=txn.attempt,
        )
        if sim.now > txn.submitted_at:
            ctx.tracer.record(
                txn.txn_id,
                ctx.home.name,
                "dispatch",
                start=txn.submitted_at,
                end=sim.now,
                parent=ctx.root_span,
            )

    try:
        final = len(txn.ops) - 1
        for index, op in enumerate(txn.ops):
            op_span = ctx.begin_span(_OP_SPAN_NAMES[op.kind], item=op.item)
            try:
                if op.kind == OpKind.READ:
                    if index == final:
                        ctx.arm_piggyback()
                    txn.reads[op.item] = yield from ctx.rcp.do_read(ctx, op.item)
                elif op.kind == OpKind.INCREMENT:
                    # Arm only around the write half: preparing a participant
                    # during the read half would freeze its workspace before
                    # the increment's prewrite lands.
                    current = yield from ctx.rcp.do_read(ctx, op.item)
                    txn.reads[op.item] = current
                    if index == final:
                        ctx.arm_piggyback()
                    yield from ctx.rcp.do_write(ctx, op.item, current + op.value)
                else:
                    if index == final:
                        ctx.arm_piggyback()
                    yield from ctx.rcp.do_write(ctx, op.item, op.value)
            finally:
                ctx.end_span(op_span)
        yield from ctx.acp.run(ctx)
        txn.status = TxnStatus.COMMITTED
    except CommitAbort as abort:
        # The ACP has already propagated the abort to the participants.
        _mark_aborted(txn, abort, sim.now)
    except TransactionAborted as abort:
        _mark_aborted(txn, abort, sim.now)
        try:
            yield from ctx.broadcast(MessageType.ABORT, retries=1)
        except Interrupt:
            pass  # the home site crashed while cleaning up
    except Interrupt:
        if ctx.home.wal.decision_for(txn.txn_id) == "COMMIT":
            # The home site crashed after forcing COMMIT: the decision is
            # durable and the participants commit through DECISION_REQ.
            txn.status = TxnStatus.COMMITTED
        else:
            # The paper's orphan statistic: the coordinator died before a
            # decision was logged, stranding prepared participants in doubt.
            txn.orphaned = txn.decided_at is None
            _mark_aborted(txn, SystemAbort("home site crashed"), sim.now)
    finally:
        txn.finished_at = sim.now
        if txn.decided_at is None:
            txn.decided_at = sim.now
        if ctx.tracer is not None and ctx.root_span is not None:
            ctx.tracer.finish(ctx.root_span, end=txn.decided_at)
        if ctx.monitor is not None:
            ctx.monitor.txn_finished(txn, ctx)
    return txn.status


def _mark_aborted(txn, abort, now):
    txn.status = TxnStatus.ABORTED
    txn.abort_cause = abort.cause
    txn.abort_detail = abort.detail or str(abort)
    if txn.decided_at is None:
        txn.decided_at = now
