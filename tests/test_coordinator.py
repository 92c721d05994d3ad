"""Tests for the transaction coordinator and its context."""

import sys

import pytest

from repro.core.config import ProtocolConfig
from repro.net.message import MessageType
from repro.txn.coordinator import AccessResult, TxnContext
from repro.txn.transaction import Operation, Transaction, TxnStatus
from tests.conftest import quick_instance, record_wal_appends


def run_txn(instance, txn):
    process = instance.submit(txn)
    instance.sim.run(until=process)
    return txn


class TestLifecycle:
    def test_timestamps_assigned_and_unique(self):
        instance = quick_instance(n_items=8)
        t1 = Transaction(ops=[Operation.read("x1")], home_site="site1")
        t2 = Transaction(ops=[Operation.read("x1")], home_site="site2")
        p1, p2 = instance.submit(t1), instance.submit(t2)
        instance.sim.run(until=instance.sim.all_of([p1, p2]))
        assert t1.ts != t2.ts
        assert t1.started_at is not None
        assert t1.finished_at is not None
        assert t1.decided_at is not None

    def test_ops_processed_in_order(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(
            ops=[
                Operation.write("x1", 5),
                Operation.read("x1"),  # must see own write
                Operation.read("x3"),
            ],
            home_site="site1",
        )
        run_txn(instance, txn)
        assert txn.committed
        assert txn.reads["x1"] == 5
        assert txn.reads["x3"] == 0

    def test_version_footprint_recorded(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(
            ops=[Operation.read("x1"), Operation.write("x3", 1)], home_site="site1"
        )
        run_txn(instance, txn)
        assert txn.read_versions == {"x1": 0}
        assert txn.write_versions == {"x3": 1}

    def test_monitor_notified_of_both_phases(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        run_txn(instance, txn)
        assert instance.monitor.submitted == 1
        assert instance.monitor.started == 1
        assert instance.monitor.committed == 1

    def test_abort_classification_ccp(self):
        instance = quick_instance(n_items=8)
        instance.start()
        txn = Transaction(ops=[Operation.write("x1", 1)], home_site="site1")
        instance.sites["site1"].cc.doom(txn.txn_id)
        run_txn(instance, txn)
        assert txn.status == TxnStatus.ABORTED
        assert txn.abort_cause == "CCP"

    def test_aborted_txn_releases_remote_state(self):
        instance = quick_instance(n_items=8, settle_time=0)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x2", 1), Operation.write("x1", 1)],
            home_site="site1",
        )
        # Doom at home so the second op fails after the first prewrote
        # remotely (x2 lives on site2..site4).
        instance.sites["site1"].cc.doom(txn.txn_id)
        run_txn(instance, txn)
        assert txn.aborted
        instance.sim.run(until=instance.sim.now + 30)
        for site in instance.sites.values():
            assert txn.txn_id not in site.cc.active_transactions()


class TestContextHelpers:
    def _context(self, instance, txn):
        instance.start()
        return TxnContext(
            txn,
            instance.sites[txn.home_site],
            instance.catalog,
            instance.directory,
            instance.config.protocols,
            instance.rcp,
            instance.acp,
            instance.monitor,
        )

    def test_order_local_first(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site2")
        ctx = self._context(instance, txn)
        ordered = ctx.order_local_first(["site1", "site2", "site3"])
        assert ordered[0] == "site2"
        assert sorted(ordered) == ["site1", "site2", "site3"]

    def test_order_local_first_when_not_holder(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site4")
        ctx = self._context(instance, txn)
        assert ctx.order_local_first(["site1", "site2"]) == ["site1", "site2"]

    def test_access_read_local_no_messages(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        txn.ts = 1.0
        ctx = self._context(instance, txn)
        before = instance.network.stats.sent

        def run():
            result = yield from ctx.access_read("site1", "x1")
            return result

        process = instance.sim.process(run())
        result = instance.sim.run(until=process)
        assert result.ok
        assert result.value == 0
        assert instance.network.stats.sent == before

    def test_access_read_remote_reports_net_failure(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x2")], home_site="site1")
        txn.ts = 1.0
        ctx = self._context(instance, txn)
        ctx.config.op_timeout = 5
        instance.sites["site2"].crash()

        def run():
            result = yield from ctx.access_read("site2", "x2")
            return result

        process = instance.sim.process(run())
        result = instance.sim.run(until=process)
        assert not result.ok
        assert result.kind == "net"

    def test_participants_registered_with_versions(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.write("x1", 1)], home_site="site1")
        run_txn(instance, txn)
        # Participants are internal to the context, but their effect is
        # visible: w=2 sites saw the write, all were released.
        holders = instance.catalog.sites_holding("x1")
        updated = [
            name for name in holders
            if instance.sites[name].store.read("x1")[0] == 1
        ]
        assert len(updated) == 2


def _home_context(instance, home, ops):
    instance.start()
    txn = Transaction(ops=ops, home_site=home)
    txn.ts = 1.0
    return TxnContext(
        txn,
        instance.sites[home],
        instance.catalog,
        instance.directory,
        instance.config.protocols,
        instance.rcp,
        instance.acp,
        instance.monitor,
    )


def _coordinator_processes(monkeypatch, sim):
    """Names of the kernel processes the coordinator module starts."""
    started = []
    original = sim.process

    def process(generator, name=""):
        if sys._getframe(1).f_globals.get("__name__") == "repro.txn.coordinator":
            started.append(name)
        return original(generator, name=name)

    monkeypatch.setattr(sim, "process", process)
    return started


def _prepare_remote_write(ctx, sites, item):
    """Prewrite ``item`` at ``sites`` and collect the votes (generator)."""
    results = yield from ctx.access_prewrite_many(sites, item, 5)
    assert all(result.ok for result in results)
    for result in results:
        ctx.note_prewrite(result.site, item, 1)
    all_yes, _detail = yield from ctx.collect_votes()
    assert all_yes
    ctx.log_decision("COMMIT")


class TestProcessFreeFanOut:
    """Waves, vote rounds and broadcasts wait on RPC events, not processes."""

    def test_remote_wave_votes_and_broadcast_start_no_process(self, monkeypatch):
        instance = quick_instance(n_items=8)
        holders = instance.catalog.sites_holding("x1")  # site4 holds no x1
        ctx = _home_context(instance, "site4", [Operation.write("x1", 5)])
        started = _coordinator_processes(monkeypatch, instance.sim)

        def run():
            reads = yield from ctx.access_read_many(holders, "x1")
            yield from _prepare_remote_write(ctx, holders, "x1")
            acked = yield from ctx.broadcast(MessageType.COMMIT)
            return reads, acked

        reads, acked = instance.sim.run(until=instance.sim.process(run()))
        assert [result.site for result in reads] == holders
        assert all(result.ok for result in reads)
        assert acked == len(holders)
        assert started == []

    def test_wave_with_home_copy_starts_no_process(self, monkeypatch):
        instance = quick_instance(n_items=8)
        ctx = _home_context(instance, "site1", [Operation.read("x1")])
        sites = ctx.order_local_first(instance.catalog.sites_holding("x1"))
        started = _coordinator_processes(monkeypatch, instance.sim)

        def run():
            return (yield from ctx.access_read_many(sites, "x1"))

        results = instance.sim.run(until=instance.sim.process(run()))
        assert [result.site for result in results] == sites
        assert all(result.ok for result in results)
        assert started == []


class TestDecisionBroadcast:
    """Per-participant retries of the decision round (``ack_retries``)."""

    def _committed_context(self, instance):
        """A txn homed at site4, prepared at the holders of x1."""
        ctx = _home_context(instance, "site4", [Operation.write("x1", 5)])
        holders = instance.catalog.sites_holding("x1")
        instance.sim.run(until=instance.sim.process(_prepare_remote_write(ctx, holders, "x1")))
        return ctx, holders

    def _decide(self, ctx):
        """Force the coordinator's COMMIT; returns the home site's appends."""
        appended = record_wal_appends([ctx.home])
        ctx.log_decision("COMMIT")
        return appended

    @staticmethod
    def _ends(appended):
        return [record.kind for _site, record in appended if record.kind == "END"]

    def _decision_log(self, instance):
        """(time, src, dst, outcome) of every COMMIT/ACK send."""
        log = []
        instance.network.subscribers.append(
            lambda msg, outcome: log.append((instance.sim.now, msg.src, msg.dst, outcome))
            if msg.mtype in (MessageType.COMMIT, MessageType.ACK)
            else None
        )
        return log

    def test_silent_participant_gets_exactly_ack_retries_attempts(self):
        instance = quick_instance(n_items=8)
        ctx, holders = self._committed_context(instance)
        log = self._decision_log(instance)
        instance.network.cut_link("host4", "host2")
        appended = self._decide(ctx)

        acked = instance.sim.run(until=instance.sim.process(ctx.broadcast(MessageType.COMMIT)))
        silent = instance.directory["site2"]
        attempts = [entry for entry in log if entry[2] == silent]
        assert len(attempts) == ctx.config.ack_retries
        assert {entry[3] for entry in attempts} == {"partitioned"}
        assert acked == len(holders) - 1
        ctx.log_end_if_complete(acked)
        assert self._ends(appended) == []
        # No END: the COMMIT stays pinned for the silent participant's
        # DECISION_REQ.
        assert ctx.home.wal.decision_for(ctx.txn.txn_id) == "COMMIT"

    def test_lossy_participant_is_retried_until_it_acks(self):
        # With this seed the first ACK and the second COMMIT are lost; the
        # third attempt gets through, so the round is complete.
        instance = quick_instance(n_items=8)
        ctx, holders = self._committed_context(instance)
        log = self._decision_log(instance)
        instance.network.set_link_flakiness("host4", "host3", loss=0.7)
        appended = self._decide(ctx)

        start = instance.sim.now
        acked = instance.sim.run(until=instance.sim.process(ctx.broadcast(MessageType.COMMIT)))
        lossy = instance.directory["site3"]
        sent_at = [when - start for when, _src, dst, _outcome in log if dst == lossy]
        timeout = ctx.config.ack_timeout
        assert sent_at == [0.0, timeout, 2 * timeout]
        assert acked == len(holders)
        ctx.log_end_if_complete(acked)
        assert self._ends(appended) == ["END"]
        assert ctx.home.wal.decision_for(ctx.txn.txn_id) is None  # released

    @pytest.mark.parametrize("recover", [False, True], ids=["down", "recovered"])
    def test_crashed_coordinator_stops_retrying(self, recover):
        # Regression: the retry loop outlived a home-site crash, so a dead
        # coordinator kept sending COMMITs (live ones, after a recovery).
        instance = quick_instance(n_items=8)
        ctx, holders = self._committed_context(instance)
        home = ctx.home
        sent = []
        instance.network.subscribers.append(
            lambda msg, _outcome: sent.append((instance.sim.now, msg.src, msg.mtype))
        )
        instance.network.cut_link("host4", "host2")
        crash_at = instance.sim.now + 10
        instance.sim.defer(10, home.crash)
        if recover:
            instance.sim.defer(12, home.recover)

        broadcast = instance.sim.process(ctx.broadcast(MessageType.COMMIT))
        acked = instance.sim.run(until=broadcast)
        instance.sim.run(until=crash_at + 4 * ctx.config.ack_timeout)
        assert acked == len(holders) - 1
        assert [m for m in sent if m[0] >= crash_at and m[1] == home.address] == []

    def test_all_acked_logs_end(self):
        instance = quick_instance(n_items=8)
        ctx, holders = self._committed_context(instance)
        appended = self._decide(ctx)
        acked = instance.sim.run(until=instance.sim.process(ctx.broadcast(MessageType.COMMIT)))
        assert acked == len(holders)
        ctx.log_end_if_complete(acked)
        assert self._ends(appended) == ["END"]
        # The END released the transaction: no record of it is left.
        assert ctx.home.wal.decision_for(ctx.txn.txn_id) is None
        assert all(record.txn_id != ctx.txn.txn_id for record in ctx.home.wal.records)


class TestConfig:
    def test_defaults(self):
        config = ProtocolConfig()
        assert config.rcp == "QC"
        assert config.acp == "2PC"

    def test_access_result_defaults(self):
        result = AccessResult(ok=True, site="s1", value=3, version=2)
        assert result.kind is None
        assert result.reason == ""


class TestHomeCrashDuringLockWait:
    """The home site crashes while its own copy access waits on a lock."""

    @pytest.mark.parametrize("rcp", ["ROWA", "QC"])  # a one-copy access, a wave
    def test_home_read_span_ends_at_the_crash(self, rcp):
        instance = quick_instance(n_items=8, rcp=rcp)
        instance.enable_tracing()
        instance.start()
        home_name = instance.catalog.sites_holding("x1")[0]
        home = instance.sites[home_name]
        # A younger transaction holds x1's write lock at the home copy.
        assert home.local_prewrite(10**6, 1e9, "x1", 9) == 0
        txn = Transaction(ops=[Operation.read("x1")], home_site=home_name)
        process = instance.submit(txn)
        crash_at = instance.sim.now + 5
        instance.sim.defer(5, home.crash)
        instance.sim.run(until=crash_at + 50)

        home_reads = [
            span
            for span in instance.span_tracer.txn_spans(txn.txn_id)
            if span.name == "ccp.read" and span.site == home_name
        ]
        assert len(home_reads) == 1
        assert home_reads[0].start < crash_at
        assert home_reads[0].end == crash_at
        assert process.ok  # no exception escaped the coordinator
        assert txn.status == TxnStatus.ABORTED
        assert txn.abort_cause == "SYSTEM"
