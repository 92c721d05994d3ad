"""Unit tests for the Rainbow site: server, participant, crash/recovery."""

from types import SimpleNamespace

import pytest

from repro.errors import ConcurrencyAbort
from repro.net.message import MessageType
from repro.protocols.base import Wait, make_acp
from repro.sim.kernel import Process
from repro.site.site import Site
from tests.conftest import drive, follow_waits, record_wal_appends, settle


def make_site(sim, network, acp="2PC"):
    site = Site(
        sim, network, "s1", "h1", acp=make_acp(acp), gc_interval=0, uncertainty_timeout=None
    )
    site.store.create_copy("x", initial_value=0)
    site.store.create_copy("y", initial_value=5)
    return site


@pytest.fixture
def site(sim, network):
    return make_site(sim, network)


@pytest.fixture
def site_3pc(sim, network):
    return make_site(sim, network, "3PC")


def record_spawns(sim):
    """Wrap ``sim.process``; returns the list of processes it launches."""
    spawned = []
    launch = sim.process

    def process(generator, name=""):
        spawned.append(launch(generator, name=name))
        return spawned[-1]

    sim.process = process
    return spawned


class TestLocalOperations:
    def test_local_read(self, sim, site):
        assert settle(sim, site.local_read(1, 1.0, "x")) == (0, 0)
        assert site.stats.reads_served == 1

    def test_local_prewrite_then_prepare_commit(self, sim, site):
        appended = record_wal_appends([site])
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        vote, reason = site.local_prepare(1, {"x": 1}, "coord/a", 1.0)
        assert vote
        assert site.in_doubt_count() == 1
        site.local_commit(1)
        assert site.store.read("x") == (9, 1)
        assert site.in_doubt_count() == 0
        # The participant's COMMIT was forced, then released with the
        # PREPARE: under 2PC nobody asks a participant about its decision.
        assert [(r.kind, r.coordinator) for _s, r in appended] == [
            ("PREPARE", "coord/a"),
            ("COMMIT", "coord/a"),
        ]
        assert site.wal.decision_for(1) is None
        assert len(site.wal) == 0

    def test_local_commit_under_3pc_retains_the_decision(self, sim, site_3pc):
        site = site_3pc
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "coord/a", 1.0, peers=["p"])
        site.local_precommit(1)
        site.local_commit(1)
        # 3PC peers may still ask: only the COMMIT copy stays.
        assert [r.kind for r in site.wal.records] == ["COMMIT"]
        assert site.decision_of(1) == "COMMIT"

    def test_local_abort_releases(self, sim, site):
        appended = record_wal_appends([site])
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "coord/a", 1.0)
        site.local_abort(1)
        assert site.store.read("x") == (0, 0)
        # ABORT was forced, and presumed abort lets the log forget it all.
        assert [r.kind for _s, r in appended] == ["PREPARE", "ABORT"]
        assert site.wal.decision_for(1) is None
        assert site.decision_of(1, presume_abort=True) == "ABORT"

    def test_prepare_doomed_txn_votes_no(self, sim, site):
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.cc.doom(1)
        vote, reason = site.local_prepare(1, {"x": 1}, None, 1.0)
        assert not vote
        assert "doomed" in reason
        assert site.stats.votes_no == 1

    def test_prepare_with_lost_workspace_votes_no(self, sim, site):
        vote, reason = site.local_prepare(1, {"x": 1}, None, 1.0)
        assert not vote
        assert "lost" in reason

    def test_commit_for_unknown_txn_is_noop_commit(self, sim, site):
        # A decision that finds no prepared state (and no retained record)
        # was applied and released already: acknowledged, otherwise ignored.
        site.local_commit(99)
        assert site.wal.decision_for(99) is None
        assert len(site.wal) == 0
        assert site.stats.commits_applied == 0

    def test_abort_is_idempotent(self, sim, site):
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_abort(1)
        site.local_abort(1)  # duplicate decision: no error
        assert site.store.read("x") == (0, 0)

    def test_duplicate_commit_not_reapplied(self, sim, site):
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_commit(1)
        site.local_commit(1)
        assert site.stats.commits_applied == 1

    @pytest.mark.parametrize("acp", ["2PC", "3PC"])
    def test_duplicate_commit_after_release_logs_nothing(self, sim, network, acp):
        site = make_site(sim, network, acp)
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "coord/a", 1.0, peers=["p"])
        site.local_commit(1)
        appended = record_wal_appends([site])
        kept = site.wal.records
        site.local_commit(1)
        site.local_abort(1)  # a stray duplicate of the other decision
        assert appended == []
        assert site.wal.records == kept
        assert site.stats.commits_applied == 1
        assert site.store.read("x") == (9, 1)


class TestDuplicatePrepare:
    """A duplicated VOTE_REQ finds the transaction prepared: the vote stands."""

    def test_duplicate_after_precommit_stays_precommitted(self, sim, site_3pc):
        site = site_3pc
        appended = record_wal_appends([site])
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "coord/a", 1.0, peers=["p"])
        site.local_precommit(1)
        vote = site.local_prepare(1, {"x": 1}, "coord/a", 1.0, peers=["p"])
        assert vote == (True, "yes")
        assert [r.kind for _s, r in appended] == ["PREPARE", "PRECOMMIT"]
        assert site.decision_of(1) == "PRECOMMITTED"
        site.crash()
        site.recover()
        assert site.decision_of(1) == "PRECOMMITTED"

    def test_duplicate_to_wounded_participant_keeps_its_write(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=0, uncertainty_timeout=None,
                    ccp_options={"deadlock_strategy": "wound_wait"})
        site.store.create_copy("x", initial_value=0)
        settle(sim, site.local_prewrite(2, 2.0, "x", 9))
        assert site.local_prepare(2, {"x": 1}, "coord/a", 2.0) == (True, "yes")
        # An older writer waits for the prepared holder's lock.
        assert isinstance(site.local_prewrite(1, 1.0, "x", 7), Wait)
        assert site.local_prepare(2, {"x": 1}, "coord/a", 2.0) == (True, "yes")
        # The coordinator decided COMMIT on the first YES.
        site.local_commit(2)
        assert site.store.read("x") == (9, 1)
        assert site.stats.commits_applied == 1


class TestWoundWait:
    """Wound-wait waits for a holder that has voted YES instead of wounding it."""

    @staticmethod
    def wound_wait_site(sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=0, uncertainty_timeout=None,
                    ccp_options={"deadlock_strategy": "wound_wait"})
        site.store.create_copy("x", initial_value=0)
        return site

    def test_prepared_holder_is_not_wounded(self, sim, network):
        site = self.wound_wait_site(sim, network)
        settle(sim, site.local_prewrite(2, 2.0, "x", 9))
        site.local_prepare(2, {"x": 1}, "coord/a", 2.0)
        assert isinstance(site.local_prewrite(1, 1.0, "x", 7), Wait)
        assert not site.cc.is_doomed(2)
        assert (site.cc.locks.stats.wounds, site.cc.locks.stats.waits) == (0, 1)

    def test_unprepared_holder_is_wounded(self, sim, network):
        site = self.wound_wait_site(sim, network)
        settle(sim, site.local_prewrite(2, 2.0, "x", 9))
        assert isinstance(site.local_prewrite(1, 1.0, "x", 7), Wait)
        assert site.cc.is_doomed(2)
        assert site.cc.locks.stats.wounds == 1

    def test_recovered_prepared_holder_is_not_wounded(self, sim, network):
        site = self.wound_wait_site(sim, network)
        settle(sim, site.local_prewrite(2, 2.0, "x", 9))
        site.local_prepare(2, {"x": 1}, "coord/a", 2.0)
        site.crash()
        site.recover()  # a fresh CCP reinstates txn 2's lock
        assert isinstance(site.local_prewrite(1, 1.0, "x", 7), Wait)
        assert not site.cc.is_doomed(2)
        assert site.cc.locks.stats.wounds == 0


class TestDecisionOf:
    def test_logged_decision_wins(self, sim, site):
        site.wal.log_commit(1, at=0.0)
        assert site.decision_of(1) == "COMMIT"

    def test_prepared_is_uncertain(self, sim, site):
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        assert site.decision_of(1) == "UNCERTAIN"

    def test_precommitted_reported(self, sim, site):
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_precommit(1)
        assert site.decision_of(1) == "PRECOMMITTED"
        assert site.decision_of(1, presume_abort=True) == "PRECOMMITTED"

    def test_presumed_abort_for_unknown(self, sim, site):
        assert site.decision_of(42) == "UNKNOWN"
        assert site.decision_of(42, presume_abort=True) == "ABORT"

    def test_presumed_abort_overrides_own_prepared_state(self, sim, site):
        """A coordinator asked about an undecided txn answers ABORT even if
        it also holds a participant prepare for it."""
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        assert site.decision_of(1, presume_abort=True) == "ABORT"


class TestMessageHandlers:
    def _client(self, sim, network, site):
        return network.endpoint("hc", "client")

    def test_read_message(self, sim, network, site):
        client = self._client(sim, network, site)

        def run():
            reply = yield client.request(
                site.address, MessageType.READ,
                {"txn": 1, "ts": 1.0, "item": "y"}, timeout=20,
            )
            return reply.payload

        payload = drive(sim, run())
        assert payload == {"ok": True, "value": 5, "version": 0}

    def test_prewrite_and_full_2pc_over_messages(self, sim, network, site):
        client = self._client(sim, network, site)

        def run():
            reply = yield client.request(
                site.address, MessageType.PREWRITE,
                {"txn": 1, "ts": 1.0, "item": "x", "value": 77}, timeout=20,
            )
            assert reply.payload["ok"]
            vote = yield client.request(
                site.address, MessageType.VOTE_REQ,
                {"txn": 1, "ts": 1.0, "versions": {"x": 1},
                 "coordinator": client.address}, timeout=20,
            )
            assert vote.payload["vote"]
            ack = yield client.request(
                site.address, MessageType.COMMIT, {"txn": 1}, timeout=20,
            )
            return ack.payload

        payload = drive(sim, run())
        assert payload["ok"]
        assert site.store.read("x") == (77, 1)

    def test_read_rejection_reported(self, sim, network, site):
        client = self._client(sim, network, site)
        site.cc.doom(1)

        def run():
            reply = yield client.request(
                site.address, MessageType.READ,
                {"txn": 1, "ts": 1.0, "item": "x"}, timeout=20,
            )
            return reply.payload

        payload = drive(sim, run())
        assert not payload["ok"]
        assert "doomed" in payload["reason"]

    def test_decision_req_message(self, sim, network, site):
        client = self._client(sim, network, site)
        site.wal.log_commit(3, at=0.0)

        def run():
            reply = yield client.request(
                site.address, MessageType.DECISION_REQ,
                {"txn": 3, "presume_abort": True}, timeout=20,
            )
            return reply.payload["decision"]

        assert drive(sim, run()) == "COMMIT"

    def test_stray_reply_dropped(self, sim, network, site):
        client = self._client(sim, network, site)
        got = []
        client.serve(got.append)
        client.send(site.address, MessageType.READ_REPLY, {"ok": True}, reply_to=12345)
        sim.run(until=10)
        # No bounce-back message arrived at the client.
        assert got == []

    def test_txn_submit_without_factory_fails_cleanly(self, sim, network, site):
        client = self._client(sim, network, site)

        def run():
            reply = yield client.request(
                site.address, MessageType.TXN_SUBMIT, {"txn_spec": None}, timeout=20,
            )
            return reply.payload

        payload = drive(sim, run())
        assert not payload["ok"]


class TestCrashRecovery:
    def test_crash_marks_down_and_clears_volatile(self, sim, site):
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.crash()
        assert not site.up
        assert site.cc.active_transactions() == set()
        assert site.in_doubt_count() == 0

    def test_crash_is_idempotent(self, sim, site):
        site.crash()
        site.crash()
        assert site.stats.crashes == 1

    def test_recovery_replays_committed_writes(self, sim, site):
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_commit(1)
        # Simulate storage surviving but later writes arriving after crash:
        site.crash()
        site.recover()
        assert site.up
        assert site.store.read("x") == (9, 1)
        assert site.stats.recoveries == 1

    def test_recovery_reinstates_in_doubt(self, sim, site):
        settle(sim, site.local_prewrite(1, 2.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "ghost/coord", 2.0)
        site.crash()
        site.recover()
        assert site.in_doubt_count() == 1
        # The reinstated transaction holds its exclusion: another writer
        # cannot sneak in.
        assert site.cc.buffered_writes(1) == {"x": 9}

    def test_recovered_in_doubt_resolves_via_decision_req(self, sim, network, site):
        # A fake coordinator that answers COMMIT.
        coord = network.endpoint("hc", "coord")

        coord.serve(
            lambda msg: coord.reply(msg, MessageType.DECISION, {"decision": "COMMIT"})
        )
        settle(sim, site.local_prewrite(1, 2.0, "x", 9))
        site.local_prepare(1, {"x": 1}, coord.address, 2.0)
        site.crash()
        site.recover()
        sim.run(until=sim.now + 100)
        assert site.in_doubt_count() == 0
        assert site.store.read("x") == (9, 1)
        assert site.stats.orphans_resolved >= 1

    def test_recovered_in_doubt_presumes_abort_from_silent_coordinator(
        self, sim, network, site
    ):
        coord = network.endpoint("hc", "coord")

        def coordinator(msg):
            coord.reply(
                msg,
                MessageType.DECISION,
                {"decision": site_b.decision_of(msg.payload["txn"], True)},
            )

        site_b = Site(sim, network, "s2", "h2", gc_interval=0)
        coord.serve(coordinator)
        settle(sim, site.local_prewrite(1, 2.0, "x", 9))
        site.local_prepare(1, {"x": 1}, coord.address, 2.0)
        site.crash()
        site.recover()
        sim.run(until=sim.now + 100)
        assert site.in_doubt_count() == 0
        assert site.store.read("x") == (0, 0)  # aborted


class TestSweepers:
    def test_gc_aborts_abandoned_unprepared_txn(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=10, gc_timeout=20,
                    uncertainty_timeout=None)
        site.store.create_copy("x")
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        sim.run(until=60)
        assert site.stats.gc_aborts == 1
        assert site.cc.active_transactions() == set()

    def test_gc_spares_prepared_txn(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=10, gc_timeout=20,
                    uncertainty_timeout=None)
        site.store.create_copy("x")
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        sim.run(until=60)
        assert site.stats.gc_aborts == 0
        assert site.in_doubt_count() == 1

    def test_uncertainty_sweeper_starts_resolution(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=0,
                    uncertainty_timeout=15, sweep_interval=5, decision_retry=5)
        site.store.create_copy("x")
        coord = network.endpoint("hc", "coord")

        coord.serve(
            lambda msg: coord.reply(msg, MessageType.DECISION, {"decision": "ABORT"})
        )
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, coord.address, 1.0)
        sim.run(until=100)
        assert site.stats.orphan_events == 1
        assert site.in_doubt_count() == 0
        assert site.store.read("x") == (0, 0)


class TestDispatch:
    """No message gets a handler process, not even an access that waits."""

    @pytest.mark.parametrize(
        "mtype, payload",
        [
            (MessageType.COMMIT, {"txn": 1}),
            (MessageType.ABORT, {"txn": 1}),
            (MessageType.PRECOMMIT, {"txn": 1}),
            (MessageType.VOTE_REQ, {"txn": 1, "ts": 1.0, "versions": {}}),
            (MessageType.DECISION_REQ, {"txn": 1, "presume_abort": True}),
        ],
    )
    def test_non_blocking_message_spawns_no_process(
        self, sim, network, site, mtype, payload
    ):
        client = network.endpoint("hc", "client")

        def run():
            reply = yield client.request(site.address, mtype, payload, timeout=20)
            return reply

        caller = sim.process(run())
        spawned = record_spawns(sim)
        assert sim.run(until=caller).mtype != mtype
        assert spawned == []
        assert site.stats.messages_handled == 1

    def test_txn_submit_spawns_only_its_coordinator(self, sim, network, site):
        client = network.endpoint("hc", "client")

        def coordinator(_site, spec):
            yield sim.timeout(3)
            return {"txn": spec.txn_id, "reads": {}}

        site.coordinator_factory = coordinator

        def run():
            reply = yield client.request(
                site.address,
                MessageType.TXN_SUBMIT,
                {"txn_spec": SimpleNamespace(txn_id=7)},
                timeout=20,
            )
            return reply.payload

        caller = sim.process(run())
        spawned = record_spawns(sim)
        payload = sim.run(until=caller)
        assert payload["ok"] and payload["outcome"]["txn"] == 7
        assert [process.name for process in spawned] == ["txn@s1"]

    def test_blocked_read_queues_while_server_keeps_answering(self, sim, network, site):
        client = network.endpoint("hc", "client")
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x
        site.local_prepare(1, {"x": 1}, None, 1.0)  # only a prepared txn commits
        log = []

        def reader():
            reply = yield client.request(
                site.address, MessageType.READ,
                {"txn": 2, "ts": 2.0, "item": "x"}, timeout=100,
            )
            log.append(("read", reply.payload["ok"]))

        def other():
            yield sim.timeout(5)
            reply = yield client.request(
                site.address, MessageType.DECISION_REQ,
                {"txn": 3, "presume_abort": True}, timeout=20,
            )
            log.append(("decision", reply.payload["decision"]))
            log.append(("waiting", site.cc.locks.waiting_count()))
            ack = yield client.request(
                site.address, MessageType.COMMIT, {"txn": 1}, timeout=20
            )
            log.append(("commit", ack.payload["ok"]))

        callers = [sim.process(reader()), sim.process(other())]
        spawned = record_spawns(sim)
        sim.run(until=sim.all_of(callers))
        assert log == [
            ("decision", "ABORT"),
            ("waiting", 1),
            ("commit", True),
            ("read", True),
        ]
        assert spawned == []


class TestCrashTeardown:
    def test_crash_interrupts_live_processes_in_spawn_order(
        self, sim, network, monkeypatch
    ):
        spawned = record_spawns(sim)
        site = Site(sim, network, "s9", "h9", gc_interval=10, uncertainty_timeout=50)
        site.store.create_copy("x")
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x

        def reader(txn):
            yield from follow_waits(site.local_read(txn, 1.0, "x"))

        for txn in (4, 2, 3):
            site.spawn_home_transaction(reader(txn), name=f"txn{txn}@s9")
        sim.run(until=sim.now + 5)
        assert site.cc.locks.waiting_count() == 3

        interrupted = []
        interrupt = Process.interrupt

        def recording_interrupt(process, cause=None):
            interrupted.append(process)
            interrupt(process, cause)

        monkeypatch.setattr(Process, "interrupt", recording_interrupt)
        live = [process for process in spawned if process.is_alive]
        site.crash()
        assert [process.name for process in live] == [
            "site:s9:gc",
            "site:s9:uncertain",
            "txn4@s9",
            "txn2@s9",
            "txn3@s9",
        ]
        assert interrupted == live


class TestAccessesArePlainCalls:
    """A remote access runs as a plain CCP call inside its delivery event."""

    @staticmethod
    def _record_replies(site):
        """Wrap ``site.endpoint.reply``; returns the (now, events, mtype) list."""
        sent = []
        reply = site.endpoint.reply

        def recording(request, mtype, payload=None, size=1):
            sent.append((site.sim.now, site.sim.processed_events, mtype))
            return reply(request, mtype, payload, size=size)

        site.endpoint.reply = recording
        return sent

    def test_uncontended_read_answered_in_its_delivery_event(self, sim, network, site):
        client = network.endpoint("hc", "client")
        delivered = []

        def dispatch(msg):
            delivered.append((sim.now, sim.processed_events))
            site._dispatch(msg)

        site.endpoint.serve(dispatch)
        sent = self._record_replies(site)
        spawned = record_spawns(sim)
        client.send(site.address, MessageType.READ, {"txn": 1, "ts": 1.0, "item": "y"})
        sim.run()
        assert spawned == []
        assert sent == [(*delivered[0], MessageType.READ_REPLY)]

    def test_crash_while_waiting_sends_no_reply_and_closes_span(self, sim, network, site):
        from repro.obs.spans import SpanTracer

        site.tracer = SpanTracer(sim)
        client = network.endpoint("hc", "client")
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x
        sent = self._record_replies(site)
        request = client.request(
            site.address, MessageType.READ, {"txn": 2, "ts": 2.0, "item": "x"}, timeout=30
        )
        sim.run(until=sim.now + 5)
        assert site.cc.locks.waiting_count() == 1
        crashed_at = sim.now
        site.crash()
        site.recover()  # at the same instant: the site is up when the wait fails
        sim.run()
        assert sent == []
        assert not request.ok  # the caller timed out
        (read_span,) = [span for span in site.tracer.spans if span.txn_id == 2]
        assert (read_span.name, read_span.end) == ("ccp.read", crashed_at)

    def test_lock_wait_timeout_closes_span_and_forgets_txn(self, sim, network):
        from repro.obs.spans import SpanTracer

        site = Site(
            sim, network, "s1", "h1", gc_interval=0, uncertainty_timeout=None,
            ccp_options={"wait_timeout": 10.0},
        )
        site.store.create_copy("x", initial_value=0)
        site.tracer = SpanTracer(sim)
        client = network.endpoint("hc", "client")
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x

        def run():
            reply = yield client.request(
                site.address, MessageType.READ,
                {"txn": 2, "ts": 2.0, "item": "x", "home": client.address}, timeout=30,
            )
            return reply.payload

        caller = sim.process(run())
        sim.run(until=sim.now + 5)
        assert 2 in site._activity and 2 in site._txn_home
        waited_from = sim.now - 4.0  # the READ arrived one time unit after it left
        payload = sim.run(until=caller)
        assert not payload["ok"] and "lock wait timeout" in payload["reason"]
        (read_span,) = [span for span in site.tracer.spans if span.txn_id == 2]
        assert (read_span.name, read_span.start, read_span.end) == (
            "ccp.read", waited_from, waited_from + 10.0,
        )
        assert 2 not in site._activity and 2 not in site._txn_home

    def test_abort_while_waiting_answers_and_closes_span(self, sim, network, site):
        from repro.obs.spans import SpanTracer

        site.tracer = SpanTracer(sim)
        client = network.endpoint("hc", "client")
        settle(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x

        def run():
            reply = yield client.request(
                site.address, MessageType.READ,
                {"txn": 2, "ts": 2.0, "item": "x", "home": client.address}, timeout=30,
            )
            return reply.payload

        caller = sim.process(run())
        sim.run(until=4.0)
        assert site.cc.locks.waiting_count() == 1
        client.send(site.address, MessageType.ABORT, {"txn": 2})  # arrives at t=5
        payload = sim.run(until=caller)
        assert not payload["ok"]
        (read_span,) = [span for span in site.tracer.spans if span.txn_id == 2]
        assert (read_span.name, read_span.end) == ("ccp.read", 5.0)
        assert site.cc.locks.waiting_count() == 0
        assert 2 not in site._activity and 2 not in site._txn_home

    def test_crashed_gateway_leaves_sibling_unprepared(self, sim, network):
        gateway = Site(sim, network, "s1", "h1", gc_interval=0, uncertainty_timeout=None)
        sibling = Site(sim, network, "s2", "h1", gc_interval=0, uncertainty_timeout=None)
        gateway.colocated = {"s2": sibling}
        sibling.store.create_copy("x", initial_value=0)
        settle(sim, sibling.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x
        client = network.endpoint("hc", "client")
        prepare = {"versions": {}, "coordinator": client.address, "peers": []}
        request = client.request(
            gateway.address, MessageType.BATCH_ACCESS,
            {"txn": 2, "ts": 2.0, "item": "x", "kind": "R", "sites": ["s2"],
             "prepare": {"s2": prepare}},
            timeout=30,
        )
        sim.run(until=sim.now + 5)
        assert sibling.cc.locks.waiting_count() == 1
        gateway.crash()
        sibling.local_abort(1)  # grants txn 2's read at the sibling
        sim.run()
        assert not request.ok  # the caller timed out
        assert sibling.in_doubt_count() == 0  # the read's piggybacked prepare never ran
