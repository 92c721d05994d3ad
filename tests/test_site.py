"""Unit tests for the Rainbow site: server, participant, crash/recovery."""

from types import SimpleNamespace

import pytest

from repro.errors import ConcurrencyAbort
from repro.net.message import MessageType
from repro.sim.kernel import Process
from repro.site.site import Site
from tests.conftest import drive


@pytest.fixture
def site(sim, network):
    site = Site(sim, network, "s1", "h1", gc_interval=0, uncertainty_timeout=None)
    site.store.create_copy("x", initial_value=0)
    site.store.create_copy("y", initial_value=5)
    return site


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
        assert drive(sim, site.local_read(1, 1.0, "x")) == (0, 0)
        assert site.stats.reads_served == 1

    def test_local_prewrite_then_prepare_commit(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        vote, reason = site.local_prepare(1, {"x": 1}, "coord/a", 1.0)
        assert vote
        assert site.in_doubt_count() == 1
        site.local_commit(1)
        assert site.store.read("x") == (9, 1)
        assert site.in_doubt_count() == 0
        assert site.wal.decision_for(1) == "COMMIT"

    def test_local_abort_releases(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "coord/a", 1.0)
        site.local_abort(1)
        assert site.store.read("x") == (0, 0)
        assert site.wal.decision_for(1) == "ABORT"

    def test_prepare_doomed_txn_votes_no(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
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
        site.local_commit(99)
        assert site.wal.decision_for(99) == "COMMIT"

    def test_abort_is_idempotent(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_abort(1)
        site.local_abort(1)  # duplicate decision: no error
        assert site.store.read("x") == (0, 0)

    def test_duplicate_commit_not_reapplied(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_commit(1)
        site.local_commit(1)
        assert site.stats.commits_applied == 1


class TestDecisionOf:
    def test_logged_decision_wins(self, sim, site):
        site.wal.log_commit(1, at=0.0)
        assert site.decision_of(1) == "COMMIT"

    def test_prepared_is_uncertain(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        assert site.decision_of(1) == "UNCERTAIN"

    def test_precommitted_reported(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
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
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
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
        client.send(site.address, MessageType.READ_REPLY, {"ok": True}, reply_to=12345)
        sim.run(until=10)
        # No bounce-back message arrived at the client.
        assert client.pending_count() == 0

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
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.crash()
        assert not site.up
        assert site.cc.active_transactions() == set()
        assert site.in_doubt_count() == 0

    def test_crash_is_idempotent(self, sim, site):
        site.crash()
        site.crash()
        assert site.stats.crashes == 1

    def test_recovery_replays_committed_writes(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_commit(1)
        # Simulate storage surviving but later writes arriving after crash:
        site.crash()
        site.recover()
        assert site.up
        assert site.store.read("x") == (9, 1)
        assert site.stats.recoveries == 1

    def test_recovery_reinstates_in_doubt(self, sim, site):
        drive(sim, site.local_prewrite(1, 2.0, "x", 9))
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

        def coordinator():
            while True:
                msg = yield coord.receive()
                coord.reply(msg, MessageType.DECISION, {"decision": "COMMIT"})

        sim.process(coordinator())
        drive(sim, site.local_prewrite(1, 2.0, "x", 9))
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

        def coordinator():
            while True:
                msg = yield coord.receive()
                coord.reply(
                    msg,
                    MessageType.DECISION,
                    {"decision": site_b.decision_of(msg.payload["txn"], True)},
                )

        site_b = Site(sim, network, "s2", "h2", gc_interval=0)
        sim.process(coordinator())
        drive(sim, site.local_prewrite(1, 2.0, "x", 9))
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
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        sim.run(until=60)
        assert site.stats.gc_aborts == 1
        assert site.cc.active_transactions() == set()

    def test_gc_spares_prepared_txn(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=10, gc_timeout=20,
                    uncertainty_timeout=None)
        site.store.create_copy("x")
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        sim.run(until=60)
        assert site.stats.gc_aborts == 0
        assert site.in_doubt_count() == 1

    def test_uncertainty_sweeper_starts_resolution(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=0,
                    uncertainty_timeout=15, sweep_interval=5, decision_retry=5)
        site.store.create_copy("x")
        coord = network.endpoint("hc", "coord")

        def coordinator():
            while True:
                msg = yield coord.receive()
                coord.reply(msg, MessageType.DECISION, {"decision": "ABORT"})

        sim.process(coordinator())
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, coord.address, 1.0)
        sim.run(until=100)
        assert site.stats.orphan_events == 1
        assert site.in_doubt_count() == 0
        assert site.store.read("x") == (0, 0)


class TestDispatch:
    """Only accesses, which can block on the CCP, get a handler process."""

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
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x
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
        assert [process.name for process in spawned] == ["site:s1:READ"]


class TestCrashTeardown:
    def test_crash_interrupts_live_processes_in_spawn_order(
        self, sim, network, monkeypatch
    ):
        spawned = record_spawns(sim)
        site = Site(sim, network, "s9", "h9", gc_interval=10, uncertainty_timeout=50)
        site.store.create_copy("x")
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds X on x
        client = network.endpoint("hc", "client")
        for txn in (4, 2, 3):
            client.send(site.address, MessageType.READ, {"txn": txn, "ts": 1.0, "item": "x"})
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
            "site:s9:server",
            "site:s9:gc",
            "site:s9:uncertain",
            "site:s9:READ",
            "site:s9:READ",
            "site:s9:READ",
        ]
        assert interrupted == live
