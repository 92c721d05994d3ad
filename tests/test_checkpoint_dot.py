"""Tests for WAL checkpointing and the DOT graph exports."""

import pytest

from repro.site.locks import LockManager, LockMode
from repro.site.wal import WriteAheadLog
from repro.txn.history import HistoryRecorder, SerializationGraph
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec
from tests.conftest import drive, quick_instance


class TestWalCheckpoint:
    def test_checkpoint_truncates_decided_history(self):
        wal = WriteAheadLog("s")
        for txn in range(1, 6):
            wal.log_prepare(txn, {"x": (txn, txn)}, None, at=0.0)
            wal.log_commit(txn, at=1.0)
            wal.log_end(txn, at=1.5)  # decision round fully acknowledged
        assert len(wal) == 15
        truncated = wal.checkpoint({"x": (5, 5)}, at=2.0)
        assert truncated == 15
        assert len(wal) == 1  # just the CHECKPOINT record
        assert wal.last_checkpoint().writes == {"x": (5, 5)}

    def test_checkpoint_retains_unacknowledged_commits(self):
        """A coordinator COMMIT without END must survive checkpoints:
        presumed abort would otherwise abort a committed transaction when
        an in-doubt participant finally asks for the decision."""
        wal = WriteAheadLog("s")
        wal.log_prepare(1, {"x": (1, 1)}, None, at=0.0)
        wal.log_commit(1, at=1.0)  # no END: some participant never acked
        truncated = wal.checkpoint({"x": (1, 1)}, at=2.0)
        assert truncated == 1  # only the PREPARE goes; the COMMIT is retained
        assert wal.decision_for(1) == "COMMIT"
        # Once the round completes, the next checkpoint may forget it.
        wal.log_end(1, at=3.0)
        wal.checkpoint({"x": (1, 1)}, at=4.0)
        assert wal.decision_for(1) is None

    def test_checkpoint_retains_participant_commits_under_3pc(self):
        """3PC peers answer termination queries from their decision record,
        so a participant's COMMIT copy survives; under 2PC nobody ever asks
        a participant, so its copy is dropped."""
        wal = WriteAheadLog("s")
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0, acp="3PC")
        wal.log_commit(1, at=1.0, coordinator="coord/a", acp="3PC")
        wal.log_prepare(2, {"y": (2, 2)}, "coord/a", at=0.0)
        wal.log_commit(2, at=1.0, coordinator="coord/a", acp="2PC")
        wal.checkpoint({"x": (1, 1), "y": (2, 2)}, at=2.0)
        assert wal.decision_for(1) == "COMMIT"
        assert wal.decision_for(2) is None

    def test_checkpoint_keeps_in_doubt(self):
        wal = WriteAheadLog("s")
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0, ts=3.0, acp="3PC",
                        peers=["p"])
        wal.log_precommit(1, at=0.5)
        wal.log_prepare(2, {"y": (2, 2)}, None, at=0.0)
        wal.log_commit(2, at=1.0)
        truncated = wal.checkpoint({"x": (0, 0)}, at=2.0)
        # Of 4 records only txn 2's PREPARE goes: txn 1 is in doubt (both
        # records carried over) and txn 2's COMMIT has no END yet.
        assert truncated == 1
        in_doubt, committed = wal.recover_state()
        assert [d.txn_id for d in in_doubt] == [1]
        assert in_doubt[0].precommitted
        assert in_doubt[0].acp == "3PC"
        assert in_doubt[0].peers == ["p"]
        assert committed == []  # decided history gone: the snapshot has it

    def test_site_periodic_checkpointing(self):
        instance = quick_instance(n_items=8, settle_time=60,
                                  checkpoint_interval=40.0)
        instance.run_workload(WorkloadSpec(n_transactions=10, arrival_rate=0.5))
        site = instance.sites["site1"]
        assert site.checkpoints_taken >= 1
        assert site.wal.last_checkpoint() is not None

    def test_recovery_after_checkpoint_restores_state(self):
        instance = quick_instance(n_items=8, settle_time=30)
        instance.start()
        txn = Transaction(ops=[Operation.write("x1", 77)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        site = instance.sites["site1"]
        site.take_checkpoint()
        site.crash()
        site.recover()
        instance.sim.run(until=instance.sim.now + 30)
        assert site.store.read("x1")[0] == 77

    def test_in_doubt_resolution_after_checkpoint(self):
        """A prepared txn carried across a checkpoint still resolves."""
        instance = quick_instance(n_items=8, settle_time=0,
                                  uncertainty_timeout=20.0, decision_retry=10.0)
        instance.config.protocols.failpoint = "after_votes"
        instance.config.protocols.failpoint_arms = 1
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x1", 1), Operation.write("x2", 2)],
            home_site="site1",
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        # A participant checkpoints while in doubt.
        participant = instance.sites["site2"]
        if participant.in_doubt_count():
            participant.take_checkpoint()
            assert participant.wal.last_checkpoint() is not None
        instance.injector.recover_now("site1")
        instance.sim.run(until=instance.sim.now + 200)
        assert all(site.in_doubt_count() == 0 for site in instance.sites.values())

    def test_config_roundtrip(self):
        from repro.core.config import RainbowConfig

        config = RainbowConfig.quick(n_sites=2, n_items=2)
        config.checkpoint_interval = 33.0
        clone = RainbowConfig.from_dict(config.to_dict())
        assert clone.checkpoint_interval == 33.0


class TestDotExports:
    def test_serialization_graph_dot(self):
        graph = SerializationGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        dot = graph.to_dot(highlight=graph.find_cycle())
        assert dot.startswith("digraph serialization")
        assert '"T1" -> "T2"' in dot
        assert "color=red" in dot

    def test_history_graph_dot_from_session(self):
        recorder = HistoryRecorder()
        recorder.record_commit(1, reads={"x": 0}, writes={"x": 1})
        recorder.record_commit(2, reads={"x": 1}, writes={})
        dot = recorder.build_graph().to_dot()
        assert '"T1" -> "T2"' in dot

    def test_wait_for_graph_dot(self, sim):
        locks = LockManager(sim, wait_timeout=None)
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        dot = locks.wait_for_graph_dot()
        assert '"T2" -> "T1"' in dot
