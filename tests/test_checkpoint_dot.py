"""Tests for what the WAL keeps past a decision, and the DOT graph exports."""

import hashlib

from repro.experiments import session
from repro.site.locks import LockManager, LockMode
from repro.site.wal import WriteAheadLog
from repro.txn.history import HistoryRecorder, SerializationGraph
from repro.txn.transaction import txn_id_scope

#: sha256 of the serialization graph's DOT text for the seeded 300-txn
#: quickstart session below (198 committed transactions, 1069 edges).
SESSION_DOT_SHA256 = "78f826076b22da015ecb37c32b7a59d909d600bc3d0c7745694dd7850bede680"


class TestWalCheckpoint:
    """The retention rules a periodic checkpoint once applied to the whole
    log, now applied by ``release`` to each transaction at its decision."""

    def test_checkpoint_truncates_decided_history(self):
        wal = WriteAheadLog("s")
        for txn in range(1, 6):
            wal.log_prepare(txn, {"x": (txn, txn)}, None, at=0.0)
            wal.log_commit(txn, at=1.0)
            wal.log_end(txn, at=1.5)  # decision round fully acknowledged
        assert len(wal) == 15
        truncated = sum(wal.release(txn) for txn in range(1, 6))
        assert truncated == 15
        assert len(wal) == 0 and wal.records == []
        assert all(wal.decision_for(txn) is None for txn in range(1, 6))

    def test_checkpoint_retains_unacknowledged_commits(self):
        """A coordinator COMMIT without END must survive release: presumed
        abort would otherwise abort a committed transaction when an
        in-doubt participant finally asks for the decision."""
        wal = WriteAheadLog("s")
        wal.log_prepare(1, {"x": (1, 1)}, None, at=0.0)
        commit = wal.log_commit(1, at=1.0)  # no END: some participant never acked
        truncated = wal.release(1)
        assert truncated == 1  # only the PREPARE goes; the COMMIT is retained
        assert wal.records == [commit]
        assert wal.decision_for(1) == "COMMIT"
        # Once the round completes, the next release forgets it.
        wal.log_end(1, at=3.0)
        assert wal.release(1) == 2
        assert wal.decision_for(1) is None
        assert len(wal) == 0

    def test_checkpoint_retains_participant_commits_under_3pc(self):
        """3PC peers answer termination queries from their decision record,
        so a participant's COMMIT copy survives in a log that keeps
        decisions; under 2PC nobody ever asks a participant, so its copy is
        dropped."""
        wal_3pc = WriteAheadLog("s", keep_decisions=True)
        wal_3pc.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0)
        commit = wal_3pc.log_commit(1, at=1.0, coordinator="coord/a")
        wal_3pc.release(1)
        assert wal_3pc.records == [commit]
        assert wal_3pc.decision_for(1) == "COMMIT"
        wal_2pc = WriteAheadLog("s")
        wal_2pc.log_prepare(2, {"y": (2, 2)}, "coord/a", at=0.0)
        wal_2pc.log_commit(2, at=1.0, coordinator="coord/a")
        wal_2pc.release(2)
        assert wal_2pc.records == []
        assert wal_2pc.decision_for(2) is None

    def test_release_keeps_in_doubt_prepare(self):
        wal = WriteAheadLog("s")
        prepare = wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0, ts=3.0, peers=["p"])
        wal.log_precommit(1, at=0.5)
        wal.log_prepare(2, {"y": (2, 2)}, None, at=0.0)
        wal.log_commit(2, at=1.0)
        # Only the decided txn 2 is released, and of its records only the
        # PREPARE goes: its COMMIT has no END yet.  Txn 1 is in doubt and
        # keeps both records.
        truncated = wal.release(2)
        assert truncated == 1
        assert len(wal) == 3
        assert wal.in_doubt() == [prepare]
        assert wal.precommitted(1)
        assert (prepare.writes, prepare.coordinator) == ({"x": (1, 1)}, "coord/a")
        assert (prepare.ts, prepare.peers) == (3.0, ("p",))
        assert wal.decision_for(1) is None
        assert wal.decision_for(2) == "COMMIT"

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

    def test_session_graph_dot_is_pinned(self):
        """The lab's export of a whole session's graph keeps its exact text."""
        with txn_id_scope():
            _result, _panel, instance = session.run(n_txns=300)
        dot = instance.monitor.history.build_graph().to_dot()
        assert dot.count(" -> ") == 1069
        assert hashlib.sha256(dot.encode()).hexdigest() == SESSION_DOT_SHA256

    def test_wait_for_graph_dot(self, sim):
        locks = LockManager(sim, wait_timeout=None)
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        dot = locks.wait_for_graph_dot()
        assert '"T2" -> "T1"' in dot
