"""Unit tests for per-site storage and the write-ahead log."""

import pytest

from repro.errors import CatalogError
from repro.site.storage import LocalStore
from repro.site.wal import WriteAheadLog


class TestLocalStore:
    def test_create_and_read(self):
        store = LocalStore("s1")
        store.create_copy("x", initial_value=10)
        assert store.read("x") == (10, 0)
        assert store.has_copy("x")
        assert store.items() == ["x"]
        assert len(store) == 1

    def test_duplicate_copy_rejected(self):
        store = LocalStore("s1")
        store.create_copy("x")
        with pytest.raises(CatalogError):
            store.create_copy("x")

    def test_read_missing_copy_rejected(self):
        with pytest.raises(CatalogError):
            LocalStore("s1").read("ghost")

    def test_apply_updates_value_and_version(self):
        store = LocalStore("s1")
        store.create_copy("x")
        store.apply("x", 42, version=3, txn_id=7, at=1.0)
        assert store.read("x") == (42, 3)
        assert store.version("x") == 3
        assert store.writes_applied == 1

    def test_stale_version_ignored(self):
        store = LocalStore("s1")
        store.create_copy("x")
        store.apply("x", 42, version=3, txn_id=7, at=1.0)
        store.apply("x", 13, version=2, txn_id=8, at=2.0)
        assert store.read("x") == (42, 3)

    def test_equal_version_overwrites(self):
        store = LocalStore("s1")
        store.create_copy("x")
        store.apply("x", 1, version=1, txn_id=1, at=0.0)
        store.apply("x", 2, version=1, txn_id=2, at=0.0)
        assert store.read("x")[0] == 2

    def test_audit_log_records_writes(self):
        store = LocalStore("s1")
        store.create_copy("x")
        store.apply("x", 5, version=1, txn_id=9, at=4.5)
        record = store.audit_log[0]
        assert (record.item, record.value, record.version, record.txn_id, record.at) == (
            "x", 5, 1, 9, 4.5,
        )

    def test_reads_counted(self):
        store = LocalStore("s1")
        store.create_copy("x")
        store.read("x")
        store.read("x")
        assert store.reads_served == 2

    def test_snapshot_and_restore(self):
        store = LocalStore("s1")
        store.create_copy("x")
        store.apply("x", 9, version=2, txn_id=1, at=0.0)
        snap = store.snapshot()
        assert snap == {"x": (9, 2)}
        other = LocalStore("s2")
        other.create_copy("x")
        for item, (value, version) in snap.items():
            other.apply(item, value, version, txn_id=1, at=1.0)
        assert other.read("x") == (9, 2)


class TestWriteAheadLog:
    def test_lsns_increase(self):
        wal = WriteAheadLog("s1")
        r1 = wal.log_prepare(1, {"x": (5, 1)}, "c/addr", at=1.0)
        r2 = wal.log_commit(1, at=2.0)
        assert r2.lsn > r1.lsn
        assert len(wal) == 2

    def test_decision_for_latest(self):
        wal = WriteAheadLog("s1")
        wal.log_prepare(1, {}, None, at=0.0)
        assert wal.decision_for(1) is None
        wal.log_commit(1, at=1.0)
        assert wal.decision_for(1) == "COMMIT"
        assert wal.decision_for(2) is None

    def test_abort_decision(self):
        wal = WriteAheadLog("s1")
        wal.log_prepare(1, {}, None, at=0.0)
        wal.log_abort(1, at=1.0)
        assert wal.decision_for(1) == "ABORT"

    def test_recover_classifies_in_doubt(self):
        wal = WriteAheadLog("s1")
        prepare = wal.log_prepare(1, {"x": (5, 1)}, "coord/a", at=0.0, ts=3.5,
                                  peers=["p1", "p2"])
        wal.log_prepare(2, {"y": (7, 2)}, "coord/b", at=1.0)
        wal.log_commit(2, at=2.0, coordinator="coord/b")
        assert wal.in_doubt() == [prepare]
        assert wal.prepared(1) is prepare
        assert wal.prepared(2) is None
        assert prepare.writes == {"x": (5, 1)}
        assert prepare.coordinator == "coord/a"
        assert prepare.ts == 3.5
        assert prepare.peers == ("p1", "p2")
        assert not wal.precommitted(1)

    def test_recover_marks_precommitted(self):
        wal = WriteAheadLog("s1")
        wal.log_prepare(1, {}, None, at=0.0)
        assert not wal.precommitted(1)
        wal.log_precommit(1, at=0.5)
        assert wal.precommitted(1)
        assert not wal.precommitted(2)

    def test_committed_transactions_not_in_doubt(self):
        wal = WriteAheadLog("s1")
        wal.log_prepare(2, {"y": (1, 1)}, "coord/a", at=0.0)
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0)
        wal.log_commit(1, at=1.0, coordinator="coord/a")
        assert [p.txn_id for p in wal.in_doubt()] == [2]
        wal.log_commit(2, at=1.0, coordinator="coord/a")
        assert wal.in_doubt() == []

    def test_aborted_transactions_not_in_doubt(self):
        wal = WriteAheadLog("s1")
        wal.log_prepare(1, {}, "coord/a", at=0.0)
        wal.log_abort(1, at=1.0, coordinator="coord/a")
        assert wal.in_doubt() == []

    def test_coordinator_decision_does_not_decide_its_participant(self):
        """The home site's own COMMIT record (no coordinator address) is
        logged before the home participant applies it: until then the
        participant's PREPARE is still prepared."""
        wal = WriteAheadLog("s1")
        prepare = wal.log_prepare(1, {"x": (1, 1)}, "home/a", at=0.0)
        wal.log_commit(1, at=1.0)
        assert wal.decision_for(1) == "COMMIT"
        assert wal.prepared(1) is prepare
        wal.log_commit(1, at=1.0, coordinator="home/a")
        assert wal.prepared(1) is None

    def test_in_doubt_follows_log_order(self):
        wal = WriteAheadLog("s1")
        wal.log_prepare(3, {}, "coord/a", at=0.0)
        wal.log_prepare(1, {}, "coord/a", at=1.0)
        latest = wal.log_prepare(3, {}, "coord/a", at=2.0)
        assert [(p.txn_id, p.at) for p in wal.in_doubt()] == [(3, 2.0), (1, 1.0)]
        assert wal.prepared(3) is latest

    def test_empty_log_recovers_empty(self):
        wal = WriteAheadLog("s1")
        assert wal.in_doubt() == []
        assert wal.prepared(1) is None
        assert not wal.precommitted(1)
