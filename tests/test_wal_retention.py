"""The WAL forgets what recovery no longer needs.

A decided transaction is released at once by the presumed-abort retention
rules; the log is indexed by transaction, so a release and a decision
lookup cost what the transaction holds, not the history.  Recovery then
needs only the in-doubt transactions: the store keeps every commit.
"""

from __future__ import annotations

import sys

import pytest

import repro.site.wal as wal_module
from repro.experiments.common import build_instance
from repro.site.wal import WriteAheadLog
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance


def lines_run(call) -> int:
    """Python lines of ``repro/site/wal.py`` executed by ``call()``."""
    count = 0
    target = wal_module.__file__

    def tracer(frame, event, _arg):
        nonlocal count
        if frame.f_code.co_filename != target:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def retained_3pc_log(n: int) -> WriteAheadLog:
    """A participant log of ``n`` committed 3PC transactions, released."""
    wal = WriteAheadLog("s", keep_decisions=True)
    for txn in range(1, n + 1):
        wal.log_prepare(txn, {"x": (txn, txn)}, "coord/a", at=0.0, peers=["p"])
        wal.log_precommit(txn, at=0.5)
        wal.log_commit(txn, at=1.0, coordinator="coord/a")
        wal.release(txn)
    return wal


class TestRelease:
    def test_2pc_participant_commit_leaves_nothing(self):
        wal = WriteAheadLog("s")
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0)
        wal.log_commit(1, at=1.0, coordinator="coord/a")
        assert wal.release(1) == 2
        assert len(wal) == 0 and wal.records == []
        assert wal.decision_for(1) is None

    def test_coordinator_commit_stays_until_end(self):
        wal = WriteAheadLog("s")
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0)  # home participant
        coordinator_commit = wal.log_commit(1, at=1.0)
        wal.log_commit(1, at=1.0, coordinator="coord/a")
        assert wal.release(1) == 2
        assert wal.records == [coordinator_commit]
        assert wal.decision_for(1) == "COMMIT"
        wal.log_end(1, at=2.0)
        assert wal.release(1) == 2  # the END and the pinned COMMIT
        assert len(wal) == 0
        assert wal.decision_for(1) is None

    def test_3pc_keeps_one_decision_for_its_peers(self):
        wal = WriteAheadLog("s", keep_decisions=True)
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0, peers=["p"])
        wal.log_precommit(1, at=0.5)
        commit = wal.log_commit(1, at=1.0, coordinator="coord/a")
        wal.log_prepare(2, {"y": (1, 1)}, "coord/a", at=0.0, peers=["p"])
        abort = wal.log_abort(2, at=1.0, coordinator="coord/a")
        wal.release(1)
        wal.release(2)
        assert wal.records == [commit, abort]
        assert (wal.decision_for(1), wal.decision_for(2)) == ("COMMIT", "ABORT")
        assert wal.in_doubt() == []

    def test_2pc_abort_is_presumed(self):
        wal = WriteAheadLog("s")
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0)
        wal.log_abort(1, at=1.0, coordinator="coord/a")
        wal.log_abort(1, at=1.0)  # the coordinator's own record
        assert wal.release(1) == 3
        assert len(wal) == 0

    def test_release_leaves_other_transactions_alone(self):
        wal = WriteAheadLog("s", keep_decisions=True)
        prepare = wal.log_prepare(2, {"y": (1, 1)}, "coord/a", at=0.0, ts=3.0, peers=["p"])
        precommit = wal.log_precommit(2, at=0.5)
        wal.log_prepare(1, {"x": (1, 1)}, "coord/a", at=0.0)
        abort = wal.log_abort(1, at=1.0)
        wal.release(1)
        assert wal.records == [prepare, precommit, abort]
        assert wal.in_doubt() == [prepare]
        assert wal.precommitted(2)


class TestIndexedCost:
    def test_decision_for_does_not_scan_the_log(self):
        small, large = retained_3pc_log(10), retained_3pc_log(400)
        for wal in (small, large):
            wal.log_prepare(10_000, {}, "coord/a", at=3.0)
            wal.log_commit(10_000, at=4.0, coordinator="coord/a")
        for txn in (5, 10_000, 99_999):
            assert lines_run(lambda: small.decision_for(txn)) == lines_run(
                lambda: large.decision_for(txn)
            )
        assert large.decision_for(5) == "COMMIT"

    def test_release_work_does_not_grow_with_retained_commits(self):
        small, large = retained_3pc_log(10), retained_3pc_log(400)
        for wal in (small, large):
            wal.log_prepare(10_000, {"x": (1, 1)}, "coord/a", at=3.0)
            wal.log_commit(10_000, at=4.0, coordinator="coord/a")
        assert lines_run(lambda: small.release(10_000)) == lines_run(
            lambda: large.release(10_000)
        )
        assert [record.kind for record in large.records] == ["COMMIT"] * 401


class TestRecovery:
    def test_committed_write_survives_crash_without_redo(self):
        instance = quick_instance(n_items=8, settle_time=30)
        instance.start()
        txn = Transaction(ops=[Operation.write("x1", 77)], home_site="site1")
        instance.sim.run(until=instance.submit(txn))
        site = instance.sites["site1"]
        # The commit was applied and released in one step: nothing to redo.
        assert site.wal.in_doubt() == []
        site.crash()
        site.recover()
        instance.sim.run(until=instance.sim.now + 30)
        assert site.store.read("x1")[0] == 77

    def test_in_doubt_participant_recovers_and_resolves(self):
        """A participant crashed while in doubt reinstates the transaction
        from its PREPARE and resolves it once the coordinator is back."""
        instance = quick_instance(n_items=8, settle_time=0,
                                  uncertainty_timeout=20.0, decision_retry=10.0)
        instance.injector.crash_before_step("site1", 2)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x1", 1), Operation.write("x2", 2)],
            home_site="site1",
        )
        instance.sim.run(until=instance.submit(txn))
        participant = instance.sites["site2"]
        assert participant.in_doubt_count() == 1
        participant.crash()
        assert participant.in_doubt_count() == 0
        participant.recover()
        assert participant.in_doubt_count() == 1
        instance.injector.recover_now("site1")
        instance.sim.run(until=instance.sim.now + 200)
        assert all(site.in_doubt_count() == 0 for site in instance.sites.values())
        assert participant.store.read("x1")[0] == 0  # presumed abort


def _session(acp: str, n_transactions: int, samples: list):
    """A fault-free session; ``samples`` collects WAL states mid-session."""
    instance = build_instance(4, 40, 3, acp=acp, seed=4)
    instance.start()

    def sampler():
        while True:
            yield instance.sim.timeout(7.0)
            in_flight = set()
            for site in instance.sites.values():
                in_flight.update(site._home_ctxs)
            logged = [record for site in instance.sites.values() for record in site.wal.records]
            samples.append((in_flight, logged))

    instance.sim.process(sampler(), name="test:wal-sampler")
    result = instance.run_workload(
        WorkloadSpec(n_transactions=n_transactions, arrival="poisson", arrival_rate=0.5)
    )
    assert result.statistics.finished == n_transactions
    return instance


class TestBoundedLog:
    @pytest.mark.parametrize("n_transactions", [500, 2000])
    def test_2pc_log_holds_only_transactions_in_flight(self, n_transactions):
        samples = []
        instance = _session("2PC", n_transactions, samples)
        assert len(samples) > 100
        assert any(logged for _in_flight, logged in samples)
        for in_flight, logged in samples:
            assert {record.txn_id for record in logged} <= in_flight
        # Nothing is in flight after the session: the log is empty, at
        # any session length, and no site keeps per-transaction state.
        for site in instance.sites.values():
            assert len(site.wal) == 0
            assert (site._txn_home, site._activity, site._resolving) == ({}, {}, set())

    def test_rejected_lock_requests_leave_no_lock_state(self):
        # Deadlock victims, wait timeouts and distributed-deadlock aborts
        # reject requests at sites where the transaction holds nothing.
        instance = _session("2PC", 500, [])
        rejected = sum(
            site.cc.locks.stats.deadlocks + site.cc.locks.stats.timeouts
            for site in instance.sites.values()
        )
        assert rejected > 0
        for site in instance.sites.values():
            assert (site.cc.locks._ts_of, site.cc.locks._entries) == ({}, {})

    def test_3pc_log_grows_only_by_retained_decisions(self):
        samples = []
        instance = _session("3PC", 500, samples)
        for in_flight, logged in samples:
            # Everything but the participants' retained decisions belongs
            # to a running transaction; a coordinator's own COMMIT (no
            # ``coordinator`` address) stays only until its END.
            unsettled = {
                record.txn_id
                for record in logged
                if record.kind not in ("COMMIT", "ABORT")
                or (record.kind == "COMMIT" and record.coordinator is None)
            }
            assert unsettled <= in_flight
        committed = {record.txn_id for record in instance.monitor.records
                     if record.status == "COMMITTED"}
        for site in instance.sites.values():
            records = site.wal.records
            # Every home transaction reached END: no coordinator COMMIT is left.
            assert not any(r.kind == "COMMIT" and r.coordinator is None for r in records)
            assert {record.kind for record in records} <= {"COMMIT", "ABORT"}
            assert len({record.txn_id for record in records}) == len(records)
            assert {r.txn_id for r in records if r.kind == "COMMIT"} <= committed
