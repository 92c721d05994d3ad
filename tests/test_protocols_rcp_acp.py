"""Integration tests for RCP (ROWA/QC) and ACP (2PC/3PC) behaviour.

These drive whole transactions through small instances and assert the
protocol-specific observable effects: which copies get written, how
failures map to abort causes, version currency, orphan handling.
"""

import pytest

from repro.net.message import MessageType
from repro.txn.transaction import Operation, Transaction
from tests.conftest import quick_instance, record_wal_appends


def run_txn(instance, txn):
    process = instance.submit(txn)
    instance.sim.run(until=process)
    return txn


def copies_of(instance, item):
    return {
        name: site.store.read(item)
        for name, site in instance.sites.items()
        if site.store.has_copy(item)
    }


class TestRowa:
    def test_write_updates_every_copy(self):
        instance = quick_instance(rcp="ROWA", n_items=8)
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        )
        assert txn.committed
        values = copies_of(instance, "x1")
        assert len(values) == 3
        assert all(value == (9, 1) for value in values.values())

    def test_read_prefers_local_copy_no_messages(self):
        instance = quick_instance(rcp="ROWA", n_items=8)
        instance.start()
        before = dict(instance.network.stats.by_type)
        # x1 is placed on site1..site3; home site1 holds a copy.
        txn = run_txn(
            instance, Transaction(ops=[Operation.read("x1")], home_site="site1")
        )
        assert txn.committed
        after = instance.network.stats.by_type
        assert after.get(MessageType.READ, 0) == before.get(MessageType.READ, 0)

    def test_remote_read_when_no_local_copy(self):
        instance = quick_instance(rcp="ROWA", n_items=8)
        instance.start()
        # x2 is placed on site2..site4: site1 must go remote.
        txn = run_txn(
            instance, Transaction(ops=[Operation.read("x2")], home_site="site1")
        )
        assert txn.committed
        assert instance.network.stats.by_type.get(MessageType.READ, 0) >= 1

    def test_write_aborts_rcp_when_any_copy_down(self):
        instance = quick_instance(rcp="ROWA", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 10
        instance.start()
        instance.injector.crash_now("site3")
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        )
        assert txn.aborted
        assert txn.abort_cause == "RCP"

    def test_read_survives_one_copy_down(self):
        instance = quick_instance(rcp="ROWA", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 10
        instance.start()
        instance.injector.crash_now("site2")
        txn = run_txn(
            instance, Transaction(ops=[Operation.read("x1")], home_site="site1")
        )
        assert txn.committed


class TestQuorumConsensus:
    def test_write_touches_quorum_not_all(self):
        instance = quick_instance(rcp="QC", n_items=8)
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        )
        assert txn.committed
        values = copies_of(instance, "x1")
        written = [v for v in values.values() if v == (9, 1)]
        stale = [v for v in values.values() if v == (0, 0)]
        assert len(written) == 2  # w = 2 of 3
        assert len(stale) == 1

    def test_read_returns_highest_version_in_quorum(self):
        instance = quick_instance(rcp="QC", n_items=8)
        run_txn(instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1"))
        # Now one copy is stale.  Any read quorum (2 of 3) must include at
        # least one updated copy, and QC picks the highest version.
        for home in ("site1", "site2", "site3"):
            txn = run_txn(
                instance, Transaction(ops=[Operation.read("x1")], home_site=home)
            )
            assert txn.committed
            assert txn.reads["x1"] == 9

    def test_write_survives_minority_down(self):
        instance = quick_instance(rcp="QC", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 10
        instance.start()
        instance.injector.crash_now("site3")
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        )
        assert txn.committed

    def test_write_aborts_rcp_when_majority_down(self):
        instance = quick_instance(rcp="QC", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 10
        instance.start()
        instance.injector.crash_now("site2")
        instance.injector.crash_now("site3")
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        )
        assert txn.aborted
        assert txn.abort_cause == "RCP"

    def test_version_advances_across_writes(self):
        instance = quick_instance(rcp="QC", n_items=8)
        for value in (1, 2, 3):
            txn = run_txn(
                instance,
                Transaction(ops=[Operation.write("x1", value)], home_site="site2"),
            )
            assert txn.committed
        versions = [v for _val, v in copies_of(instance, "x1").values()]
        assert max(versions) == 3

    def test_quorum_expansion_after_member_failure(self):
        """If a first-wave member is down, QC expands to remaining holders."""
        instance = quick_instance(rcp="QC", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 8
        instance.start()
        # x2 lives on site2,3,4.  Home site1 contacts a 2-site wave; crash
        # one holder so the wave must expand.
        instance.injector.crash_now("site2")
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x2", 5)], home_site="site1")
        )
        assert txn.committed


class TestAtomicCommit:
    @pytest.mark.parametrize("acp", ["2PC", "3PC"])
    def test_happy_path_commits_and_cleans_up(self, acp):
        instance = quick_instance(acp=acp, n_items=8)
        txn = run_txn(
            instance,
            Transaction(
                ops=[Operation.write("x1", 1), Operation.read("x2")],
                home_site="site1",
            ),
        )
        assert txn.committed
        instance.sim.run(until=instance.sim.now + 50)
        assert all(site.in_doubt_count() == 0 for site in instance.sites.values())
        assert all(
            site.cc.active_transactions() == set() for site in instance.sites.values()
        )

    def test_vote_no_aborts_globally(self):
        instance = quick_instance(n_items=8)
        instance.start()
        txn = Transaction(ops=[Operation.write("x1", 1)], home_site="site1")

        # Doom the transaction at a remote participant before it prepares:
        # intercept by pre-dooming at site2 (a holder of x1).
        instance.sites["site2"].cc.doom(txn.txn_id)
        txn = run_txn(instance, txn)
        assert txn.aborted
        assert txn.abort_cause in ("ACP", "CCP")
        # No copy anywhere took the write.
        assert all(v == (0, 0) for v in copies_of(instance, "x1").values())

    def test_participant_crash_before_vote_aborts(self):
        instance = quick_instance(n_items=8, settle_time=10)
        instance.config.protocols.vote_timeout = 8
        instance.config.protocols.op_timeout = 10
        instance.start()
        site2 = instance.sites["site2"]

        # Crash the participant right after the prewrite lands, before the
        # vote request arrives.
        txn = Transaction(ops=[Operation.write("x1", 1)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.defer(2.5, site2.crash)
        instance.sim.run(until=process)
        assert txn.aborted

    def test_coordinator_decision_record_written(self):
        instance = quick_instance(n_items=8)
        home = instance.sites["site1"]
        appended = record_wal_appends([home])
        txn = run_txn(instance, Transaction(ops=[Operation.write("x1", 1)], home_site="site1"))
        # The coordinator forced its own (untagged) COMMIT, then END once
        # every participant acknowledged, which released the transaction.
        forced = [(record.kind, record.coordinator) for _site, record in appended]
        assert ("COMMIT", None) in forced
        assert forced.index(("COMMIT", None)) < forced.index(("END", None))
        assert home.wal.decision_for(txn.txn_id) is None

    def test_read_only_transaction_commits_without_prewrites(self):
        instance = quick_instance(n_items=8)
        txn = run_txn(
            instance, Transaction(ops=[Operation.read("x1")], home_site="site1")
        )
        assert txn.committed
        assert txn.write_versions == {}


class TestFailpoints:
    """Coordinator crashes from the fault injector's ACP-step crash plan.

    Steps count from 1: the vote round, under 3PC the PRECOMMIT round,
    then the decision force.  Step 2 is ``after_votes`` under either ACP,
    step 3 ``after_precommit`` under 3PC.
    """

    def test_2pc_blocking_until_recovery(self):
        instance = quick_instance(n_items=8, uncertainty_timeout=20.0,
                                  decision_retry=10.0, settle_time=0)
        instance.injector.crash_before_step("site1", 2)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x1", 1), Operation.write("x2", 2)],
            home_site="site1",
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.abort_cause == "SYSTEM"
        instance.sim.run(until=instance.sim.now + 150)
        blocked = sum(site.in_doubt_count() for site in instance.sites.values())
        assert blocked >= 1  # still blocked while coordinator is down
        instance.injector.recover_now("site1")
        instance.sim.run(until=instance.sim.now + 150)
        assert sum(site.in_doubt_count() for site in instance.sites.values()) == 0
        # Presumed abort: nothing was written anywhere.
        assert all(v[0] == 0 for v in copies_of(instance, "x1").values())

    def test_2pc_double_failure_participant_and_coordinator(self):
        """Coordinator down after votes AND an in-doubt participant crashes:
        both recover, and presumed abort resolves the orphan consistently."""
        instance = quick_instance(n_items=8, uncertainty_timeout=20.0,
                                  decision_retry=10.0, settle_time=0)
        instance.injector.crash_before_step("site1", 2)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x1", 1), Operation.write("x2", 2)],
            home_site="site1",
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.abort_cause == "SYSTEM"
        victims = [name for name, site in instance.sites.items()
                   if name != "site1" and site.in_doubt_count()]
        assert victims  # at least one participant was left in doubt
        instance.injector.crash_now(victims[0])
        instance.sim.run(until=instance.sim.now + 30)
        instance.injector.recover_now(victims[0])
        instance.injector.recover_now("site1")
        instance.sim.run(until=instance.sim.now + 200)
        assert sum(site.in_doubt_count() for site in instance.sites.values()) == 0
        assert all(v[0] == 0 for v in copies_of(instance, "x1").values())
        assert all(v[0] == 0 for v in copies_of(instance, "x2").values())

    def test_3pc_double_failure_precommitted_participant(self):
        """Coordinator down after PRECOMMIT AND a precommitted participant
        crashes: the survivors commit via termination, and the recovered
        participant learns COMMIT from its peers' retained decisions."""
        instance = quick_instance(acp="3PC", n_items=8, uncertainty_timeout=20.0,
                                  decision_retry=10.0, settle_time=0)
        instance.injector.crash_before_step("site1", 3)
        instance.start()
        txn = Transaction(ops=[Operation.write("x1", 1)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        victims = [name for name, site in instance.sites.items()
                   if name != "site1" and site.in_doubt_count()]
        assert victims
        instance.injector.crash_now(victims[0])
        instance.sim.run(until=instance.sim.now + 100)
        instance.injector.recover_now(victims[0])
        instance.injector.recover_now("site1")
        instance.sim.run(until=instance.sim.now + 200)
        assert sum(site.in_doubt_count() for site in instance.sites.values()) == 0
        values = copies_of(instance, "x1")
        committed = [v for v in values.values() if v == (1, 1)]
        assert len(committed) >= 2  # the write quorum committed...
        assert values[victims[0]] == (1, 1)  # ...including the crashed one

    def test_3pc_terminates_without_coordinator(self):
        instance = quick_instance(acp="3PC", n_items=8, uncertainty_timeout=20.0,
                                  decision_retry=10.0, settle_time=0)
        instance.injector.crash_before_step("site1", 3)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x1", 1)],
            home_site="site1",
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        instance.sim.run(until=instance.sim.now + 200)
        # Without any recovery of site1, participants committed via the
        # termination protocol.
        assert sum(
            site.in_doubt_count()
            for name, site in instance.sites.items()
            if name != "site1"
        ) == 0
        committed_copies = [
            value for value, _version in copies_of(instance, "x1").values()
            if value == 1
        ]
        assert len(committed_copies) >= 1


class TestCrashBeforeEveryStep:
    """Crash the coordinator before each ACP step it takes, recover it later.

    One ROWA/2PL write transaction homed at site1, message-economy flags
    off.  Whatever the step, the session ends with no transaction in
    doubt, every copy of a written item equal, and nothing forced at the
    home site while it was down.
    """

    STEPS = {
        "2PC": ["acp.vote", "force.decision", "acp.decision", "force.end"],
        "3PC": ["acp.vote", "acp.precommit", "force.decision", "acp.decision", "force.end"],
    }
    OUTAGE = 50.0  # longer than the uncertainty timeout: 3PC terminates meanwhile

    @staticmethod
    def _session(acp):
        instance = quick_instance(rcp="ROWA", acp=acp, n_items=8, uncertainty_timeout=20.0,
                                  decision_retry=10.0, settle_time=0)
        txn = Transaction(ops=[Operation.write("x1", 1), Operation.write("x2", 2)],
                          home_site="site1")
        return instance, instance.sites["site1"], txn

    @pytest.mark.parametrize("acp", ["2PC", "3PC"])
    def test_crash_before_every_step(self, acp):
        from repro.chaos.engine import QUIESCE_TIME

        instance, home, txn = self._session(acp)
        steps = []

        def record(kind, _site, _txn, item, *_event):
            if kind == "step":
                steps.append(item)

        home.subscribers.append(record)
        instance.start()
        assert run_txn(instance, txn).committed
        assert steps == self.STEPS[acp]
        for k in range(1, len(steps) + 1):
            instance, home, txn = self._session(acp)
            forced = record_wal_appends([home])
            instance.injector.crash_before_step("site1", k)
            forced_at_crash = []

            def at_crash(kind, *_event):
                if kind == "step" and not home.up:
                    forced_at_crash.append(len(forced))

            home.subscribers.append(at_crash)  # after the plan: sees the crashed home
            instance.start()
            run_txn(instance, txn)
            instance.sim.run(until=instance.sim.now + self.OUTAGE)
            assert not home.up and instance.injector.crash_count() == 1
            assert forced_at_crash == [len(forced)], f"step {k}: the down home forced"
            instance.injector.recover_now("site1")
            instance.sim.run(until=instance.sim.now + QUIESCE_TIME)
            assert [site.in_doubt_count() for site in instance.sites.values()] == [0] * 4, k
            for item in ("x1", "x2"):
                assert len(set(copies_of(instance, item).values())) == 1, (k, item)
