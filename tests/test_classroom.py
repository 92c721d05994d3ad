"""Tests for the classroom package: assignments and the NOCC protocol."""

import pytest

import repro.classroom  # noqa: F401 - registers NOCC
from repro.classroom import (
    all_assignments,
    assignment_2pc_blocking,
    assignment_crash_recovery,
    assignment_deadlock,
    assignment_lost_update_nocc,
    assignment_quorum_intersection,
)
from repro.classroom.nocc import NoConcurrencyController
from repro.protocols.base import ccp_registry, make_ccp
from repro.site.storage import LocalStore
from tests.conftest import settle


class TestNoccRegistration:
    def test_nocc_registered(self):
        assert "NOCC" in ccp_registry()

    def test_nocc_instantiable_via_registry(self, sim):
        store = LocalStore("s")
        store.create_copy("x")
        cc = make_ccp("NOCC", sim, store)
        assert isinstance(cc, NoConcurrencyController)


class TestNoccBehaviour:
    @pytest.fixture
    def cc(self, sim):
        store = LocalStore("s")
        store.create_copy("x", 0)
        return NoConcurrencyController(sim, store)

    def test_reads_never_block_or_reject(self, sim, cc):
        assert settle(sim, cc.read(1, 1.0, "x")) == (0, 0)
        settle(sim, cc.prewrite(2, 2.0, "x", 9))
        # A concurrent read sails through, oblivious to the pending write.
        assert settle(sim, cc.read(3, 3.0, "x")) == (0, 0)

    def test_conflicting_prewrites_both_accepted(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 1))
        settle(sim, cc.prewrite(2, 2.0, "x", 2))  # no rejection, no wait
        assert cc.active_transactions() == {1, 2}

    def test_read_own_write(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 42))
        assert settle(sim, cc.read(1, 1.0, "x"))[0] == 42

    def test_commit_and_abort(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 42))
        cc.commit(1, {"x": 1})
        assert cc.store.read("x") == (42, 1)
        settle(sim, cc.prewrite(2, 2.0, "x", 50))
        cc.abort(2)
        assert cc.store.read("x") == (42, 1)


class TestAssignments:
    """Each stock lab assignment must observe its phenomenon."""

    def test_deadlock_assignment(self):
        report = assignment_deadlock()
        assert report.passed, report.render()
        assert report.observations["deadlocks_detected"] >= 1
        assert "[x1=1]" in report.observations["local_history_site1"]

    def test_2pc_blocking_assignment(self):
        report = assignment_2pc_blocking()
        assert report.passed, report.render()
        assert report.observations["orphans_while_coordinator_down"] >= 1
        assert report.observations["orphans_after_recovery"] == 0

    def test_quorum_intersection_assignment(self):
        report = assignment_quorum_intersection()
        assert report.passed, report.render()
        assert report.observations["value_read"] == 42

    def test_lost_update_assignment(self):
        report = assignment_lost_update_nocc()
        assert report.passed, report.render()
        assert report.observations["version_collisions"]

    def test_crash_recovery_assignment(self):
        report = assignment_crash_recovery()
        assert report.passed, report.render()
        assert report.observations["value_read"] == 11

    def test_all_assignments_listing(self):
        names = [fn().name for fn in all_assignments()]
        assert names == [
            "deadlock",
            "2pc-blocking",
            "quorum-intersection",
            "lost-update-nocc",
            "crash-recovery",
            "distributed-deadlock",
            "wal-retention",
        ]

    def test_distributed_deadlock_assignment(self):
        from repro.classroom import assignment_distributed_deadlock

        report = assignment_distributed_deadlock()
        assert report.passed, report.render()
        assert report.observations["cycles_found"] >= 1
        assert report.observations["probe_messages"]

    def test_wal_retention_assignment(self):
        from repro.classroom import assignment_wal_retention

        report = assignment_wal_retention()
        assert report.passed, report.render()
        # The coordinator's COMMIT outlives the PREPARE until END.
        assert report.observations["coordinator_log_2pc"] == [
            "(empty)", "PREPARE", "COMMIT", "(empty)",
        ]
        assert report.observations["participant_log_2pc"][-1] == "(empty)"
        assert report.observations["participant_log_3pc"][-1] == "COMMIT"
        assert report.observations["value_after_recovery"] == 5

    def test_report_render(self):
        report = assignment_crash_recovery()
        text = report.render()
        assert "Assignment: crash-recovery" in text
        assert "phenomenon observed: True" in text
