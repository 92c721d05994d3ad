"""Unit and integration tests for optimistic concurrency control (OCC)."""

import pytest

from repro.protocols.base import ccp_registry, make_ccp
from repro.protocols.ccp.optimistic import OptimisticController
from repro.site.storage import LocalStore
from repro.txn.transaction import Operation, Transaction
from tests.conftest import quick_instance, settle


@pytest.fixture
def cc(sim):
    store = LocalStore("s1")
    for item in ("x", "y"):
        store.create_copy(item, 0)
    return OptimisticController(sim, store)


class TestLocalBehaviour:
    def test_registered(self):
        assert "OCC" in ccp_registry()

    def test_reads_never_block(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        # A second transaction reads straight through the pending write.
        assert settle(sim, cc.read(2, 2.0, "x")) == (0, 0)

    def test_read_own_write(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        assert settle(sim, cc.read(1, 1.0, "x"))[0] == 5

    def test_validation_passes_without_conflicts(self, sim, cc):
        settle(sim, cc.read(1, 1.0, "x"))
        settle(sim, cc.prewrite(1, 1.0, "y", 2))
        ok, reason = cc.validate(1)
        assert ok, reason

    def test_validation_fails_if_read_version_moved(self, sim, cc):
        settle(sim, cc.read(1, 1.0, "x"))
        # Someone else commits an overwrite of x before T1 validates.
        settle(sim, cc.prewrite(2, 2.0, "x", 9))
        assert cc.validate(2)[0]
        cc.commit(2, {"x": 1})
        ok, reason = cc.validate(1)
        assert not ok
        assert "x moved" in reason

    def test_validation_fails_if_write_base_moved(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        settle(sim, cc.prewrite(2, 2.0, "x", 9))
        assert cc.validate(2)[0]
        cc.commit(2, {"x": 1})
        ok, _reason = cc.validate(1)
        assert not ok

    def test_parallel_validation_blocks_overlap(self, sim, cc):
        """Two txns validating before either commits: the second loses."""
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        settle(sim, cc.prewrite(2, 2.0, "x", 9))
        assert cc.validate(1)[0]
        ok, reason = cc.validate(2)
        assert not ok
        assert "overlaps validated" in reason

    def test_read_overlap_with_validated_writer_fails(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        assert cc.validate(1)[0]
        settle(sim, cc.read(2, 2.0, "x"))
        ok, _reason = cc.validate(2)
        assert not ok

    def test_write_overlap_with_validated_reader_fails(self, sim, cc):
        """Symmetric check: a writer yields to a validated reader."""
        settle(sim, cc.read(1, 1.0, "x"))
        assert cc.validate(1)[0]
        settle(sim, cc.prewrite(2, 2.0, "x", 9))
        ok, reason = cc.validate(2)
        assert not ok
        assert reason == "overlaps validated txn1 on ['x']"

    def test_readers_of_one_item_validate_in_parallel(self, sim, cc):
        settle(sim, cc.read(1, 1.0, "x"))
        settle(sim, cc.read(2, 2.0, "x"))
        assert cc.validate(1)[0]
        assert cc.validate(2)[0]

    def test_abort_releases_validated_slot(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        assert cc.validate(1)[0]
        cc.abort(1)
        settle(sim, cc.prewrite(2, 2.0, "x", 9))
        assert cc.validate(2)[0]

    def test_disjoint_footprints_validate_in_parallel(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        settle(sim, cc.prewrite(2, 2.0, "y", 9))
        assert cc.validate(1)[0]
        assert cc.validate(2)[0]

    def test_clear_drops_everything(self, sim, cc):
        settle(sim, cc.prewrite(1, 1.0, "x", 5))
        cc.validate(1)
        cc.clear()
        assert cc.active_transactions() == set()


class TestDistributedOcc:
    def test_rmw_race_one_wins(self):
        """Two read-modify-writes on one item: exactly one validates."""
        instance = quick_instance(ccp="OCC", n_items=4, settle_time=40)
        instance.start()
        t1 = Transaction(
            ops=[Operation.read("x1"), Operation.write("x1", 101)], home_site="site1"
        )
        t2 = Transaction(
            ops=[Operation.read("x1"), Operation.write("x1", 102)], home_site="site2"
        )
        p1, p2 = instance.submit(t1), instance.submit(t2)
        instance.sim.run(until=instance.sim.all_of([p1, p2]))
        instance.sim.run(until=instance.sim.now + 40)
        assert {t1.status, t2.status} == {"COMMITTED", "ABORTED"}
        loser = t1 if t1.aborted else t2
        assert loser.abort_cause == "ACP"  # failed validation = NO vote
        ok, _witness = instance.monitor.history.check_serializable()
        assert ok

    def test_session_serializable_under_contention(self):
        from repro.workload.spec import WorkloadSpec

        instance = quick_instance(ccp="OCC", n_items=10, settle_time=50, seed=8)
        result = instance.run_workload(
            WorkloadSpec(n_transactions=30, arrival="closed", mpl=6,
                         min_ops=2, max_ops=4, read_fraction=0.5)
        )
        assert result.serializable is True
        assert instance.monitor.history.version_collisions() == []
        # OCC aborts are ACP (validation), not CCP.
        assert result.statistics.aborts_by_cause.get("CCP", 0) == 0

    def test_no_aborts_without_conflicts(self):
        instance = quick_instance(ccp="OCC", n_items=16, settle_time=30)
        instance.start()
        txns = [
            Transaction(ops=[Operation.write(f"x{i + 1}", i)], home_site="site1")
            for i in range(6)
        ]
        processes = [instance.submit(txn) for txn in txns]
        instance.sim.run(until=instance.sim.all_of(processes))
        assert all(txn.committed for txn in txns)


class TestOneValidationOrder:
    """Fault-free write skew across sites (``r[x] w[y]`` against ``r[y] w[x]``).

    With a read-one RCP each site saw one transaction's read and the other's
    write, and a one-sided check let each site validate the pair in the
    opposite order: both committed and the 1SR check found a 2-cycle.  The
    symmetric check makes every site agree on one order.
    """

    @pytest.mark.parametrize(
        "rcp, acp, seed",
        [("ROWA", "2PC", 8), ("ROWA", "2PC", 11), ("ROWA", "3PC", 24), ("ROWA", "3PC", 32)],
    )
    def test_fault_free_session_is_serializable(self, rcp, acp, seed):
        from repro.chaos.engine import run_chaos_case

        report = run_chaos_case(seed, rcp=rcp, ccp="OCC", acp=acp, chunks=())
        assert report.ok, report.violations
