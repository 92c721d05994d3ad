"""Unit tests for the three concurrency controllers (2PL, TSO, MVTO)."""

import pytest

from repro.errors import ConcurrencyAbort
from repro.protocols.base import make_ccp
from repro.protocols.ccp.multiversion import MultiversionTimestampController
from repro.protocols.ccp.timestamp_ordering import TimestampOrderingController
from repro.protocols.ccp.two_phase_locking import TwoPhaseLockingController
from repro.site.storage import LocalStore
from tests.conftest import drive


@pytest.fixture
def store():
    store = LocalStore("s1")
    for item in ("x", "y", "z"):
        store.create_copy(item, initial_value=0)
    return store


def run_op(sim, generator):
    """Drive a controller generator op; returns its value or raises."""
    return drive(sim, generator)


class TestRegistry:
    def test_make_ccp_by_name(self, sim, store):
        assert isinstance(make_ccp("2pl", sim, store), TwoPhaseLockingController)
        assert isinstance(make_ccp("TSO", sim, store), TimestampOrderingController)
        assert isinstance(make_ccp("mvto", sim, store), MultiversionTimestampController)

    def test_unknown_ccp_rejected(self, sim, store):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            make_ccp("nope", sim, store)


class Test2PL:
    def test_read_returns_committed_value(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        assert run_op(sim, cc.read(1, 1.0, "x")) == (0, 0)

    def test_prewrite_buffers_and_returns_version(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        version = run_op(sim, cc.prewrite(1, 1.0, "x", 42))
        assert version == 0
        assert cc.buffered_writes(1) == {"x": 42}
        assert store.read("x") == (0, 0)  # not yet committed

    def test_read_your_own_write(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        run_op(sim, cc.prewrite(1, 1.0, "x", 42))
        value, _version = run_op(sim, cc.read(1, 1.0, "x"))
        assert value == 42

    def test_commit_applies_with_versions(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        run_op(sim, cc.prewrite(1, 1.0, "x", 42))
        cc.commit(1, {"x": 7})
        assert store.read("x") == (42, 7)
        assert cc.active_transactions() == set()
        assert cc.locks.held_locks(1) == {}

    def test_commit_without_version_increments(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        run_op(sim, cc.prewrite(1, 1.0, "x", 5))
        cc.commit(1, {})
        assert store.read("x") == (5, 1)

    def test_abort_discards_and_releases(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        run_op(sim, cc.prewrite(1, 1.0, "x", 42))
        cc.abort(1)
        assert store.read("x") == (0, 0)
        assert cc.locks.held_locks(1) == {}

    def test_conflicting_write_blocks_until_commit(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        run_op(sim, cc.prewrite(1, 1.0, "x", 1))
        log = []

        def second():
            yield from cc.prewrite(2, 2.0, "x", 2)
            log.append(sim.now)

        process = sim.process(second())
        sim.defer(5, lambda: cc.commit(1, {}))
        sim.run(until=process)
        assert log == [5.0]

    def test_deadlock_victim_raises_concurrency_abort(self, sim, store):
        cc = TwoPhaseLockingController(sim, store, wait_timeout=None)

        def t1():
            yield from cc.prewrite(1, 1.0, "x", 1)
            yield sim.timeout(1)
            yield from cc.prewrite(1, 1.0, "y", 1)
            cc.commit(1, {})
            return "committed"

        def t2():
            yield from cc.prewrite(2, 2.0, "y", 2)
            yield sim.timeout(1)
            try:
                yield from cc.prewrite(2, 2.0, "x", 2)
            except ConcurrencyAbort:
                cc.abort(2)
                return "victim"

        p1, p2 = sim.process(t1()), sim.process(t2())
        sim.run()
        assert p2.value == "victim"
        assert p1.value == "committed"

    def test_doomed_txn_rejected(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        cc.doom(1)
        with pytest.raises(ConcurrencyAbort):
            run_op(sim, cc.read(1, 1.0, "x"))

    def test_reinstate_restores_workspace_and_locks(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        cc.reinstate(5, 2.0, {"x": 99})
        assert cc.buffered_writes(5) == {"x": 99}
        assert cc.locks.held_locks(5) == {"x": "X"}
        cc.commit(5, {"x": 3})
        assert store.read("x") == (99, 3)

    def test_clear_drops_everything(self, sim, store):
        cc = TwoPhaseLockingController(sim, store)
        run_op(sim, cc.prewrite(1, 1.0, "x", 1))
        cc.clear()
        assert cc.active_transactions() == set()
        assert cc.locks.held_locks(1) == {}


class TestTSO:
    def test_read_advances_read_ts(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        assert run_op(sim, cc.read(1, 5.0, "x")) == (0, 0)
        # A later prewrite with smaller ts must now be rejected.
        with pytest.raises(ConcurrencyAbort):
            run_op(sim, cc.prewrite(2, 3.0, "x", 9))

    def test_late_read_rejected(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        run_op(sim, cc.prewrite(1, 10.0, "x", 1))
        cc.commit(1, {})
        with pytest.raises(ConcurrencyAbort):
            run_op(sim, cc.read(2, 5.0, "x"))

    def test_late_prewrite_rejected_after_commit(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        run_op(sim, cc.prewrite(1, 10.0, "x", 1))
        cc.commit(1, {})
        with pytest.raises(ConcurrencyAbort):
            run_op(sim, cc.prewrite(2, 5.0, "x", 2))

    def test_read_waits_for_smaller_pending_prewrite(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        run_op(sim, cc.prewrite(1, 5.0, "x", 77))
        results = []

        def reader():
            value, _version = yield from cc.read(2, 8.0, "x")
            results.append((value, sim.now))

        process = sim.process(reader())
        sim.defer(4, lambda: cc.commit(1, {}))
        sim.run(until=process)
        assert results == [(77, 4.0)]  # saw the committed value, after waiting

    def test_read_not_blocked_by_larger_pending_prewrite(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        run_op(sim, cc.prewrite(1, 10.0, "x", 77))
        value, _version = run_op(sim, cc.read(2, 5.0, "x"))
        assert value == 0  # reads the old committed value without waiting

    def test_abort_wakes_waiting_reader(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        run_op(sim, cc.prewrite(1, 5.0, "x", 77))
        results = []

        def reader():
            value, _version = yield from cc.read(2, 8.0, "x")
            results.append(value)

        process = sim.process(reader())
        sim.defer(3, lambda: cc.abort(1))
        sim.run(until=process)
        assert results == [0]  # writer aborted; committed value unchanged

    def test_read_own_buffered_write(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        run_op(sim, cc.prewrite(1, 5.0, "x", 42))
        value, _version = run_op(sim, cc.read(1, 5.0, "x"))
        assert value == 42

    def test_wait_timeout_aborts_reader(self, sim, store):
        cc = TimestampOrderingController(sim, store, wait_timeout=10.0)
        run_op(sim, cc.prewrite(1, 5.0, "x", 77))  # never committed

        def reader():
            with pytest.raises(ConcurrencyAbort):
                yield from cc.read(2, 8.0, "x")
            return sim.now

        assert drive(sim, reader()) == 10.0

    def test_commit_sets_write_ts(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        run_op(sim, cc.prewrite(1, 7.0, "x", 1))
        cc.commit(1, {})
        with pytest.raises(ConcurrencyAbort):
            run_op(sim, cc.read(2, 6.0, "x"))

    def test_no_deadlocks_possible(self, sim, store):
        """Waits-for in TSO follows timestamp order, hence acyclic."""
        cc = TimestampOrderingController(sim, store, wait_timeout=None)
        run_op(sim, cc.prewrite(1, 1.0, "x", 1))
        run_op(sim, cc.prewrite(2, 2.0, "y", 2))

        def t1_reads_y():
            # ts=1 reads y: pending prewrite has ts=2 > 1, no wait.
            value, _v = yield from cc.read(1, 1.0, "y")
            return value

        assert drive(sim, t1_reads_y()) == 0

    def test_reinstate_restores_pending(self, sim, store):
        cc = TimestampOrderingController(sim, store)
        cc.reinstate(3, 5.0, {"x": 50})
        # A reader above ts=5 must wait on the reinstated pending prewrite.
        waited = []

        def reader():
            value, _v = yield from cc.read(4, 8.0, "x")
            waited.append((value, sim.now))

        process = sim.process(reader())
        sim.defer(6, lambda: cc.commit(3, {"x": 1}))
        sim.run(until=process)
        assert waited == [(50, 6.0)]


class TestMVTO:
    def test_read_latest_version_at_or_below_ts(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 5.0, "x", 50))
        cc.commit(1, {})
        run_op(sim, cc.prewrite(2, 10.0, "x", 100))
        cc.commit(2, {})
        assert run_op(sim, cc.read(3, 7.0, "x"))[0] == 50
        assert run_op(sim, cc.read(4, 12.0, "x"))[0] == 100

    def test_old_reader_never_rejected(self, sim, store):
        """The headline MVTO property: late reads serve old versions."""
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 10.0, "x", 1))
        cc.commit(1, {})
        value, version = run_op(sim, cc.read(2, 5.0, "x"))
        assert value == 0  # the initial version, not a rejection

    def test_prewrite_rejected_when_invalidating_read(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.read(1, 10.0, "x"))  # rts(v0) = 10
        with pytest.raises(ConcurrencyAbort):
            run_op(sim, cc.prewrite(2, 5.0, "x", 9))

    def test_prewrite_after_reads_with_smaller_ts_ok(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.read(1, 3.0, "x"))
        run_op(sim, cc.prewrite(2, 5.0, "x", 9))  # must not raise
        cc.commit(2, {})
        assert run_op(sim, cc.read(3, 6.0, "x"))[0] == 9

    def test_reader_waits_for_relevant_pending_write(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 5.0, "x", 55))
        seen = []

        def reader():
            value, _v = yield from cc.read(2, 8.0, "x")
            seen.append((value, sim.now))

        process = sim.process(reader())
        sim.defer(4, lambda: cc.commit(1, {}))
        sim.run(until=process)
        assert seen == [(55, 4.0)]

    def test_reader_skips_irrelevant_pending_write(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 20.0, "x", 55))  # pending above reader ts
        assert run_op(sim, cc.read(2, 8.0, "x"))[0] == 0

    def test_version_chain_grows_and_truncates(self, sim, store):
        cc = MultiversionTimestampController(sim, store, max_versions=3)
        for index in range(6):
            ts = float(index + 1)
            run_op(sim, cc.prewrite(index + 1, ts, "x", index))
            cc.commit(index + 1, {})
        assert cc.version_count("x") == 3

    def test_store_mirrors_latest_version(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 4.0, "x", 40))
        cc.commit(1, {})
        assert store.read("x") == (40, 4.0)

    def test_out_of_order_commit_does_not_regress_store(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 10.0, "x", 100))
        run_op(sim, cc.prewrite(2, 5.0, "y", 50))
        cc.commit(1, {})
        cc.commit(2, {})
        assert store.read("x") == (100, 10.0)

    def test_read_own_write(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 5.0, "x", 42))
        assert run_op(sim, cc.read(1, 5.0, "x"))[0] == 42

    def test_abort_drops_pending(self, sim, store):
        cc = MultiversionTimestampController(sim, store)
        run_op(sim, cc.prewrite(1, 5.0, "x", 42))
        cc.abort(1)
        assert run_op(sim, cc.read(2, 8.0, "x"))[0] == 0
