"""Unit tests for the lock manager: grants, queues, deadlock strategies."""

import pytest

from repro.errors import ConcurrencyAbort, ProtocolError
from repro.site.locks import LockManager, LockMode


@pytest.fixture
def locks(sim):
    return LockManager(sim, strategy="detect", wait_timeout=None)


def grant_state(event):
    """'granted' | 'waiting' | 'aborted' for a lock event (after sim.run)."""
    if not event.processed:
        return "waiting"
    return "granted" if event.ok else "aborted"


class TestBasicGrants:
    def test_s_lock_granted_immediately(self, sim, locks):
        assert locks.acquire(1, 1.0, "x", LockMode.S) is None  # granted at once
        assert locks.held_locks(1) == {"x": "S"}

    def test_two_shared_locks_coexist(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.S)
        assert locks.acquire(2, 2.0, "x", LockMode.S) is None  # granted at once

    def test_x_blocks_s(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.S)
        sim.run()
        assert grant_state(event) == "waiting"
        assert locks.waiting_count() == 1

    def test_s_blocks_x(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.S)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.run()
        assert grant_state(event) == "waiting"

    def test_release_grants_waiter(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        locks.release_all(1)
        sim.run()
        assert grant_state(event) == "granted"
        assert locks.held_locks(2) == {"x": "X"}

    def test_reacquire_held_lock_is_immediate(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.S)
        assert locks.acquire(1, 1.0, "x", LockMode.S) is None  # granted at once

    def test_x_holder_may_read(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        assert locks.acquire(1, 1.0, "x", LockMode.S) is None  # granted at once
        assert locks.held_locks(1) == {"x": "X"}

    def test_unknown_mode_rejected(self, sim, locks):
        with pytest.raises(ProtocolError):
            locks.acquire(1, 1.0, "x", "Z")

    def test_unknown_strategy_rejected(self, sim):
        with pytest.raises(ProtocolError):
            LockManager(sim, strategy="nonsense")

    def test_timeout_strategy_requires_timeout(self, sim):
        with pytest.raises(ProtocolError):
            LockManager(sim, strategy="timeout", wait_timeout=None)


class TestUpgrades:
    def test_sole_holder_upgrade_immediate(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.S)
        assert locks.acquire(1, 1.0, "x", LockMode.X) is None  # granted at once
        assert locks.held_locks(1) == {"x": "X"}

    def test_upgrade_waits_for_other_reader(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.S)
        locks.acquire(2, 2.0, "x", LockMode.S)
        event = locks.acquire(1, 1.0, "x", LockMode.X)
        sim.run()
        assert grant_state(event) == "waiting"
        locks.release_all(2)
        sim.run()
        assert grant_state(event) == "granted"
        assert locks.held_locks(1) == {"x": "X"}

    def test_upgrade_deadlock_detected(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.S)
        locks.acquire(2, 2.0, "x", LockMode.S)
        e1 = locks.acquire(1, 1.0, "x", LockMode.X)
        e2 = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.run()
        # The youngest (txn 2) dies; txn 1 then upgrades.
        assert grant_state(e2) == "aborted"
        locks.release_all(2)
        sim.run()
        assert grant_state(e1) == "granted"


class TestFifoFairness:
    def test_new_reader_does_not_overtake_queued_writer(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.S)
        writer = locks.acquire(2, 2.0, "x", LockMode.X)
        late_reader = locks.acquire(3, 3.0, "x", LockMode.S)
        sim.run()
        assert grant_state(writer) == "waiting"
        assert grant_state(late_reader) == "waiting"
        locks.release_all(1)
        sim.run()
        assert grant_state(writer) == "granted"
        assert grant_state(late_reader) == "waiting"
        locks.release_all(2)
        sim.run()
        assert grant_state(late_reader) == "granted"

    def test_queue_grants_compatible_prefix(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        r1 = locks.acquire(2, 2.0, "x", LockMode.S)
        r2 = locks.acquire(3, 3.0, "x", LockMode.S)
        locks.release_all(1)
        sim.run()
        assert grant_state(r1) == "granted"
        assert grant_state(r2) == "granted"


class TestDeadlockDetection:
    def test_two_cycle_aborts_youngest(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "y", LockMode.X)
        e1 = locks.acquire(1, 1.0, "y", LockMode.X)  # 1 waits on 2
        sim.run()
        e2 = locks.acquire(2, 2.0, "x", LockMode.X)  # cycle; 2 is youngest
        sim.run()
        assert grant_state(e2) == "aborted"
        assert grant_state(e1) == "waiting"
        locks.release_all(2)
        sim.run()
        assert grant_state(e1) == "granted"
        assert locks.stats.deadlocks == 1

    def test_three_cycle_detected(self, sim, locks):
        locks.acquire(1, 1.0, "a", LockMode.X)
        locks.acquire(2, 2.0, "b", LockMode.X)
        locks.acquire(3, 3.0, "c", LockMode.X)
        locks.acquire(1, 1.0, "b", LockMode.X)
        locks.acquire(2, 2.0, "c", LockMode.X)
        event = locks.acquire(3, 3.0, "a", LockMode.X)
        sim.run()
        assert grant_state(event) == "aborted"  # 3 is youngest

    def test_no_false_deadlock_on_simple_wait(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.run()
        assert locks.stats.deadlocks == 0
        assert grant_state(event) == "waiting"

    def test_victim_is_youngest_even_if_not_requester(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(9, 9.0, "y", LockMode.X)
        e9 = locks.acquire(9, 9.0, "x", LockMode.X)  # young waits on old
        sim.run()
        e1 = locks.acquire(1, 1.0, "y", LockMode.X)  # old closes the cycle
        sim.run()
        assert grant_state(e9) == "aborted"  # youngest dies, not requester
        locks.release_all(9)
        sim.run()
        assert grant_state(e1) == "granted"


class TestTimeoutStrategy:
    def test_wait_timeout_aborts(self, sim):
        locks = LockManager(sim, strategy="timeout", wait_timeout=10.0)
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.run()
        assert grant_state(event) == "aborted"
        assert locks.stats.timeouts == 1
        assert sim.now == 10.0

    def test_grant_before_timeout_no_abort(self, sim):
        locks = LockManager(sim, strategy="timeout", wait_timeout=10.0)
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.defer(3, lambda: locks.release_all(1))
        sim.run()
        assert grant_state(event) == "granted"
        assert locks.stats.timeouts == 0

    def test_detect_strategy_also_times_out_distributed_waits(self, sim):
        locks = LockManager(sim, strategy="detect", wait_timeout=5.0)
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.run()
        assert grant_state(event) == "aborted"


class TestWaitDie:
    def test_younger_requester_dies(self, sim):
        locks = LockManager(sim, strategy="wait_die", wait_timeout=None)
        locks.acquire(1, 1.0, "x", LockMode.X)  # older holder
        event = locks.acquire(2, 2.0, "x", LockMode.X)  # younger requester
        assert event.triggered and not event.ok
        assert locks.stats.deaths == 1

    def test_older_requester_waits(self, sim):
        locks = LockManager(sim, strategy="wait_die", wait_timeout=None)
        locks.acquire(2, 2.0, "x", LockMode.X)  # younger holder
        event = locks.acquire(1, 1.0, "x", LockMode.X)  # older requester
        sim.run()
        assert grant_state(event) == "waiting"
        locks.release_all(2)
        sim.run()
        assert grant_state(event) == "granted"


class TestWoundWait:
    def test_older_wounds_younger_holder(self, sim):
        wounded = []
        locks = LockManager(
            sim, strategy="wound_wait", wait_timeout=None, on_wound=wounded.append
        )
        locks.acquire(2, 2.0, "x", LockMode.X)  # younger holder
        event = locks.acquire(1, 1.0, "x", LockMode.X)  # older wounds it
        sim.run()
        assert wounded == [2]
        assert locks.stats.wounds == 1
        assert grant_state(event) == "waiting"  # waits for the wounded to die
        locks.release_all(2)
        sim.run()
        assert grant_state(event) == "granted"

    def test_younger_requester_waits_quietly(self, sim):
        wounded = []
        locks = LockManager(
            sim, strategy="wound_wait", wait_timeout=None, on_wound=wounded.append
        )
        locks.acquire(1, 1.0, "x", LockMode.X)  # older holder
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.run()
        assert wounded == []
        assert grant_state(event) == "waiting"

    def test_wounded_waiter_unwound_immediately(self, sim):
        wounded = []
        locks = LockManager(
            sim, strategy="wound_wait", wait_timeout=None, on_wound=wounded.append
        )
        locks.acquire(3, 3.0, "x", LockMode.X)
        young_wait = locks.acquire(2, 2.0, "y", LockMode.X)
        sim.run()
        # txn2 now also holds y... set up: txn2 holds y, waits nowhere.
        # Older txn1 wants y -> wounds txn2 (holder, not waiting here).
        event = locks.acquire(1, 1.0, "y", LockMode.X)
        sim.run()
        assert 2 in wounded


class TestReleaseAndClear:
    def test_release_all_removes_queued_requests(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        assert locks.waiting_count() == 1
        locks.release_all(2)
        assert locks.waiting_count() == 0
        assert locks.held_locks(1) == {"x": "X"}

    def test_clear_fails_waiters(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        locks.clear()
        sim.run()
        assert grant_state(event) == "aborted"
        assert locks.held_locks(1) == {}

    def test_release_unknown_txn_is_noop(self, sim, locks):
        locks.release_all(99)  # must not raise

    def test_wait_time_accounted(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        sim.defer(7, lambda: locks.release_all(1))
        sim.run()
        assert locks.stats.total_wait_time == 7.0


class TestIndexedWalks:
    """Walks over several entries visit them in table (creation) order."""

    def test_release_all_grants_in_table_order(self, sim, locks):
        locks.acquire(2, 2.0, "a", LockMode.S)  # creates "a" first
        locks.acquire(1, 1.0, "b", LockMode.X)
        locks.acquire(1, 1.0, "a", LockMode.S)  # txn 1 reaches "a" after "b"
        fired = []
        locks.acquire(3, 3.0, "a", LockMode.X).add_callback(lambda _ev: fired.append("a"))
        locks.acquire(4, 4.0, "b", LockMode.S).add_callback(lambda _ev: fired.append("b"))
        locks.release_all(2)
        locks.release_all(1)
        sim.run()
        assert fired == ["a", "b"]
        assert locks.held_locks(3) == {"a": "X"}
        assert locks.held_locks(4) == {"b": "S"}

    def test_abort_waiter_grant_pass_covers_every_waiting_entry(self, sim, locks):
        # On "x", txn 3's S request queues behind txn 1's pending upgrade
        # although no holder conflicts with it.
        locks.acquire(1, 1.0, "x", LockMode.S)
        locks.acquire(2, 2.0, "x", LockMode.S)
        locks.acquire(1, 1.0, "x", LockMode.X)
        reader = locks.acquire(3, 3.0, "x", LockMode.S)
        # Txn 4 waits on an unrelated item.
        locks.acquire(5, 5.0, "y", LockMode.X)
        locks.acquire(4, 4.0, "y", LockMode.X)
        sim.run()
        assert grant_state(reader) == "waiting"
        assert locks.abort_waiter(4, "victim")
        sim.run()
        assert grant_state(reader) == "granted"
        assert locks.waiting_count() == 1  # the upgrade still waits for txn 2


class TestRejectedRequestsLeaveNoResidue:
    """A rejected transaction that holds nothing here is forgotten at once.

    No ``release_all`` reaches a site where the transaction holds nothing,
    so the lock manager itself drops its timestamp and index entries.
    """

    @staticmethod
    def known(locks, txn_id):
        return locks.ts_of(txn_id) is not None or txn_id in locks._entries

    def test_wait_die_death(self, sim):
        locks = LockManager(sim, strategy="wait_die", wait_timeout=None)
        locks.acquire(1, 1.0, "x", LockMode.X)
        assert not locks.acquire(2, 2.0, "x", LockMode.X).ok
        assert not self.known(locks, 2)
        assert self.known(locks, 1)

    def test_wait_timeout(self, sim):
        locks = LockManager(sim, strategy="timeout", wait_timeout=10.0)
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        sim.run()
        assert grant_state(event) == "aborted"
        assert not self.known(locks, 2)

    def test_external_victim(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        assert locks.abort_waiter(2, "distributed deadlock victim")
        assert not self.known(locks, 2)

    def test_victim_that_still_holds_a_lock_is_kept(self, sim, locks):
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "y", LockMode.X)
        locks.acquire(1, 1.0, "y", LockMode.X)
        victim = locks.acquire(2, 2.0, "x", LockMode.X)  # closes the cycle
        sim.run()
        assert grant_state(victim) == "aborted"
        assert locks.held_locks(2) == {"y": "X"}
        assert locks.ts_of(2) == 2.0
        locks.release_all(2)
        assert not self.known(locks, 2)

    def test_expired_request_with_another_still_queued_is_kept(self, sim):
        locks = LockManager(sim, strategy="timeout", wait_timeout=5.0)
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(1, 1.0, "y", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)  # expires at 5.0
        sim.run(until=1.0)
        locks.acquire(2, 2.0, "y", LockMode.X)  # expires at 6.0
        sim.run(until=5.5)
        assert locks.ts_of(2) == 2.0  # its request on "y" still waits
        sim.run()
        assert not self.known(locks, 2)
