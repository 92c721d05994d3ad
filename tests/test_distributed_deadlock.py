"""Tests for distributed deadlock detection (CMH edge chasing)."""

import pytest

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.site.deadlock import ProbeTypes
from repro.txn.transaction import Operation, Transaction


def build_instance(*, probes=True, wait_timeout=None, seed=1, local_detection=True):
    config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3, seed=seed)
    config.distributed_deadlock = probes
    config.probe_interval = 5.0
    ccp_options = {"wait_timeout": wait_timeout}
    if not local_detection:
        # "timeout" disables the local wait-for graph; with a huge timeout
        # only the probe protocol can break cycles inside the test window.
        ccp_options = {"deadlock_strategy": "timeout", "wait_timeout": 10_000.0}
    config.protocols.ccp_options = ccp_options
    config.settle_time = 30.0
    # Constant latency makes the conflicting interleaving deterministic:
    # both writers take their local lock before the remote request lands.
    config.network.latency = "constant"
    config.network.latency_params = {"value": 1.0}
    instance = RainbowInstance(config)
    instance.start()
    return instance


def cross_site_deadlock(instance):
    """Two writers locking x1/x5 in opposite orders from different homes."""
    t1 = Transaction(
        ops=[Operation.write("x1", 1), Operation.write("x5", 1)], home_site="site1"
    )
    t2 = Transaction(
        ops=[Operation.write("x5", 2), Operation.write("x1", 2)], home_site="site2"
    )
    p1, p2 = instance.submit(t1), instance.submit(t2)
    instance.sim.run(until=instance.sim.all_of([p1, p2]))
    instance.sim.run(until=instance.sim.now + 60)
    return t1, t2


class TestDetection:
    def test_cross_site_cycle_broken_without_timeouts(self):
        instance = build_instance(probes=True, wait_timeout=None)
        t1, t2 = cross_site_deadlock(instance)
        outcomes = {t1.status, t2.status}
        assert outcomes == {"COMMITTED", "ABORTED"}
        victim = t1 if t1.aborted else t2
        assert victim.abort_cause == "CCP"
        assert "deadlock" in victim.abort_detail

    def test_probe_messages_flow_on_network(self):
        instance = build_instance(probes=True, local_detection=False)
        t1, t2 = cross_site_deadlock(instance)
        assert {t1.status, t2.status} == {"COMMITTED", "ABORTED"}
        by_type = instance.network.stats.by_type
        assert by_type.get(ProbeTypes.PROBE_HOME, 0) >= 1
        # The victim notification travelled (over the network or locally).
        total_victim_msgs = by_type.get(ProbeTypes.VICTIM_HOME, 0) + by_type.get(
            ProbeTypes.ABORT_WAIT, 0
        )
        victims = sum(
            site.deadlock_detector.stats.victims_aborted
            for site in instance.sites.values()
        )
        assert victims >= 1
        assert total_victim_msgs >= 0  # may be fully local; victims prove it ran

    def test_cycle_found_and_victim_counted(self):
        instance = build_instance(probes=True, wait_timeout=None)
        cross_site_deadlock(instance)
        cycles = sum(
            site.deadlock_detector.stats.cycles_found
            for site in instance.sites.values()
        )
        victims = sum(
            site.deadlock_detector.stats.victims_aborted
            for site in instance.sites.values()
        )
        assert cycles >= 1
        assert victims >= 1

    def test_without_probes_and_timeouts_deadlock_persists(self):
        """Negative control: nothing breaks the cycle, both txns hang."""
        instance = build_instance(probes=False, local_detection=False)
        t1 = Transaction(
            ops=[Operation.write("x1", 1), Operation.write("x5", 1)], home_site="site1"
        )
        t2 = Transaction(
            ops=[Operation.write("x5", 2), Operation.write("x1", 2)], home_site="site2"
        )
        instance.submit(t1)
        instance.submit(t2)
        instance.sim.run(until=instance.sim.now + 120)
        # Neither finished: the deadlock is real and unbroken.  (The op
        # timeout would eventually fire at 90; stay below it.)
        assert t1.status == "RUNNING"
        assert t2.status == "RUNNING"

    def test_history_serializable_after_detection(self):
        instance = build_instance(probes=True, wait_timeout=None)
        cross_site_deadlock(instance)
        ok, _witness = instance.monitor.history.check_serializable()
        assert ok

    def test_no_false_positives_without_conflicts(self):
        instance = build_instance(probes=True, wait_timeout=None)
        txns = [
            Transaction(ops=[Operation.write(f"x{i + 1}", i)], home_site="site1")
            for i in range(4)
        ]
        processes = [instance.submit(txn) for txn in txns]
        instance.sim.run(until=instance.sim.all_of(processes))
        assert all(txn.committed for txn in txns)
        victims = sum(
            site.deadlock_detector.stats.victims_aborted
            for site in instance.sites.values()
        )
        assert victims == 0


class TestOneDeadlockOneReport:
    def test_cycle_confirmed_once_and_its_victim_aborted_once(self):
        """Both ends block, and the victim waits at two sites: still one report."""
        instance = build_instance(probes=True, local_detection=False)
        t1, t2 = cross_site_deadlock(instance)
        assert (t1.status, t2.status) == ("COMMITTED", "ABORTED")  # T2 is younger
        stats = [site.deadlock_detector.stats for site in instance.sites.values()]
        assert sum(stat.cycles_found for stat in stats) == 1
        assert sum(stat.victims_aborted for stat in stats) == 1
        by_type = instance.network.stats.by_type
        assert by_type.get(ProbeTypes.VICTIM_HOME, 0) == 1
        assert by_type.get(ProbeTypes.ABORT_WAIT, 0) == 1


class TestWorkloadWithProbes:
    def test_contended_workload_completes_and_serializes(self):
        from repro.workload.spec import WorkloadSpec

        instance = build_instance(probes=True, wait_timeout=None, seed=9)
        result = instance.run_workload(
            WorkloadSpec(
                n_transactions=30, arrival="closed", mpl=6,
                min_ops=3, max_ops=5, read_fraction=0.4,
            )
        )
        assert result.statistics.finished == 30
        assert result.statistics.committed > 0
        assert result.serializable is True

    def test_config_roundtrip_keeps_flag(self):
        config = RainbowConfig.quick(n_sites=2, n_items=4)
        config.distributed_deadlock = True
        config.probe_interval = 7.5
        clone = RainbowConfig.from_dict(config.to_dict())
        assert clone.distributed_deadlock is True
        assert clone.probe_interval == 7.5


class TestLockManagerHooks:
    def test_waiting_info_reports_blockers(self, sim):
        from repro.site.locks import LockManager, LockMode

        locks = LockManager(sim, wait_timeout=None)
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        info = locks.waiting_info()
        assert len(info) == 1
        txn, ts, item, blockers, _since = info[0]
        assert (txn, item, blockers) == (2, "x", {1})

    def test_blockers_of(self, sim):
        from repro.site.locks import LockManager, LockMode

        locks = LockManager(sim, wait_timeout=None)
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        assert locks.blockers_of(2) == {1}
        assert locks.blockers_of(1) == set()

    def test_abort_waiter_public(self, sim):
        from repro.errors import ConcurrencyAbort
        from repro.site.locks import LockManager, LockMode

        locks = LockManager(sim, wait_timeout=None)
        locks.acquire(1, 1.0, "x", LockMode.X)
        event = locks.acquire(2, 2.0, "x", LockMode.X)
        assert locks.abort_waiter(2, reason="external") is True
        sim.run()
        assert event.triggered and not event.ok
        assert locks.abort_waiter(2, reason="again") is False

    def test_on_block_hook_fires(self, sim):
        from repro.site.locks import LockManager, LockMode

        seen = []
        locks = LockManager(
            sim, wait_timeout=None,
            on_block=lambda txn, ts, blockers: seen.append((txn, blockers)),
        )
        locks.acquire(1, 1.0, "x", LockMode.X)
        locks.acquire(2, 2.0, "x", LockMode.X)
        assert seen == [(2, {1})]
