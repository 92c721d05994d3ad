"""Tests for the available-copies RCP (ROWAA) and network queueing."""

import pytest

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.protocols.base import rcp_registry
from repro.sim.kernel import Simulator
from repro.txn.transaction import Operation, Transaction
from tests.conftest import quick_instance


def run_txn(instance, txn):
    process = instance.submit(txn)
    instance.sim.run(until=process)
    return txn


class TestAvailableCopies:
    def test_registered(self):
        assert "ROWAA" in rcp_registry()

    def test_writes_all_copies_when_healthy(self):
        instance = quick_instance(rcp="ROWAA", n_items=8)
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        )
        assert txn.committed
        for name in instance.catalog.sites_holding("x1"):
            assert instance.sites[name].store.read("x1") == (9, 1)

    def test_write_survives_crashed_copy_holder(self):
        """The availability win over ROWA."""
        instance = quick_instance(rcp="ROWAA", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 10
        instance.start()
        instance.injector.crash_now("site3")
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        )
        assert txn.committed
        # The two surviving copies took the write.
        live = [
            name for name in instance.catalog.sites_holding("x1") if name != "site3"
        ]
        for name in live:
            assert instance.sites[name].store.read("x1")[0] == 9

    def test_write_fails_only_when_no_copy_reachable(self):
        instance = quick_instance(rcp="ROWAA", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 8
        instance.start()
        # x2 lives on sites 2..4; crash all of them.
        for name in ("site2", "site3", "site4"):
            instance.injector.crash_now(name)
        txn = run_txn(
            instance, Transaction(ops=[Operation.write("x2", 9)], home_site="site1")
        )
        assert txn.aborted
        assert txn.abort_cause == "RCP"

    def test_partition_anomaly_demonstrated(self):
        """ROWAA without validation is NOT partition-safe — by design.

        Both sides of a partition write their reachable copies of x1; the
        history checker's version-collision detector flags the conflict.
        """
        config = RainbowConfig.quick(
            n_sites=4, n_items=8, replication_degree=3, sites_per_host=1, seed=5
        )
        config.protocols.rcp = "ROWAA"
        config.protocols.op_timeout = 8
        config.settle_time = 20
        instance = RainbowInstance(config)
        instance.start()
        # x1 lives on sites 1-3 (hosts 1-3); split host1 from hosts 2-4.
        instance.network.partition([["host1"], ["host2", "host3", "host4"]])
        t1 = Transaction(ops=[Operation.write("x1", 111)], home_site="site1")
        t2 = Transaction(ops=[Operation.write("x1", 222)], home_site="site2")
        p1, p2 = instance.submit(t1), instance.submit(t2)
        instance.sim.run(until=instance.sim.all_of([p1, p2]))
        assert t1.committed and t2.committed  # both sides "succeeded"
        collisions = instance.monitor.history.version_collisions()
        assert collisions  # ...and the checker catches the divergence
        instance.network.heal_partition()

    def test_fail_stop_session_serializable(self):
        from repro.workload.spec import WorkloadSpec

        instance = quick_instance(rcp="ROWAA", n_items=24, settle_time=60)
        instance.config.protocols.op_timeout = 12
        instance.config.faults.schedule.crashes.append(("site2", 30.0))
        instance.config.faults.schedule.recoveries.append(("site2", 90.0))
        result = instance.run_workload(
            WorkloadSpec(n_transactions=30, arrival_rate=0.4, read_fraction=0.5)
        )
        assert result.serializable is True


class TestHostQueueing:
    def test_burst_to_one_host_queues(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(1.0), host_service_time=0.5)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        arrivals = []
        b.serve(lambda _msg: arrivals.append(sim.now))
        for _ in range(4):
            a.send(b.address, "X")
        sim.run(until=20)
        # First message: latency 1 + service 0.5; then spaced by 0.5 each.
        assert arrivals == [1.5, 2.0, 2.5, 3.0]
        assert network.stats.queueing_delay_total > 0

    def test_different_hosts_do_not_queue_on_each_other(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(1.0), host_service_time=0.5)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        c = network.endpoint("h3", "c")
        times = {}
        b.serve(lambda _msg: times.setdefault("b", sim.now))
        c.serve(lambda _msg: times.setdefault("c", sim.now))
        a.send(b.address, "X")
        a.send(c.address, "X")
        sim.run(until=10)
        assert times == {"b": 1.5, "c": 1.5}

    def test_size_scales_service_time(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(1.0), host_service_time=0.5)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        arrivals = []
        b.serve(lambda _msg: arrivals.append(sim.now))
        a.send(b.address, "BIG", size=4)
        sim.run(until=10)
        assert arrivals == [3.0]  # 1 latency + 4 * 0.5 service

    def test_zero_service_time_disables_queueing(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(1.0), host_service_time=0.0)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        for _ in range(3):
            a.send(b.address, "X")
        sim.run()
        assert network.stats.queueing_delay_total == 0.0
        assert b.pending_count() == 3

    def test_negative_service_time_rejected(self):
        with pytest.raises(Exception):
            Network(Simulator(), host_service_time=-1)

    def test_config_plumbs_service_time(self):
        config = RainbowConfig.quick(n_sites=2, n_items=4)
        config.network.host_service_time = 0.25
        instance = RainbowInstance(config)
        assert instance.network.host_service_time == 0.25

    def test_session_runs_under_queueing(self):
        from repro.workload.spec import WorkloadSpec

        config = RainbowConfig.quick(n_sites=3, n_items=12, seed=4)
        config.network.host_service_time = 0.1
        config.settle_time = 40
        instance = RainbowInstance(config)
        result = instance.run_workload(
            WorkloadSpec(n_transactions=15, arrival_rate=0.5)
        )
        assert result.statistics.finished == 15
        assert result.serializable is True
        assert instance.network.stats.queueing_delay_total > 0
