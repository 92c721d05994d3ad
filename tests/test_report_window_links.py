"""Tests for session reports, windowed statistics, link overrides."""

import random

import pytest

from repro.monitor.report import session_report
from repro.monitor.tracing import ExecutionTracer
from repro.net.latency import ConstantLatency, LinkOverrideLatency, UniformLatency
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance


class TestSessionReport:
    def _session(self):
        instance = quick_instance(n_items=16, settle_time=30)
        instance.config.faults.schedule.crashes.append(("site3", 20.0))
        instance.config.faults.schedule.recoveries.append(("site3", 40.0))
        instance.start()
        tracer = ExecutionTracer(instance.sim)
        tracer.attach_all(instance)
        result = instance.run_workload(
            WorkloadSpec(n_transactions=10, arrival_rate=0.5)
        )
        return instance, result, tracer

    def test_report_contains_all_sections(self):
        instance, result, tracer = self._session()
        report = session_report(instance, result, tracer=tracer)
        assert report.startswith("# Rainbow session report")
        for section in (
            "## Output statistics",
            "## Sites",
            "## Message traffic",
            "## Injected faults",
            "## Global execution history",
        ):
            assert section in report
        assert "one-copy serializable: **True**" in report
        assert "crash site3" in report

    def test_report_without_tracer_or_faults(self):
        instance = quick_instance(n_items=8, settle_time=20)
        result = instance.run_workload(WorkloadSpec(n_transactions=3, arrival_rate=1.0))
        report = session_report(instance, result, title="Lab 1")
        assert report.startswith("# Lab 1")
        assert "## Injected faults" not in report
        assert "## Global execution history" not in report

    def test_report_flags_violations(self):
        import repro.classroom  # noqa: F401
        from repro.core.config import RainbowConfig
        from repro.core.instance import RainbowInstance
        from repro.txn.transaction import Operation, Transaction

        config = RainbowConfig.quick(n_sites=3, n_items=2, seed=2)
        config.protocols.ccp = "NOCC"
        config.settle_time = 40
        instance = RainbowInstance(config)
        instance.start()
        txns = [
            Transaction(ops=[Operation.increment("x1", 1)], home_site=f"site{i+1}")
            for i in range(3)
        ]
        processes = [instance.submit(txn) for txn in txns]
        instance.sim.run(until=instance.sim.all_of(processes))
        instance.sim.run(until=instance.sim.now + 40)
        result = instance.session_result()
        report = session_report(instance, result)
        if not result.serializable:
            assert "Serialization cycle" in report
        if instance.monitor.history.version_collisions():
            assert "Version collisions" in report


class TestWindowedStatistics:
    def test_windows_partition_the_session(self):
        instance = quick_instance(n_items=16, settle_time=40)
        result = instance.run_workload(
            WorkloadSpec(n_transactions=20, arrival_rate=0.5)
        )
        monitor = instance.monitor
        half = instance.sim.now / 2
        first = monitor.window_summary(0.0, half)
        second = monitor.window_summary(half, instance.sim.now + 1)
        total = result.statistics
        assert first["committed"] + second["committed"] == total.committed
        assert first["aborted"] + second["aborted"] == total.aborted

    def test_empty_window_rejected(self, sim, network):
        from repro.monitor.stats import ProgressMonitor

        monitor = ProgressMonitor(sim, network)
        with pytest.raises(ValueError):
            monitor.window_summary(5.0, 5.0)

    def test_window_without_transactions(self, sim, network):
        from repro.monitor.stats import ProgressMonitor

        monitor = ProgressMonitor(sim, network)
        summary = monitor.window_summary(0.0, 10.0)
        assert summary["committed"] == 0
        assert summary["commit_rate"] == 0.0
        assert summary["mean_response_time"] is None

    def test_outage_window_shows_degradation(self):
        instance = quick_instance(n_items=16, settle_time=60)
        instance.config.protocols.op_timeout = 10
        instance.config.protocols.vote_timeout = 8
        instance.config.faults.schedule.crashes.append(("site2", 40.0))
        instance.config.faults.schedule.recoveries.append(("site2", 120.0))
        instance.run_workload(
            WorkloadSpec(n_transactions=60, arrival_rate=0.6, read_fraction=0.4)
        )
        healthy = instance.monitor.window_summary(0.0, 40.0)
        outage = instance.monitor.window_summary(40.0, 120.0)
        assert healthy["commit_rate"] > outage["commit_rate"]


class TestLinkOverrides:
    def test_override_replaces_base_for_pair(self):
        model = LinkOverrideLatency(ConstantLatency(1.0), {("a", "b"): 10.0})
        rng = random.Random(0)
        assert model.delay("a", "b", 1, rng) == 10.0
        assert model.delay("b", "a", 1, rng) == 10.0  # symmetric
        assert model.delay("a", "c", 1, rng) == 1.0

    def test_override_with_model(self):
        slow = UniformLatency(5.0, 6.0)
        model = LinkOverrideLatency(ConstantLatency(1.0), {("a", "b"): slow})
        rng = random.Random(0)
        assert 5.0 <= model.delay("a", "b", 1, rng) <= 6.0

    def test_self_link_override(self):
        model = LinkOverrideLatency(ConstantLatency(1.0), {("a", "a"): 0.0})
        assert model.delay("a", "a", 1, random.Random(0)) == 0.0

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            LinkOverrideLatency(ConstantLatency(1.0), {("a", "b", "c"): 1.0})

    def test_slow_site_visible_in_response_times(self):
        """A site behind a slow link drags quorum operations with it."""
        from repro.core.config import RainbowConfig
        from repro.core.instance import RainbowInstance

        config = RainbowConfig.quick(
            n_sites=3, n_items=6, replication_degree=3, sites_per_host=1, seed=9
        )
        config.settle_time = 40
        fast = RainbowInstance(config)
        fast_result = fast.run_workload(
            WorkloadSpec(n_transactions=10, arrival_rate=0.3)
        )

        config2 = RainbowConfig.quick(
            n_sites=3, n_items=6, replication_degree=3, sites_per_host=1, seed=9
        )
        config2.settle_time = 40
        slow = RainbowInstance(config2)
        slow.network.latency = LinkOverrideLatency(
            slow.network.latency, {("host1", "host2"): 15.0}
        )
        slow_result = slow.run_workload(
            WorkloadSpec(n_transactions=10, arrival_rate=0.3)
        )
        assert (
            slow_result.statistics.mean_response_time
            > fast_result.statistics.mean_response_time
        )
