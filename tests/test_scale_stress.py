"""Scale/stress tests: larger sessions still correct and fast enough."""

import time

import pytest

from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance


@pytest.mark.slow
class TestScaleStress:
    def test_500_txn_session_serializable(self):
        """A laptop-scale 'big' session: 8 sites, 500 transactions."""
        instance = quick_instance(
            n_sites=8, n_items=128, replication_degree=3, seed=99, settle_time=80
        )
        started = time.perf_counter()
        result = instance.run_workload(
            WorkloadSpec(
                n_transactions=500, arrival="poisson", arrival_rate=1.0,
                min_ops=2, max_ops=5, read_fraction=0.7, increment_fraction=0.3,
            )
        )
        elapsed = time.perf_counter() - started
        stats = result.statistics
        assert stats.finished == 500
        assert stats.commit_rate > 0.7
        assert result.serializable is True
        assert instance.monitor.history.version_collisions() == []
        # No leaked state anywhere at the end.
        for site in instance.sites.values():
            assert site.cc.active_transactions() == set()
            assert site.in_doubt_count() == 0
        # Performance envelope: the whole session simulates in seconds.
        assert elapsed < 60, f"500-txn session took {elapsed:.1f}s"

    def test_long_lived_instance_many_sessions(self):
        """Ten consecutive sessions on one instance stay consistent."""
        instance = quick_instance(
            n_sites=4, n_items=32, replication_degree=3, seed=5, settle_time=30
        )
        for _session in range(10):
            result = instance.run_workload(
                WorkloadSpec(n_transactions=15, arrival_rate=1.0,
                             min_ops=2, max_ops=4)
            )
            assert result.serializable is True
        assert instance.monitor.output_statistics().finished == 150
        ok, _witness = instance.monitor.history.check_serializable()
        assert ok

    def test_heavy_fault_churn_stays_consistent(self):
        """Aggressive random crash/recover across a whole session."""
        instance = quick_instance(
            n_sites=5, n_items=40, replication_degree=5, seed=31, settle_time=100
        )
        instance.config.protocols.op_timeout = 12
        instance.config.protocols.vote_timeout = 10
        instance.config.protocols.ack_timeout = 8
        instance.config.uncertainty_timeout = 25.0
        instance.config.decision_retry = 10.0
        instance.config.faults.random_targets = instance.config.site_names()
        instance.config.faults.mttf = 120.0
        instance.config.faults.mttr = 30.0
        instance.config.faults.horizon = 500.0
        result = instance.run_workload(
            WorkloadSpec(n_transactions=100, arrival_rate=0.4,
                         min_ops=2, max_ops=4, read_fraction=0.5)
        )
        # Transactions submitted to a crashed home site never start: the
        # WLG reports them LOST.  Everything is accounted for either way.
        lost = sum(1 for outcome in result.outcomes if outcome.status == "LOST")
        assert result.statistics.finished + lost >= 100
        assert result.statistics.finished >= 80
        assert instance.injector.crash_count() >= 5
        assert result.serializable is True
        assert instance.monitor.history.reads_see_committed_versions() == []
        # After the horizon everything heals and drains.
        instance.sim.run(until=instance.sim.now + 300)
        assert all(site.up for site in instance.sites.values())
        assert all(
            site.in_doubt_count() == 0 for site in instance.sites.values()
        )
