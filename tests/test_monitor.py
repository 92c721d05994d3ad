"""Unit tests for the progress monitor and its output statistics."""

import pytest

from repro.monitor.stats import ProgressMonitor
from repro.txn.transaction import Operation, Transaction, TxnStatus
from tests.conftest import quick_instance


def finished_txn(home="site1", status=TxnStatus.COMMITTED, cause=None,
                 submitted=0.0, decided=5.0, reads=None, writes=None):
    txn = Transaction(
        ops=[Operation.read("x1"), Operation.write("x2", 1)], home_site=home
    )
    txn.status = status
    txn.abort_cause = cause
    txn.submitted_at = submitted
    txn.decided_at = decided
    txn.read_versions = dict(reads or {})
    txn.write_versions = dict(writes or {})
    return txn


class TestEventIntake:
    def test_commit_counted_with_response_time(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        txn = finished_txn()
        monitor.txn_submitted(txn)
        monitor.txn_finished(txn)
        assert monitor.committed == 1
        stats = monitor.output_statistics()
        assert stats.committed == 1
        assert stats.mean_response_time == pytest.approx(5.0)

    def test_abort_counted_by_cause(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        for cause in ("CCP", "CCP", "RCP", "ACP", "SYSTEM"):
            monitor.txn_finished(finished_txn(status=TxnStatus.ABORTED, cause=cause))
        stats = monitor.output_statistics()
        assert stats.aborted == 5
        assert stats.aborts_by_cause == {"CCP": 2, "RCP": 1, "ACP": 1, "SYSTEM": 1}
        assert stats.abort_rates_by_cause["CCP"] == pytest.approx(0.4)

    def test_commit_rate_and_abort_rate_sum_to_one(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        monitor.txn_finished(finished_txn())
        monitor.txn_finished(finished_txn(status=TxnStatus.ABORTED, cause="CCP"))
        stats = monitor.output_statistics()
        assert stats.commit_rate + stats.abort_rate == pytest.approx(1.0)

    def test_history_records_committed_only(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        monitor.txn_finished(finished_txn(reads={"x1": 0}, writes={"x2": 1}))
        monitor.txn_finished(finished_txn(status=TxnStatus.ABORTED, cause="CCP"))
        assert len(monitor.history) == 1

    def test_records_include_op_counts(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        monitor.txn_finished(finished_txn())
        record = monitor.records[0]
        assert record.n_ops == 2
        assert record.n_reads == 1
        assert record.n_writes == 1


class TestStatisticsBlock:
    def test_empty_session_safe(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        stats = monitor.output_statistics()
        assert stats.committed == 0
        assert stats.commit_rate == 0
        assert stats.mean_response_time is None
        assert stats.p95_response_time is None

    def test_message_rates_from_network(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        monitor = ProgressMonitor(sim, network)
        a.send(b.address, "X")
        a.send(b.address, "Y")
        sim.run()
        sim.timeout(10)
        sim.run()
        stats = monitor.output_statistics()
        assert stats.messages_total == 2
        assert stats.messages_by_type == {"X": 1, "Y": 1}

    def test_imbalance_zero_for_uniform(self, sim, network):
        assert ProgressMonitor._imbalance([5, 5, 5, 5]) == 0.0

    def test_imbalance_positive_for_skew(self, sim, network):
        assert ProgressMonitor._imbalance([10, 0, 0, 0]) > 1.0

    def test_imbalance_degenerate_cases(self, sim, network):
        assert ProgressMonitor._imbalance([]) == 0.0
        assert ProgressMonitor._imbalance([3]) == 0.0
        assert ProgressMonitor._imbalance([0, 0]) == 0.0

    def test_p95_and_median(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        for rt in range(1, 101):
            monitor.txn_finished(finished_txn(submitted=0.0, decided=float(rt)))
        stats = monitor.output_statistics()
        assert stats.median_response_time == pytest.approx(50.5)
        assert stats.p95_response_time == 96.0

    def test_as_rows_contains_paper_statistics(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        rows = dict(monitor.output_statistics().as_rows())
        for label in (
            "Committed transactions",
            "  aborts due to RCP",
            "  aborts due to CCP",
            "  aborts due to ACP",
            "Commit rate",
            "Throughput (commits/time)",
            "Messages per time unit",
            "Round-trip messages",
            "Mean response time",
            "Orphan transactions (now)",
            "Load imbalance (CV of home txns)",
        ):
            assert label in rows


class TestSampling:
    def test_sampler_collects_series(self):
        instance = quick_instance(n_items=16, sample_interval=10.0, settle_time=30)
        from repro.workload.spec import WorkloadSpec

        instance.run_workload(WorkloadSpec(n_transactions=10, arrival_rate=0.5))
        series = instance.monitor.series
        assert len(series["t"]) >= 3
        assert len(series["t"]) == len(series["committed"]) == len(series["messages"])
        # Cumulative counters never decrease.
        assert all(a <= b for a, b in zip(series["committed"], series["committed"][1:]))
        assert all(a <= b for a, b in zip(series["messages"], series["messages"][1:]))

    def test_manual_sample(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        monitor.sample()
        assert monitor.series["t"] == [0.0]


class TestInstanceLevelStatistics:
    def test_site_populated_fields(self):
        instance = quick_instance(n_items=16, settle_time=30)
        from repro.workload.spec import WorkloadSpec

        result = instance.run_workload(WorkloadSpec(n_transactions=8, arrival_rate=0.5))
        stats = result.statistics
        assert set(stats.home_txns_by_site) == {"site1", "site2", "site3", "site4"}
        assert sum(stats.home_txns_by_site.values()) == 8
        assert stats.round_trips > 0
        assert stats.elapsed > 0

    def test_no_message_counter_outlives_its_transaction(self):
        from repro.workload.spec import WorkloadSpec

        instance = quick_instance(n_items=16, settle_time=60)
        result = instance.run_workload(WorkloadSpec(n_transactions=40, arrival_rate=0.5))
        assert result.statistics.finished == 40
        assert result.statistics.mean_messages_per_txn > 0
        # The TXN_RESULT reply and later decision traffic come after
        # txn_finished; they must not re-create the popped counter.
        assert instance.monitor._txn_messages == {}


class TestStatisticsExportRoundTrip:
    """statistics_to_json must preserve every counter a session can set."""

    ROUND_TRIP_FIELDS = (
        "messages_dropped", "messages_lost_random", "messages_duplicated",
        "round_trips_saved", "batched_ops", "orphaned_txns",
    )

    def stats_with_extras(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        monitor.txn_submitted(finished_txn())
        monitor.txn_finished(finished_txn())
        stats = monitor.output_statistics()
        for index, field in enumerate(self.ROUND_TRIP_FIELDS, start=1):
            setattr(stats, field, index)
        stats.phase_breakdown = {
            "lock_wait": {"mean_per_txn": 1.5, "max_per_txn": 4.0},
            "network": {"mean_per_txn": 0.25, "max_per_txn": 0.75},
        }
        return stats

    def test_json_round_trip_preserves_counters(self, sim, network):
        import json

        from repro.monitor.export import statistics_to_json

        stats = self.stats_with_extras(sim, network)
        loaded = json.loads(statistics_to_json(stats))
        for field in self.ROUND_TRIP_FIELDS:
            assert loaded[field] == getattr(stats, field), field
        assert loaded["phase_breakdown"] == stats.phase_breakdown
        assert loaded["committed"] == 1

    def test_json_round_trip_writes_file(self, sim, network, tmp_path):
        import json

        from repro.monitor.export import statistics_to_json

        stats = self.stats_with_extras(sim, network)
        target = tmp_path / "stats.json"
        statistics_to_json(stats, target)
        assert json.loads(target.read_text()) == json.loads(
            statistics_to_json(stats)
        )


class TestOrphanedTxnStatistic:
    def test_orphaned_abort_counted(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        orphan = finished_txn(status=TxnStatus.ABORTED, cause="SYSTEM")
        orphan.orphaned = True
        monitor.txn_finished(orphan)
        monitor.txn_finished(finished_txn(status=TxnStatus.ABORTED, cause="CCP"))
        stats = monitor.output_statistics()
        assert stats.orphaned_txns == 1

    def test_panel_row_only_when_nonzero(self, sim, network):
        monitor = ProgressMonitor(sim, network)
        monitor.txn_finished(finished_txn())
        stats = monitor.output_statistics()
        labels = [label for label, _value in stats.as_rows()]
        assert "Orphaned transactions (dead coordinator)" not in labels
        assert "Per-phase latency (mean/max per txn)" not in labels
        stats.orphaned_txns = 2
        stats.phase_breakdown = {
            "vote": {"mean_per_txn": 1.0, "max_per_txn": 2.0}
        }
        rows = dict(stats.as_rows())
        assert rows["Orphaned transactions (dead coordinator)"] == "2"
        assert rows["  vote"] == "1.000 / 2.000"
