"""Unit/integration tests for RainbowInstance bring-up and sessions."""

from collections import Counter

import pytest

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.errors import ConfigurationError
from repro.experiments.common import build_instance
from repro.nameserver.catalog import Catalog
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance


class TestBringUp:
    def test_sites_and_nameserver_created(self):
        instance = quick_instance(n_sites=3, n_items=6)
        assert sorted(instance.sites) == ["site1", "site2", "site3"]
        assert instance.nameserver.site_names() == ["site1", "site2", "site3"]
        assert set(instance.directory.values()) == {
            site.address for site in instance.sites.values()
        }

    def test_copies_installed_per_catalog(self):
        instance = quick_instance(n_sites=3, n_items=6, replication_degree=2)
        for item in instance.catalog.item_names():
            holders = instance.catalog.sites_holding(item)
            for name, site in instance.sites.items():
                assert site.store.has_copy(item) == (name in holders)

    def test_invalid_config_rejected_at_construction(self):
        config = RainbowConfig()  # no sites
        with pytest.raises(ConfigurationError):
            RainbowInstance(config)

    def test_start_bootstraps_directory_via_ns_messages(self):
        instance = quick_instance(n_sites=2, n_items=4)
        instance.start()
        assert instance.network.stats.by_type.get("NS_LOOKUP", 0) == 2
        assert instance.network.stats.by_type.get("NS_CATALOG", 0) == 2
        for site in instance.sites.values():
            assert site.directory == instance.directory
            assert site.catalog is instance.catalog

    def test_start_idempotent(self):
        instance = quick_instance(n_sites=2, n_items=4)
        instance.start()
        t = instance.sim.now
        instance.start()
        assert instance.sim.now == t

    def test_bootstrap_survives_crashed_nameserver(self):
        instance = quick_instance(n_sites=2, n_items=4)
        instance.nameserver.crash()
        instance.start()  # falls back to administrator copies
        for site in instance.sites.values():
            assert site.directory == instance.directory

    def test_fault_plan_applied_on_start(self):
        instance = quick_instance(n_sites=2, n_items=4, settle_time=5)
        instance.config.faults.schedule.crashes.append(("site2", 10.0))
        instance.start()
        instance.sim.run(until=15)
        assert not instance.sites["site2"].up


class TestOneSchema:
    """The schema is materialised once per instance; every site shares it."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        """Count Catalog.from_dict and Catalog.to_dict calls."""
        calls = Counter()
        from_dict, to_dict = Catalog.from_dict.__func__, Catalog.to_dict

        def counting_from_dict(cls, data):
            calls["from_dict"] += 1
            return from_dict(cls, data)

        def counting_to_dict(self):
            calls["to_dict"] += 1
            return to_dict(self)

        monkeypatch.setattr(Catalog, "from_dict", classmethod(counting_from_dict))
        monkeypatch.setattr(Catalog, "to_dict", counting_to_dict)
        return calls

    def test_one_from_dict_per_instance_and_none_per_site(self, conversions):
        instance = build_instance(8, 24, 3, seed=3)
        sent = Counter()
        instance.network.subscribers.append(
            lambda msg, _outcome: sent.update([(msg.mtype, msg.size)])
        )
        instance.start()
        # RainbowConfig.quick serialises the schema it builds; bring-up
        # then materialises it once, for validation and the name server.
        assert conversions == {"to_dict": 1, "from_dict": 1}
        assert all(site.catalog is instance.catalog for site in instance.sites.values())
        assert instance.nameserver.catalog is instance.catalog
        # The bootstrap traffic is priced as before: one lookup and one
        # schema request per site, replies sized by sites and by items.
        assert sent == {
            ("NS_LOOKUP", 1): 8,
            ("NS_CATALOG", 1): 8,
            ("NS_REPLY", 8): 8,
            ("NS_REPLY", 24): 8,
        }

    def test_unreachable_nameserver_shares_the_same_schema(self, conversions):
        instance = build_instance(4, 12, 3, seed=3)
        instance.nameserver.crash()
        instance.start()
        assert conversions["from_dict"] == 1
        assert all(site.catalog is instance.catalog for site in instance.sites.values())


class TestDirectSubmission:
    def test_submit_runs_transaction(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.write("x1", 3)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.committed
        assert instance.monitor.submitted == 1

    def test_submit_unknown_home_rejected(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="ghost")
        with pytest.raises(ConfigurationError):
            instance.submit(txn)

    def test_run_transactions_batch(self):
        instance = quick_instance(n_items=16, settle_time=20)
        txns = [
            Transaction(ops=[Operation.write(f"x{i+1}", i)], home_site="site1")
            for i in range(5)
        ]
        result = instance.run_transactions(txns)
        assert result.statistics.finished == 5
        assert all(txn.committed for txn in txns)


class TestSessions:
    def test_run_workload_produces_result(self):
        instance = quick_instance(n_items=16, settle_time=20)
        result = instance.run_workload(WorkloadSpec(n_transactions=8, arrival_rate=0.5))
        assert result.statistics.finished == 8
        assert result.serializable is True
        assert result.duration > 0
        assert result.committed + result.aborted == 8

    def test_two_sessions_accumulate(self):
        instance = quick_instance(n_items=16, settle_time=20)
        instance.run_workload(WorkloadSpec(n_transactions=5, arrival_rate=0.5))
        result = instance.run_workload(WorkloadSpec(n_transactions=5, arrival_rate=0.5))
        assert result.statistics.finished == 10

    def test_settle_time_respected(self):
        instance = quick_instance(n_items=8, settle_time=50)
        t_before = instance.sim.now
        instance.run_workload(WorkloadSpec(n_transactions=1, arrival_rate=1.0))
        assert instance.sim.now >= t_before + 50

    def test_session_result_contains_fault_log(self):
        instance = quick_instance(n_items=8, settle_time=10)
        instance.config.faults.schedule.crashes.append(("site2", 5.0))
        instance.config.faults.schedule.recoveries.append(("site2", 8.0))
        result = instance.run_workload(WorkloadSpec(n_transactions=2, arrival_rate=0.5))
        kinds = [event.kind for event in result.fault_log]
        assert kinds == ["crash", "recover"]

    def test_seed_reproducibility(self):
        def run(seed):
            instance = quick_instance(n_items=16, seed=seed, settle_time=20)
            result = instance.run_workload(
                WorkloadSpec(n_transactions=10, arrival_rate=0.5)
            )
            stats = result.statistics
            return (
                stats.committed,
                stats.messages_total,
                stats.mean_response_time,
                [o.status for o in result.outcomes],
            )

        assert run(5) == run(5)
        assert run(5) != run(6) or run(5)[1] != run(6)[1]
