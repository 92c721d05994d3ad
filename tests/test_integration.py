"""End-to-end integration tests across the full protocol matrix."""

import pytest

from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance

RCPS = ["ROWA", "QC"]
CCPS = ["2PL", "TSO", "MVTO"]
ACPS = ["2PC", "3PC"]


class TestProtocolMatrix:
    @pytest.mark.parametrize("rcp", RCPS)
    @pytest.mark.parametrize("ccp", CCPS)
    @pytest.mark.parametrize("acp", ACPS)
    def test_every_combination_runs_and_serializes(self, rcp, ccp, acp):
        instance = quick_instance(
            n_sites=4, n_items=24, rcp=rcp, ccp=ccp, acp=acp, seed=13, settle_time=60
        )
        spec = WorkloadSpec(
            n_transactions=25, arrival="poisson", arrival_rate=0.5,
            min_ops=2, max_ops=5, read_fraction=0.6,
        )
        result = instance.run_workload(spec)
        stats = result.statistics
        assert stats.finished == 25
        assert stats.committed > 0
        assert result.serializable is True
        assert instance.monitor.history.reads_see_committed_versions() == []
        # Everything cleaned up: no leftover locks/workspaces/orphans.
        for site in instance.sites.values():
            assert site.cc.active_transactions() == set()
            assert site.in_doubt_count() == 0

    @pytest.mark.parametrize("ccp", CCPS)
    def test_contended_counter_serializes(self, ccp):
        """Many read-modify-write txns on one item: the acid test for CCP."""
        instance = quick_instance(
            n_sites=3, n_items=2, ccp=ccp, seed=3, settle_time=60
        )
        instance.start()
        txns = []
        for index in range(12):
            txn = Transaction(
                ops=[Operation.read("x1"), Operation.write("x1", index + 100)],
                home_site=f"site{(index % 3) + 1}",
            )
            txns.append(txn)
        processes = [instance.submit(txn) for txn in txns]
        instance.sim.run(until=instance.sim.all_of(processes))
        instance.sim.run(until=instance.sim.now + 60)
        ok, _witness = instance.monitor.history.check_serializable()
        assert ok
        committed = [txn for txn in txns if txn.committed]
        assert committed  # at least some must make it
        # The final committed value must be the write of some committed txn
        # at the highest installed version.
        values = {
            instance.sites[name].store.read("x1")
            for name in instance.catalog.sites_holding("x1")
            if instance.sites[name].store.has_copy("x1")
        }
        top_value, top_version = max(values, key=lambda pair: pair[1])
        assert top_value in {txn.ops[1].value for txn in committed}


class TestReplicationConsistency:
    def test_qc_sequential_writers_never_lose_updates(self):
        instance = quick_instance(n_sites=5, n_items=4, seed=7, settle_time=30)
        instance.start()
        last_committed = None
        for index in range(10):
            txn = Transaction(
                ops=[Operation.write("x1", index)],
                home_site=f"site{(index % 5) + 1}",
            )
            process = instance.submit(txn)
            instance.sim.run(until=process)
            if txn.committed:
                last_committed = index
                # A subsequent read from any site must see this value.
                reader = Transaction(
                    ops=[Operation.read("x1")],
                    home_site=f"site{((index + 2) % 5) + 1}",
                )
                read_process = instance.submit(reader)
                instance.sim.run(until=read_process)
                assert reader.committed
                assert reader.reads["x1"] == index
        assert last_committed is not None

    def test_rowa_all_copies_identical_after_session(self):
        instance = quick_instance(rcp="ROWA", n_sites=4, n_items=12, settle_time=60)
        result = instance.run_workload(
            WorkloadSpec(n_transactions=30, arrival_rate=0.5, read_fraction=0.4)
        )
        assert result.serializable
        for item in instance.catalog.item_names():
            copies = {
                instance.sites[name].store.read(item)
                for name in instance.catalog.sites_holding(item)
            }
            assert len(copies) == 1  # value AND version identical everywhere


class TestFaultScenarios:
    def test_site_crash_mid_session_keeps_history_serializable(self):
        instance = quick_instance(n_items=24, settle_time=80)
        instance.config.protocols.op_timeout = 12
        instance.config.protocols.vote_timeout = 10
        instance.config.faults.schedule.crashes.append(("site2", 30.0))
        instance.config.faults.schedule.recoveries.append(("site2", 90.0))
        result = instance.run_workload(
            WorkloadSpec(n_transactions=40, arrival_rate=0.5, read_fraction=0.5)
        )
        assert result.serializable is True
        assert instance.sites["site2"].stats.recoveries == 1

    def test_nameserver_crash_after_bootstrap_harmless(self):
        instance = quick_instance(n_items=8, settle_time=20)
        instance.start()
        instance.nameserver.crash()
        result = instance.run_workload(
            WorkloadSpec(n_transactions=10, arrival_rate=0.5)
        )
        assert result.statistics.committed > 0

    def test_lossy_network_still_serializable(self):
        instance = quick_instance(n_items=24, settle_time=80)
        instance.network.loss_rate = 0.03
        instance.config.protocols.op_timeout = 15
        instance.config.protocols.vote_timeout = 12
        result = instance.run_workload(
            WorkloadSpec(n_transactions=30, arrival_rate=0.4, read_fraction=0.6)
        )
        assert result.serializable is True

    def test_repeated_crash_recover_cycles(self):
        instance = quick_instance(n_items=16, settle_time=60)
        instance.config.protocols.op_timeout = 10
        instance.config.protocols.vote_timeout = 8
        for time in (20.0, 60.0, 100.0):
            instance.config.faults.schedule.crashes.append(("site3", time))
            instance.config.faults.schedule.recoveries.append(("site3", time + 15.0))
        result = instance.run_workload(
            WorkloadSpec(n_transactions=40, arrival_rate=0.5)
        )
        assert instance.sites["site3"].stats.crashes == 3
        assert instance.sites["site3"].stats.recoveries == 3
        assert result.serializable is True


class TestWeightedVoting:
    def test_heavyweight_copy_forms_quorum_alone(self):
        """A copy with a majority of votes can read and write alone."""
        from repro.core.config import RainbowConfig
        from repro.core.instance import RainbowInstance
        from repro.nameserver.catalog import Catalog

        config = RainbowConfig.quick(n_sites=3, n_items=1)
        catalog = Catalog()
        catalog.add_item("x1", placement={"site1": 3, "site2": 1, "site3": 1})
        config.set_catalog(catalog)
        config.settle_time = 20
        instance = RainbowInstance(config)
        instance.config.protocols.op_timeout = 10
        instance.start()
        # Crash both lightweight holders: site1's 3 of 5 votes suffice.
        instance.injector.crash_now("site2")
        instance.injector.crash_now("site3")
        txn = Transaction(ops=[Operation.write("x1", 9)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.committed
        assert instance.sites["site1"].store.read("x1")[0] == 9
