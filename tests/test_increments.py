"""Increment operations and the counter invariant (no lost updates).

The strongest end-to-end correctness statement after serializability:
if N transactions each commit an increment of +1 on a counter, the
counter's committed value must be exactly N — any smaller value is a lost
update.  This must hold under every correct CCP and every RCP; the broken
classroom NOCC protocol must *violate* it.
"""

import pytest

from repro.errors import WorkloadError
from repro.txn.transaction import Operation, OpKind, Transaction
from tests.conftest import quick_instance


def committed_counter_value(instance, item):
    """The highest-version committed value across the item's copies."""
    values = [
        instance.sites[name].store.read(item)
        for name in instance.catalog.sites_holding(item)
    ]
    return max(values, key=lambda pair: pair[1])[0]


def run_increment_storm(instance, item, n, homes, gap=4.0):
    """Launch n concurrent increments, staggered by ``gap`` time units.

    Perfectly simultaneous read-modify-write storms livelock under 2PL
    (symmetric distributed upgrade deadlocks) and under distributed OCC
    (symmetric cross-site validation conflicts) — every transaction kills
    every other.  A small stagger keeps heavy overlap while leaving
    survivors, which is what real arrival processes look like.
    """
    txns = [
        Transaction(ops=[Operation.increment(item, 1)], home_site=homes[i % len(homes)])
        for i in range(n)
    ]
    processes = []
    for txn in txns:
        processes.append(instance.submit(txn))
        instance.sim.run(until=instance.sim.now + gap)
    instance.sim.run(until=instance.sim.all_of(processes))
    instance.sim.run(until=instance.sim.now + 60)
    return txns


class TestOperationModel:
    def test_increment_shorthand(self):
        op = Operation.increment("x", 5)
        assert op.kind == OpKind.INCREMENT
        assert op.value == 5
        assert str(op) == "i[x+=5]"

    def test_increment_requires_numeric_delta(self):
        with pytest.raises(WorkloadError):
            Operation(OpKind.INCREMENT, "x", "not a number")

    def test_increment_in_read_and_write_sets(self):
        txn = Transaction(ops=[Operation.increment("x", 1)], home_site="s")
        assert txn.read_set == ["x"]
        assert txn.write_set == ["x"]

    def test_increment_executes_read_then_write(self):
        instance = quick_instance(n_items=4)
        txn = Transaction(
            ops=[Operation.write("x1", 10), Operation.increment("x2", 3)],
            home_site="site1",
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.committed
        assert txn.reads["x2"] == 0
        assert committed_counter_value(instance, "x2") == 3


class TestCounterInvariant:
    @pytest.mark.parametrize("ccp", ["2PL", "TSO", "MVTO", "OCC"])
    def test_no_lost_updates_under_correct_ccps(self, ccp):
        instance = quick_instance(ccp=ccp, n_items=4, settle_time=60, seed=6)
        instance.start()
        txns = run_increment_storm(
            instance, "x1", 10, ["site1", "site2", "site3", "site4"]
        )
        committed = [txn for txn in txns if txn.committed]
        assert committed  # liveness: some increments must land
        assert committed_counter_value(instance, "x1") == len(committed)
        ok, _witness = instance.monitor.history.check_serializable()
        assert ok

    @pytest.mark.parametrize("rcp", ["ROWA", "ROWAA", "QC"])
    def test_no_lost_updates_under_every_rcp(self, rcp):
        instance = quick_instance(rcp=rcp, n_items=4, settle_time=60, seed=12)
        instance.start()
        txns = run_increment_storm(instance, "x1", 8, ["site1", "site2", "site3"])
        committed = [txn for txn in txns if txn.committed]
        assert committed
        assert committed_counter_value(instance, "x1") == len(committed)

    def test_nocc_loses_updates(self):
        """The broken protocol must fail the same invariant."""
        import repro.classroom  # noqa: F401 - registers NOCC
        from repro.core.config import RainbowConfig
        from repro.core.instance import RainbowInstance

        config = RainbowConfig.quick(n_sites=4, n_items=4, replication_degree=3,
                                     seed=2)
        config.protocols.ccp = "NOCC"
        config.settle_time = 60
        instance = RainbowInstance(config)
        instance.start()
        txns = run_increment_storm(
            instance, "x1", 10, ["site1", "site2", "site3", "site4"]
        )
        committed = [txn for txn in txns if txn.committed]
        final = committed_counter_value(instance, "x1")
        assert len(committed) == 10  # NOCC never aborts anything...
        assert final < len(committed)  # ...and loses updates doing so

    def test_restarts_recover_all_increments(self):
        """With restart-on-abort, every increment eventually lands."""
        from repro.workload.spec import WorkloadSpec

        instance = quick_instance(ccp="2PL", n_items=3, settle_time=80, seed=3)
        spec = WorkloadSpec(
            n_transactions=12,
            arrival="closed",
            mpl=4,
            min_ops=1,
            max_ops=1,
            read_fraction=0.0,
            increment_fraction=1.0,
            restart_on_abort=True,
            max_restarts=10,
            restart_delay=2.0,
        )
        result = instance.run_workload(spec)
        landed = sum(1 for o in result.outcomes if o.status == "COMMITTED")
        total = sum(
            committed_counter_value(instance, item)
            for item in instance.catalog.item_names()
        )
        assert total == landed


class TestWorkloadIncrements:
    def test_spec_validation(self):
        from repro.workload.spec import WorkloadSpec

        with pytest.raises(WorkloadError):
            WorkloadSpec(increment_fraction=1.5).validate()

    def test_generator_emits_increments(self):
        import random

        from repro.workload.generator import WorkloadGenerator
        from repro.workload.spec import WorkloadSpec

        instance = quick_instance(n_items=16)
        spec = WorkloadSpec(read_fraction=0.0, increment_fraction=1.0)
        generator = WorkloadGenerator(
            instance.sim, instance.network, instance.directory, instance.catalog,
            spec, random.Random(0), monitor=instance.monitor, name="wlg-inc",
        )
        txn = generator.make_transaction()
        assert all(op.kind == OpKind.INCREMENT for op in txn.ops)


class TestTrafficPanel:
    def test_renders_categories_and_types(self):
        from repro.gui.panels import render_traffic_panel

        instance = quick_instance(n_items=8, settle_time=20)
        from repro.workload.spec import WorkloadSpec

        instance.run_workload(WorkloadSpec(n_transactions=5, arrival_rate=1.0))
        panel = render_traffic_panel(instance.network.stats)
        assert "Message Traffic" in panel
        assert "data" in panel
        assert "commit" in panel
        assert "READ" in panel or "PREWRITE" in panel
