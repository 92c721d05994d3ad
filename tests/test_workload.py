"""Unit tests for workload specs and the generator."""

import itertools
import random

import pytest

from repro.errors import WorkloadError
from repro.nameserver.catalog import Catalog
from repro.txn.transaction import OpKind, Operation, Transaction
from repro.workload.generator import ManualWorkload, WorkloadGenerator
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance


class TestWorkloadSpec:
    def test_defaults_valid(self):
        WorkloadSpec().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_transactions", -1),
            ("arrival", "bursty"),
            ("arrival_rate", 0),
            ("min_ops", 0),
            ("max_ops", 2),  # with min_ops default 4
            ("read_fraction", 1.5),
            ("access", "nope"),
            ("home_policy", "nope"),
            ("max_restarts", -1),
            ("result_timeout", 0),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        spec = WorkloadSpec()
        setattr(spec, field, value)
        with pytest.raises(WorkloadError):
            spec.validate()

    def test_closed_needs_mpl(self):
        spec = WorkloadSpec(arrival="closed", mpl=0)
        with pytest.raises(WorkloadError):
            spec.validate()

    def test_weighted_needs_weights(self):
        spec = WorkloadSpec(home_policy="weighted")
        with pytest.raises(WorkloadError):
            spec.validate()

    def test_hotspot_bounds(self):
        spec = WorkloadSpec(access="hotspot", hotspot_fraction=0.0)
        with pytest.raises(WorkloadError):
            spec.validate()

    def test_negative_zipf_theta_rejected(self):
        spec = WorkloadSpec(access="zipf", zipf_theta=-1)
        with pytest.raises(WorkloadError):
            spec.validate()


class TestTransactionModel:
    def test_operation_shorthands(self):
        read = Operation.read("x")
        write = Operation.write("x", 5)
        assert read.kind == OpKind.READ
        assert write.value == 5
        assert str(read) == "r[x]"
        assert str(write) == "w[x=5]"

    def test_read_with_value_rejected(self):
        with pytest.raises(WorkloadError):
            Operation(OpKind.READ, "x", value=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            Operation("Q", "x")

    def test_empty_transaction_rejected(self):
        with pytest.raises(WorkloadError):
            Transaction(ops=[], home_site="s1")

    def test_read_write_sets(self):
        txn = Transaction(
            ops=[Operation.read("a"), Operation.write("b", 1), Operation.read("a")],
            home_site="s1",
        )
        assert txn.read_set == ["a"]
        assert txn.write_set == ["b"]

    def test_txn_ids_unique(self):
        ids = itertools.count(1)
        t1 = Transaction(ops=[Operation.read("a")], home_site="s1").stamp(ids)
        t2 = Transaction(ops=[Operation.read("a")], home_site="s1").stamp(ids)
        assert (t1.txn_id, t2.txn_id) == (1, 2)
        assert t1.stamp(ids).txn_id == 1  # a numbered transaction keeps its id

    def test_restart_keeps_template_id(self):
        ids = itertools.count(1)
        t1 = Transaction(ops=[Operation.read("a")], home_site="s1").stamp(ids)
        t2 = t1.restarted().stamp(ids)
        assert t2.template_id == t1.template_id == t1.txn_id
        assert t2.attempt == 2
        assert t2.txn_id != t1.txn_id

    def test_response_time_none_until_decided(self):
        txn = Transaction(ops=[Operation.read("a")], home_site="s1")
        assert txn.response_time is None
        txn.submitted_at, txn.decided_at = 2.0, 6.5
        assert txn.response_time == 4.5


class TestSynthesis:
    def _generator(self, instance, spec):
        return WorkloadGenerator(
            instance.sim,
            instance.network,
            instance.directory,
            instance.catalog,
            spec,
            random.Random(0),
            monitor=instance.monitor,
            name="wlg-test",
        )

    def test_sizes_and_mix(self):
        instance = quick_instance(n_items=64)
        spec = WorkloadSpec(min_ops=3, max_ops=5, read_fraction=1.0)
        generator = self._generator(instance, spec)
        for _ in range(30):
            txn = generator.make_transaction()
            assert 1 <= len(txn.ops) <= 5
            assert all(op.kind == OpKind.READ for op in txn.ops)

    def test_write_only_mix(self):
        instance = quick_instance(n_items=64)
        spec = WorkloadSpec(read_fraction=0.0)
        generator = self._generator(instance, spec)
        txn = generator.make_transaction()
        assert all(op.kind == OpKind.WRITE for op in txn.ops)

    def test_distinct_items_enforced(self):
        instance = quick_instance(n_items=32)
        spec = WorkloadSpec(min_ops=8, max_ops=8, distinct_items=True)
        generator = self._generator(instance, spec)
        for _ in range(20):
            txn = generator.make_transaction()
            items = [op.item for op in txn.ops]
            assert len(items) == len(set(items))

    def test_round_robin_homes_cycle(self):
        instance = quick_instance(n_sites=4, n_items=16)
        generator = self._generator(instance, WorkloadSpec())
        homes = [generator.make_transaction().home_site for _ in range(8)]
        assert homes == ["site1", "site2", "site3", "site4"] * 2

    def test_weighted_homes_respect_weights(self):
        instance = quick_instance(n_sites=4, n_items=16)
        spec = WorkloadSpec(
            home_policy="weighted",
            home_weights={"site1": 0.9, "site2": 0.1, "site3": 0.0, "site4": 0.0},
        )
        generator = self._generator(instance, spec)
        homes = [generator.make_transaction().home_site for _ in range(200)]
        assert homes.count("site1") > 140
        assert homes.count("site3") == 0

    def test_zipf_access_skews_to_first_items(self):
        instance = quick_instance(n_items=32)
        spec = WorkloadSpec(access="zipf", zipf_theta=1.2, read_fraction=1.0,
                            distinct_items=False)
        generator = self._generator(instance, spec)
        touches = {}
        for _ in range(200):
            for op in generator.make_transaction().ops:
                touches[op.item] = touches.get(op.item, 0) + 1
        assert touches.get("x1", 0) > touches.get("x30", 0)

    def test_hotspot_access(self):
        instance = quick_instance(n_items=20)
        spec = WorkloadSpec(access="hotspot", hotspot_fraction=0.1,
                            hotspot_probability=0.9, read_fraction=1.0,
                            distinct_items=False)
        generator = self._generator(instance, spec)
        hot = 0
        total = 0
        hot_items = set(generator.items[:2])  # first two in sorted order
        for _ in range(200):
            for op in generator.make_transaction().ops:
                total += 1
                if op.item in hot_items:
                    hot += 1
        assert hot / total > 0.7

    def test_write_values_unique(self):
        instance = quick_instance(n_items=64)
        spec = WorkloadSpec(read_fraction=0.0)
        generator = self._generator(instance, spec)
        values = []
        for _ in range(10):
            values += [op.value for op in generator.make_transaction().ops]
        assert len(values) == len(set(values))

    def test_empty_directory_rejected(self):
        instance = quick_instance()
        with pytest.raises(WorkloadError):
            WorkloadGenerator(
                instance.sim, instance.network, {}, instance.catalog,
                WorkloadSpec(), random.Random(0), monitor=instance.monitor, name="bad1",
            )

    def test_empty_catalog_rejected(self):
        instance = quick_instance()
        with pytest.raises(WorkloadError):
            WorkloadGenerator(
                instance.sim, instance.network, instance.directory, Catalog(),
                WorkloadSpec(), random.Random(0), monitor=instance.monitor, name="bad2",
            )

    @pytest.mark.parametrize(
        "weights,named",
        [
            ({"ghost": 1.0}, "ghost"),
            ({"site1": 0.0, "site2": 0.0}, "site1"),
            ({"site1": -1.0, "site2": 2.0}, "site1"),
        ],
        ids=["unknown-site", "all-zero", "negative"],
    )
    def test_bad_home_weights_rejected_at_construction(self, weights, named):
        instance = quick_instance()
        spec = WorkloadSpec(home_policy="weighted", home_weights=weights)
        with pytest.raises(WorkloadError, match=named):
            self._generator(instance, spec)


class TestExecutionModes:
    def test_open_poisson_completes_all(self):
        instance = quick_instance(n_items=32, settle_time=30)
        spec = WorkloadSpec(n_transactions=12, arrival="poisson", arrival_rate=0.5)
        result = instance.run_workload(spec)
        assert result.statistics.finished == 12
        assert len(result.outcomes) == 12

    def test_open_uniform_arrivals(self):
        instance = quick_instance(n_items=32, settle_time=30)
        spec = WorkloadSpec(n_transactions=6, arrival="uniform", arrival_rate=1.0)
        result = instance.run_workload(spec)
        assert result.statistics.finished == 6

    def test_closed_mode_completes_quota(self):
        instance = quick_instance(n_items=32, settle_time=30)
        spec = WorkloadSpec(n_transactions=10, arrival="closed", mpl=3, think_time=1.0)
        result = instance.run_workload(spec)
        assert result.statistics.finished == 10

    def test_closed_mpl_capped_by_total(self):
        instance = quick_instance(n_items=32, settle_time=30)
        spec = WorkloadSpec(n_transactions=2, arrival="closed", mpl=10)
        result = instance.run_workload(spec)
        assert result.statistics.finished == 2

    def test_zero_transactions_is_fine(self):
        instance = quick_instance(n_items=8, settle_time=5)
        result = instance.run_workload(WorkloadSpec(n_transactions=0))
        assert result.statistics.finished == 0

    def test_restart_on_abort_retries(self):
        instance = quick_instance(n_items=4, settle_time=40)
        # Tiny DB + closed high MPL: aborts guaranteed.
        spec = WorkloadSpec(
            n_transactions=12, arrival="closed", mpl=6,
            min_ops=2, max_ops=3, read_fraction=0.2,
            restart_on_abort=True, max_restarts=3, restart_delay=2.0,
        )
        result = instance.run_workload(spec)
        attempts = [outcome.attempts for outcome in result.outcomes]
        assert max(attempts) > 1  # at least one restart happened
        assert len(result.outcomes) == 12

    @pytest.mark.parametrize("arrival", ["poisson", "closed"])
    def test_a_raising_submission_fails_the_session(self, arrival, monkeypatch):
        class Boom(Exception):
            pass

        submit_once = WorkloadGenerator._submit_once
        submissions = iter(range(1000))

        def third_raises(self, txn):
            if next(submissions) == 2:
                raise Boom(f"T{txn.txn_id}")
            return (yield from submit_once(self, txn))

        monkeypatch.setattr(WorkloadGenerator, "_submit_once", third_raises)
        instance = quick_instance(n_items=32, settle_time=30)
        spec = WorkloadSpec(n_transactions=8, arrival=arrival, mpl=3)
        with pytest.raises(Boom):
            instance.run_workload(spec)

    def test_outcomes_track_status_and_template(self):
        instance = quick_instance(n_items=32, settle_time=30)
        spec = WorkloadSpec(n_transactions=5)
        result = instance.run_workload(spec)
        for outcome in result.outcomes:
            assert outcome.status in ("COMMITTED", "ABORTED", "LOST")
            assert outcome.template_id > 0


class TestManualWorkload:
    def test_manual_submission_and_outcomes(self):
        instance = quick_instance(n_items=8, settle_time=20)
        manual = instance.manual_workload()
        t1 = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        t2 = Transaction(ops=[Operation.read("x1")], home_site="site2")
        manual.add(t1, at=0.0).add(t2, at=30.0)
        result = instance.run_manual(manual)
        assert len(result.outcomes) == 2
        statuses = {o.txn_id: o.status for o in result.outcomes}
        assert statuses[t1.txn_id] == "COMMITTED"
        assert statuses[t2.txn_id] == "COMMITTED"
        # t2 ran after t1 committed: it must have read 5.
        assert t2.reads["x1"] == 5

    def test_manual_unknown_home_rejected(self):
        instance = quick_instance(n_items=8)
        manual = instance.manual_workload()
        manual.add(Transaction(ops=[Operation.read("x1")], home_site="ghost"))
        process = manual.run()
        with pytest.raises(WorkloadError):
            instance.sim.run(until=process)
