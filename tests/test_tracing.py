"""Tests for execution tracing: local and global histories."""

import pytest

from repro.monitor.tracing import ExecutionTracer, TraceEvent, format_history
from repro.txn.transaction import Operation, Transaction
from tests.conftest import quick_instance


class TestNotation:
    def test_read_write_notation(self):
        assert TraceEvent(0, "s", "read", 3, item="x").notation() == "r3[x]"
        assert TraceEvent(0, "s", "prewrite", 3, item="x", value=7).notation() == "w3[x=7]"
        assert TraceEvent(0, "s", "prepare", 3).notation() == "p3"
        assert TraceEvent(0, "s", "precommit", 3).notation() == "pc3"
        assert TraceEvent(0, "s", "commit", 3).notation() == "c3"
        assert TraceEvent(0, "s", "abort", 3).notation() == "a3"

    def test_format_history_orders_by_time(self):
        events = [
            TraceEvent(2.0, "s", "commit", 1),
            TraceEvent(1.0, "s", "read", 1, item="x"),
        ]
        assert format_history(events) == "r1[x]  c1"

    def test_format_history_truncates(self):
        events = [TraceEvent(float(i), "s", "commit", i) for i in range(5)]
        assert format_history(events, max_events=2) == "c0  c1"


class TestTracerWithInstance:
    def _traced_instance(self):
        instance = quick_instance(n_items=8, settle_time=20)
        instance.start()
        tracer = ExecutionTracer(instance)
        return instance, tracer

    def test_committed_txn_leaves_full_trace(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(
            ops=[Operation.read("x1"), Operation.write("x3", 5)], home_site="site1"
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        kinds = [event.kind for event in tracer.txn_events(txn.txn_id)]
        assert "read" in kinds
        assert "prewrite" in kinds
        assert "prepare" in kinds
        assert "commit" in kinds
        assert "abort" not in kinds

    def test_local_history_contains_only_site_events(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        for site in instance.sites:
            for event in tracer.local_events(site):
                assert event.site == site

    def test_global_history_merges_sites(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        sites_seen = {event.site for event in tracer.global_events()}
        assert len(sites_seen) >= 2  # home + at least one remote participant

    def test_history_string_notation(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        history = tracer.global_history()
        assert f"w{txn.txn_id}[x1=5]" in history
        assert f"c{txn.txn_id}" in history

    def test_aborted_txn_traces_abort(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        instance.sites["site1"].cc.doom(txn.txn_id)
        process = instance.submit(txn)
        instance.sim.run(until=process)
        instance.sim.run(until=instance.sim.now + 30)
        kinds = [event.kind for event in tracer.txn_events(txn.txn_id)]
        assert "commit" not in kinds

    def test_operation_counts(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        counts = tracer.operation_counts()
        assert counts["prewrite"] >= 1
        assert counts["commit"] >= 1


class TestAttachHook:
    """A tracer subscribes to each site's stream; the site calls it directly."""

    LOCAL_OPS = (
        "local_read",
        "local_prewrite",
        "local_prepare",
        "local_precommit",
        "local_commit",
        "local_abort",
    )

    def _two_txns(self, instance):
        txns = [
            Transaction(
                ops=[Operation.read("x1"), Operation.write("x3", 5)], home_site="site1"
            ),
            Transaction(
                ops=[Operation.write("x3", 6), Operation.read("x2")], home_site="site2"
            ),
        ]
        processes = [instance.submit(txn) for txn in txns]
        instance.sim.run(until=instance.sim.all_of(processes))
        assert all(txn.committed for txn in txns)
        return txns

    def test_attach_leaves_site_methods_alone(self):
        instance = quick_instance(n_items=8, settle_time=20)
        tracer = ExecutionTracer(instance)
        for site in instance.sites.values():
            assert site.subscribers == [tracer.record]
            for name in self.LOCAL_OPS:
                assert name not in vars(site)

    def test_class_level_wrapper_sees_every_call(self, monkeypatch):
        from repro.site.site import Site

        instance = quick_instance(n_items=8, settle_time=20)
        instance.start()
        tracer = ExecutionTracer(instance)
        calls = {"read": 0, "commit": 0}
        local_read, local_commit = Site.local_read, Site.local_commit

        def counted_read(site, *args, **kwargs):
            calls["read"] += 1
            return local_read(site, *args, **kwargs)

        def counted_commit(site, *args, **kwargs):
            calls["commit"] += 1
            return local_commit(site, *args, **kwargs)

        monkeypatch.setattr(Site, "local_read", counted_read)
        monkeypatch.setattr(Site, "local_commit", counted_commit)
        self._two_txns(instance)
        counts = tracer.operation_counts()
        assert calls["read"] == counts["read"] == 4
        assert calls["commit"] == counts["commit"] == 6

    @staticmethod
    def _assert_pinned_histories(tracer, a, b):
        assert tracer.local_history("site1") == (
            f"r{a}[x1]  w{b}[x3=6]  p{b}  w{a}[x3=5]  c{b}  p{a}  c{a}"
        )
        assert tracer.local_history("site2") == (
            f"r{a}[x1]  r{b}[x2]  p{b}  c{b}  p{a}  c{a}"
        )
        assert tracer.local_history("site3") == (
            f"w{b}[x3=6]  r{b}[x2]  p{b}  w{a}[x3=5]  c{b}  p{a}  c{a}"
        )
        assert tracer.local_history("site4") == ""

    def test_recorded_history(self):
        instance = quick_instance(n_items=8, settle_time=20)
        instance.start()
        tracer = ExecutionTracer(instance)
        a, b = (txn.txn_id for txn in self._two_txns(instance))
        self._assert_pinned_histories(tracer, a, b)

    def test_two_subscribers_share_one_stream(self):
        """Two tracers, and two network subscribers, watch one session."""
        instance = quick_instance(n_items=8, settle_time=20)
        sends = ([], [])
        for seen in sends:
            instance.network.subscribers.append(
                lambda msg, outcome, seen=seen: seen.append((msg.mtype, outcome))
            )
        instance.start()
        first, second = ExecutionTracer(instance), ExecutionTracer(instance)
        a, b = (txn.txn_id for txn in self._two_txns(instance))
        for tracer in (first, second):
            self._assert_pinned_histories(tracer, a, b)
        assert sends[0] and sends[0] == sends[1]
