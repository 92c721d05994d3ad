"""Focused tests for protocol internals not fully covered elsewhere."""

import pytest

from repro.errors import ProtocolError, ReplicationAbort
from repro.protocols.base import (
    CommitProtocol,
    ConcurrencyController,
    ReplicationController,
    make_acp,
    make_rcp,
    register_acp,
    register_ccp,
    register_rcp,
)
from repro.protocols.rcp.quorum import QuorumConsensusController
from repro.txn.transaction import Operation, Transaction
from tests.conftest import drive, quick_instance


class TestRegistries:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ProtocolError):
            register_rcp("QC", QuorumConsensusController)
        with pytest.raises(ProtocolError):
            register_ccp("2PL", object)
        with pytest.raises(ProtocolError):
            register_acp("2PC", object)

    def test_unknown_rcp_and_acp_rejected(self):
        with pytest.raises(ProtocolError):
            make_rcp("WARP")
        with pytest.raises(ProtocolError):
            make_acp("4PC")

    def test_interface_defaults(self):
        cc = ConcurrencyController()
        assert cc.validate(1) == (True, "")
        with pytest.raises(NotImplementedError):
            cc.read(1, 1.0, "x")
        with pytest.raises(NotImplementedError):
            ReplicationController().do_read(None, "x")
        with pytest.raises(NotImplementedError):
            CommitProtocol().run(None)


class TestQuorumWaves:
    def test_next_wave_minimal_prefix(self):
        wave = QuorumConsensusController._next_wave(
            ["s1", "s2", "s3"], {"s1": 1, "s2": 1, "s3": 1}, needed=2
        )
        assert wave == ["s1", "s2"]

    def test_next_wave_weighted_short_circuit(self):
        wave = QuorumConsensusController._next_wave(
            ["s1", "s2", "s3"], {"s1": 3, "s2": 1, "s3": 1}, needed=3
        )
        assert wave == ["s1"]

    def test_next_wave_returns_all_when_insufficient(self):
        wave = QuorumConsensusController._next_wave(
            ["s1"], {"s1": 1}, needed=5
        )
        assert wave == ["s1"]

    def test_read_quorum_unattainable_is_rcp_abort(self):
        instance = quick_instance(rcp="QC", n_items=8, settle_time=10)
        instance.config.protocols.op_timeout = 8
        instance.start()
        # x2 lives on sites 2..4; crash two of three holders so even the
        # expanded wave cannot reach the read quorum of 2 votes.
        instance.injector.crash_now("site2")
        instance.injector.crash_now("site3")
        txn = Transaction(ops=[Operation.read("x2")], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.aborted
        assert txn.abort_cause == "RCP"
        assert "quorum" in txn.abort_detail

    def test_explicit_read_one_write_all_quorums(self):
        """r=1/w=n quorums make QC behave like ROWA for reads."""
        from repro.core.config import RainbowConfig
        from repro.core.instance import RainbowInstance
        from repro.nameserver.catalog import Catalog

        config = RainbowConfig.quick(n_sites=3, n_items=1)
        catalog = Catalog()
        catalog.add_item(
            "x1", placement={"site1": 1, "site2": 1, "site3": 1},
            read_quorum=1, write_quorum=3,
        )
        config.set_catalog(catalog)
        config.settle_time = 20
        instance = RainbowInstance(config)
        instance.start()
        before = instance.network.stats.by_type.get("READ", 0)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.committed
        # Local copy satisfied the 1-vote read quorum: zero READ messages.
        assert instance.network.stats.by_type.get("READ", 0) == before


class TestUncertaintyEdges:
    def test_disabled_uncertainty_keeps_orphans_forever(self):
        """Pure-blocking pedagogy mode: no resolution machinery at all."""
        instance = quick_instance(n_items=8, settle_time=0,
                                  uncertainty_timeout=None)
        instance.injector.crash_before_step("site1", 2)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x1", 1), Operation.write("x2", 2)],
            home_site="site1",
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        instance.sim.run(until=instance.sim.now + 400)
        # Nobody ever resolves: the orphans persist (the blocking lesson).
        assert sum(s.in_doubt_count() for s in instance.sites.values()) >= 1

    def test_orphan_statistics_track_resolution(self):
        instance = quick_instance(n_items=8, settle_time=0,
                                  uncertainty_timeout=20.0, decision_retry=10.0)
        instance.injector.crash_before_step("site1", 2)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x1", 1), Operation.write("x2", 2)],
            home_site="site1",
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        instance.sim.run(until=instance.sim.now + 100)
        stats_mid = instance.monitor.output_statistics()
        assert stats_mid.orphans_current >= 1
        assert stats_mid.orphan_events >= 1
        instance.injector.recover_now("site1")
        instance.sim.run(until=instance.sim.now + 150)
        stats_end = instance.monitor.output_statistics()
        assert stats_end.orphans_current == 0
        assert stats_end.orphans_resolved >= 1


class TestGatherSemantics:
    def test_access_many_preserves_site_order(self):
        instance = quick_instance(n_items=8)
        instance.start()
        from repro.txn.coordinator import TxnContext

        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        txn.ts = 1.0
        ctx = TxnContext(
            txn, instance.sites["site1"], instance.catalog,
            instance.directory, instance.config.protocols, instance.rcp, instance.acp,
        )

        def run():
            results = yield from ctx.access_read_many(["site1", "site2"], "x1")
            return results

        process = instance.sim.process(run())
        results = instance.sim.run(until=process)
        assert [result.site for result in results] == ["site1", "site2"]
        assert all(result.ok for result in results)

    def test_join_settles_failed_children(self):
        # The fan-out join: an RPC timeout is a failed child, and the join
        # still succeeds once every child has fired.
        from repro.errors import RpcTimeout
        from repro.sim.kernel import Countdown

        instance = quick_instance(n_items=8)
        instance.start()
        endpoint = instance.sites["site1"].endpoint
        lost = endpoint.request("ghost/address", "READ", {}, timeout=5)
        answered = endpoint.request(instance.directory["site2"], "READ",
                                    {"txn": 1, "ts": 1.0, "item": "x1", "home": endpoint.address},
                                    timeout=50)
        join = Countdown(instance.sim, 2)
        for event in (lost, answered):
            event.add_callback(join.tick)

        def run():
            yield join
            return instance.sim.now

        process = instance.sim.process(run())
        instance.sim.run(until=process)
        assert process.ok
        assert not lost.ok and isinstance(lost.value, RpcTimeout)
        assert answered.ok
