"""Tests for the message-economy optimizations (docs/PERF.md).

Covers the three config-flagged optimizations — per-host operation
batching, the piggybacked 2PC prepare, and latency-aware quorum routing —
plus the satellites that ride with them: ``expected_delay`` on every
latency model, decision idempotence under duplicated deliveries, catalog
spec memoization, payload-derived reply sizes, and the EXP-MSGECON sweep.
"""

import pytest

from repro.chaos import invariants
from repro.experiments import message_economy
from repro.experiments.common import build_instance
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LanWanLatency,
    LinkOverrideLatency,
    UniformLatency,
)
from repro.net.message import MessageType
from repro.txn.coordinator import TxnContext
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec
from tests.conftest import drive, quick_instance, record_wal_appends, settle


def econ_instance(
    n_sites=2,
    n_items=4,
    degree=None,
    *,
    ccp="MVTO",
    acp="2PC",
    sites_per_host=1,
    latency=None,
    seed=11,
    **flags,
):
    """A small instance with the optimization flags applied."""
    return build_instance(
        n_sites,
        n_items,
        degree if degree is not None else n_sites,
        rcp="QC",
        ccp=ccp,
        acp=acp,
        seed=seed,
        settle_time=60.0,
        latency=latency,
        **flags,
        sites_per_host=sites_per_host,
    )


def wal_decisions(appended, site, kind, *, participant_only=False):
    """txn_id -> number of ``kind`` records the site forced.

    ``appended`` comes from :func:`record_wal_appends` (the log itself
    forgets decided transactions).  With ``participant_only`` the count
    covers only participant-apply records (those tagged with a coordinator
    address); the home site additionally forces one untagged coordinator
    decision record.
    """
    counts = {}
    for site_name, record in appended:
        if site_name != site.name or record.kind != kind:
            continue
        if participant_only and record.coordinator is None:
            continue
        counts[record.txn_id] = counts.get(record.txn_id, 0) + 1
    return counts


class TestExpectedDelay:
    """expected_delay: the deterministic expectation of each latency model."""

    def test_constant(self):
        assert ConstantLatency(2.5).expected_delay("a", "b") == 2.5

    def test_uniform_is_midpoint(self):
        assert UniformLatency(1.0, 3.0).expected_delay("a", "b") == 2.0

    def test_exponential_is_floor_plus_mean(self):
        assert ExponentialLatency(mean=2.0, floor=0.5).expected_delay("a", "b") == 2.5

    def test_lanwan_distinguishes_hosts(self):
        model = LanWanLatency(local=0.05, remote_low=0.8, remote_high=1.2)
        assert model.expected_delay("h1", "h1") == 0.05
        assert model.expected_delay("h1", "h2") == pytest.approx(1.0)

    def test_link_override_resolves_pair(self):
        model = LinkOverrideLatency(
            ConstantLatency(1.0),
            {("hA", "hB"): 10.0, ("hA", "hC"): UniformLatency(2.0, 4.0)},
        )
        assert model.expected_delay("hA", "hB") == 10.0
        assert model.expected_delay("hB", "hA") == 10.0
        assert model.expected_delay("hA", "hC") == 3.0
        assert model.expected_delay("hA", "hD") == 1.0


class TestLatencyAwareRouting:
    def _context(self, instance, home="site1"):
        txn = Transaction(ops=[Operation.read("x1")], home_site=home)
        return TxnContext(
            txn,
            instance.sites[home],
            instance.catalog,
            instance.directory,
            instance.config.protocols,
            instance.rcp,
            instance.acp,
        )

    def test_routing_prefers_lan_siblings(self):
        # site1/site2 share host1, site3/site4 share host2.
        instance = econ_instance(
            n_sites=4, sites_per_host=2, latency="lanwan",
            latency_aware_routing=True,
        )
        ctx = self._context(instance, home="site3")
        order = ctx.order_local_first(["site1", "site2", "site3", "site4"])
        assert order == ["site3", "site4", "site1", "site2"]

    def test_flag_off_keeps_alphabetical_order(self):
        instance = econ_instance(n_sites=4, sites_per_host=2, latency="lanwan")
        ctx = self._context(instance, home="site3")
        order = ctx.order_local_first(["site1", "site2", "site3", "site4"])
        assert order == ["site3", "site1", "site2", "site4"]

    def test_routing_tie_break_is_name(self):
        instance = econ_instance(
            n_sites=4, sites_per_host=4, latency="lanwan",
            latency_aware_routing=True,
        )
        ctx = self._context(instance, home="site2")
        order = ctx.order_local_first(["site4", "site3", "site1", "site2"])
        assert order == ["site2", "site1", "site3", "site4"]


def _econ_workload(n=40):
    return WorkloadSpec(
        n_transactions=n,
        arrival="poisson",
        arrival_rate=0.3,
        min_ops=3,
        max_ops=5,
        read_fraction=0.6,
        increment_fraction=0.5,
        restart_on_abort=False,
    )


class TestBatching:
    def test_batching_coalesces_and_preserves_safety(self):
        batched = econ_instance(
            n_sites=6, n_items=12, degree=3, sites_per_host=3,
            batch_site_ops=True,
        )
        plain = econ_instance(n_sites=6, n_items=12, degree=3, sites_per_host=3)
        result_b = batched.run_workload(_econ_workload())
        result_p = plain.run_workload(_econ_workload())

        by_type = batched.network.stats.by_type
        assert by_type.get(MessageType.BATCH_ACCESS, 0) > 0
        assert result_b.statistics.batched_ops > 0
        assert result_b.statistics.round_trips_saved > 0
        assert plain.network.stats.by_type.get(MessageType.BATCH_ACCESS, 0) == 0
        assert batched.network.stats.sent < plain.network.stats.sent

        for result, instance in ((result_b, batched), (result_p, plain)):
            assert result.serializable is True
            violations = invariants.check_all(instance, result)
            assert not any(violations.values()), violations

    def test_flag_off_by_default(self):
        instance = quick_instance(n_sites=3, n_items=6)
        instance.run_workload(_econ_workload(10))
        assert MessageType.BATCH_ACCESS not in instance.network.stats.by_type


class TestPiggybackedPrepare:
    def _one_write_final_txn(self, **flags):
        """Run one read-then-write txn; returns it, its instance and the WAL appends."""
        instance = econ_instance(n_sites=2, n_items=2, **flags)
        appended = record_wal_appends(instance.sites.values())
        txn = Transaction(
            ops=[Operation.read("x1"), Operation.write("x2", 42)],
            home_site="site1",
        )
        instance.run_transactions([txn])
        return instance, txn, appended

    def test_piggyback_saves_the_vote_round(self):
        instance, txn, appended = self._one_write_final_txn(piggyback_prepare=True)
        assert txn.committed
        # The remote prewrite carried the prepare: no explicit VOTE_REQ.
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 0
        stats = instance.monitor.output_statistics()
        assert stats.round_trips_saved == 1
        for site in instance.sites.values():
            assert site.store.read("x2")[0] == 42
        # Exactly one participant-apply COMMIT at each site (the home also
        # forces one untagged coordinator decision record).
        for site in instance.sites.values():
            applied = wal_decisions(appended, site, "COMMIT", participant_only=True)
            assert applied.get(txn.txn_id) == 1
        assert wal_decisions(appended, instance.sites["site1"], "COMMIT") == {txn.txn_id: 2}
        assert wal_decisions(appended, instance.sites["site2"], "COMMIT") == {txn.txn_id: 1}
        # The piggybacked prepare was logged exactly once at the remote.
        prepares = wal_decisions(appended, instance.sites["site2"], "PREPARE")
        assert prepares.get(txn.txn_id) == 1

    def test_explicit_round_without_flag(self):
        instance, txn, _appended = self._one_write_final_txn()
        assert txn.committed
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 1
        assert instance.monitor.output_statistics().round_trips_saved == 0

    def test_3pc_falls_back_to_explicit_votes(self):
        instance, txn, _appended = self._one_write_final_txn(
            piggyback_prepare=True, acp="3PC"
        )
        assert txn.committed
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 1
        assert instance.monitor.output_statistics().round_trips_saved == 0

    def test_counter_version_ccp_skips_write_piggyback(self):
        # 2PL stamps versions after the prewrite replies, so a final-op
        # *write* misses the piggyback window and keeps the explicit round.
        instance, txn, _appended = self._one_write_final_txn(
            piggyback_prepare=True, ccp="2PL"
        )
        assert txn.committed
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 1
        for site in instance.sites.values():
            assert site.store.read("x2")[0] == 42

    def test_piggybacked_no_vote_aborts(self):
        instance = econ_instance(n_sites=2, n_items=2, piggyback_prepare=True)
        instance.start()
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        ctx = TxnContext(
            txn,
            instance.sites["site1"],
            instance.catalog,
            instance.directory,
            instance.config.protocols,
            instance.rcp,
            instance.acp,
        )
        ctx._register("site2")
        ctx._pending_votes["site2"] = (False, "validation failed")
        all_yes, detail = drive(instance.sim, ctx.collect_votes("2PC"))
        assert all_yes is False
        assert "site2: validation failed" in detail


class TestDecisionIdempotence:
    def _assert_no_double_apply(self, instance, result, expected, appended):
        violations = invariants.check_all(
            instance, result, expected_submissions=expected
        )
        assert not any(violations.values()), violations
        for site in instance.sites.values():
            # A participant applied each decision at most once, no matter
            # how many duplicate deliveries arrived.
            for txn_id, count in wal_decisions(
                appended, site, "COMMIT", participant_only=True
            ).items():
                assert count == 1, (
                    f"{site.name} applied COMMIT x{count} for txn {txn_id}"
                )
            # Per site: at most one coordinator decision record plus one
            # participant-apply record.
            for kind in ("COMMIT", "ABORT"):
                for txn_id, count in wal_decisions(appended, site, kind).items():
                    assert count <= 2, (
                        f"{site.name} logged {kind} x{count} for txn {txn_id}"
                    )

    def test_flaky_link_duplicates_do_not_double_apply(self):
        instance = econ_instance(n_sites=2, n_items=6, ccp="2PL")
        appended = record_wal_appends(instance.sites.values())
        instance.start()
        instance.network.set_link_flakiness("host1", "host2", duplicate=0.9)
        result = instance.run_workload(_econ_workload(30))
        assert instance.network.stats.duplicated > 0
        assert result.statistics.committed > 0
        self._assert_no_double_apply(instance, result, 30, appended)

    def test_duplicated_decisions_after_release_log_nothing(self):
        # Each decision releases the transaction's records; a duplicated
        # COMMIT or ABORT that arrives afterwards finds no prepared state
        # and must neither log a record nor count a second apply.
        instance = econ_instance(n_sites=2, n_items=6, ccp="2PL")
        appended = record_wal_appends(instance.sites.values())
        instance.start()
        instance.network.set_link_flakiness("host1", "host2", duplicate=0.9)
        result = instance.run_workload(_econ_workload(30))
        assert instance.network.stats.duplicated > 0
        assert result.statistics.committed > 0
        for site in instance.sites.values():
            applied = wal_decisions(appended, site, "COMMIT", participant_only=True)
            assert site.stats.commits_applied == len(applied)
            assert set(applied.values()) == {1}
            assert len(site.wal) == 0, site.wal.records

    def test_global_duplication_with_optimizations_on(self):
        instance = econ_instance(
            n_sites=4, n_items=8, degree=3, sites_per_host=2,
            batch_site_ops=True, piggyback_prepare=True,
            latency_aware_routing=True, latency="lanwan",
        )
        appended = record_wal_appends(instance.sites.values())
        instance.start()
        instance.network.duplication_rate = 0.3
        result = instance.run_workload(_econ_workload(30))
        assert instance.network.stats.duplicated > 0
        assert result.statistics.committed > 0
        self._assert_no_double_apply(instance, result, 30, appended)


class TestReplySizes:
    def _ask(self, instance, mtype):
        site = instance.sites["site1"]

        def request():
            msg = yield site.endpoint.request(
                instance.nameserver.address, mtype, {}, timeout=50.0
            )
            return msg

        return drive(instance.sim, request())

    def test_ns_lookup_reply_sized_by_site_count(self):
        instance = quick_instance(n_sites=3, n_items=4)
        instance.start()
        reply = self._ask(instance, MessageType.NS_LOOKUP)
        assert reply.size == 3

    def test_ns_catalog_reply_sized_by_catalog(self):
        instance = quick_instance(n_sites=2, n_items=5)
        instance.start()
        reply = self._ask(instance, MessageType.NS_CATALOG)
        assert reply.size == 5


class TestMessageEconomyExperiment:
    def test_sweep_shows_savings(self):
        table = message_economy.run(
            flag_sets=("none", "all"),
            rcps=("QC",),
            latencies=("lanwan",),
            n_txns=40,
        )
        assert len(table.rows) == 2
        rows = {row["flags"]: row for row in table.rows}
        assert rows["none"]["saved_per_txn"] == 0.0
        assert rows["all"]["saved_per_txn"] > 0.0
        # The acceptance bar: >=25% fewer transaction-processing messages.
        assert rows["all"]["msgs_per_txn"] < 0.75 * rows["none"]["msgs_per_txn"]
        assert rows["all"]["round_trips_per_txn"] < (
            rows["none"]["round_trips_per_txn"] - 1.0
        )


class TestOneAccessPath:
    """Batching is a grouping policy over one access path (docs/PERF.md §1)."""

    WAVE = ["site1", "site2", "site3", "site4"]

    def _context(self, batch_site_ops):
        # site1/site2 share host1, site3/site4 share host2.  From home site1
        # the wave is: the home copy, host1 as a singleton (site2) and host2
        # as a two-site group (site3, site4).
        instance = econ_instance(
            n_sites=4, sites_per_host=2, ccp="2PL", batch_site_ops=batch_site_ops
        )
        instance.start()
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        txn.ts = instance.sim.now
        ctx = TxnContext(
            txn,
            instance.sites["site1"],
            instance.catalog,
            instance.directory,
            instance.config.protocols,
            instance.rcp,
            instance.acp,
        )
        return instance, ctx

    @staticmethod
    def _rows(results):
        return [(r.site, r.ok, r.kind, r.value, r.version) for r in results]

    def _run_wave(self, batch_site_ops):
        instance, ctx = self._context(batch_site_ops)
        instance.sites["site4"].cc.doom(ctx.txn.txn_id)  # a CCP rejection

        def wave():
            reads = yield from ctx.access_read_many(self.WAVE, "x1")
            writes = yield from ctx.access_prewrite_many(self.WAVE, "x1", 7)
            return reads, writes

        reads, writes = drive(instance.sim, wave())
        batches = instance.network.stats.by_type.get(MessageType.BATCH_ACCESS, 0)
        return self._rows(reads), self._rows(writes), batches, sorted(ctx.participants)

    def test_batched_wave_matches_unbatched(self):
        reads_p, writes_p, batches_p, participants_p = self._run_wave(False)
        reads_b, writes_b, batches_b, participants_b = self._run_wave(True)
        assert reads_b == reads_p
        assert writes_b == writes_p
        assert participants_b == participants_p == ["site1", "site2", "site3"]
        assert [row[:3] for row in reads_p] == [
            ("site1", True, None),
            ("site2", True, None),
            ("site3", True, None),
            ("site4", False, "ccp"),
        ]
        assert batches_p == 0
        assert batches_b == 2  # one per wave: only host2 has two targets

    @pytest.mark.parametrize("batch_site_ops", [False, True])
    def test_target_crash_mid_wait_is_a_net_failure(self, batch_site_ops):
        # Txn 999 holds X on x1 at site4; our read queues behind it, then
        # site4 crashes.  Unbatched, the RPC times out; batched, the gateway
        # site3 sees its sibling go down.  Both must read as unreachable
        # ("net"), so QC tries another holder instead of aborting.
        instance, ctx = self._context(batch_site_ops)
        site4 = instance.sites["site4"]
        settle(instance.sim, site4.local_prewrite(999, 0.5, "x1", 1))
        instance.sim.defer(2.0, site4.crash)
        results = drive(instance.sim, ctx.access_read_many(["site3", "site4"], "x1"))
        assert [(r.site, r.ok, r.kind) for r in results] == [
            ("site3", True, None),
            ("site4", False, "net"),
        ]
