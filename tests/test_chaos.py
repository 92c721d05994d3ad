"""Tests for the chaos engine: nemesis, invariants, shrinking, suite."""

import pytest

from repro.chaos import (
    INVARIANTS,
    FaultChunk,
    check_all,
    ddmin,
    generate_plan,
    render_schedule,
    render_suite_report,
    run_chaos_case,
    run_chaos_suite,
    schedule_from_chunks,
    shrink_case,
)
from repro.net.faults import FaultSchedule

SITES = ["site1", "site2", "site3", "site4"]
HOSTS = ["host1", "host2", "host3", "host4"]


class TestNemesis:
    def test_same_seed_same_plan(self):
        a = generate_plan(5, SITES, HOSTS, horizon=100.0)
        b = generate_plan(5, SITES, HOSTS, horizon=100.0)
        assert a.chunks == b.chunks

    def test_different_seeds_differ(self):
        plans = {tuple(generate_plan(s, SITES, HOSTS, 100.0).chunks) for s in range(1, 8)}
        assert len(plans) > 1

    def test_plans_are_self_healing(self):
        for seed in range(1, 20):
            plan = generate_plan(seed, SITES, HOSTS, horizon=100.0)
            assert plan.chunks
            for chunk in plan.chunks:
                assert chunk.start < chunk.end
                assert chunk.end <= 0.85 * 100.0

    def test_per_site_crash_windows_disjoint(self):
        for seed in range(1, 20):
            plan = generate_plan(seed, SITES, HOSTS, 100.0, intensity=3.0)
            crashes = [c for c in plan.chunks if c.kind == "crash"]
            by_site = {}
            for chunk in sorted(crashes, key=lambda c: c.start):
                assert chunk.start >= by_site.get(chunk.target, 0.0)
                by_site[chunk.target] = chunk.end

    def test_partitions_split_all_hosts(self):
        for seed in range(1, 30):
            plan = generate_plan(seed, SITES, HOSTS, 100.0, intensity=3.0)
            for chunk in plan.chunks:
                if chunk.kind == "partition":
                    assert sorted(h for g in chunk.groups for h in g) == HOSTS
                    assert all(chunk.groups)

    def test_schedule_from_chunks_maps_every_kind(self):
        chunks = [
            FaultChunk("crash", 10.0, 20.0, target="site2"),
            FaultChunk("partition", 30.0, 40.0,
                       groups=(("host1",), ("host2", "host3", "host4"))),
            FaultChunk("link_cut", 50.0, 55.0, hosts=("host1", "host3")),
            FaultChunk("flaky_link", 60.0, 70.0, hosts=("host2", "host4"),
                       loss=0.2, duplicate=0.1),
        ]
        schedule = schedule_from_chunks(chunks)
        assert schedule.crashes == [("site2", 10.0)]
        assert schedule.recoveries == [("site2", 20.0)]
        assert schedule.partitions == [(30.0, [["host1"], ["host2", "host3", "host4"]])]
        assert schedule.heals == [40.0]
        assert schedule.link_cuts == [("host1", "host3", 50.0, 55.0)]
        assert schedule.flaky_links == [("host2", "host4", 60.0, 70.0, 0.2, 0.1)]

    def test_render_schedule_roundtrips_through_eval(self):
        plan = generate_plan(3, SITES, HOSTS, 100.0, intensity=2.0)
        schedule = plan.schedule()
        rebuilt = eval(render_schedule(schedule), {"FaultSchedule": FaultSchedule})
        assert rebuilt == schedule

    def test_render_empty_schedule_says_fault_free(self):
        text = render_schedule(FaultSchedule())
        assert text.startswith("FaultSchedule()")
        assert "fault-free" in text


class TestDdmin:
    def test_finds_minimal_pair(self):
        items = tuple(range(1, 9))
        minimal, probes = ddmin(items, lambda s: 3 in s and 7 in s)
        assert set(minimal) == {3, 7}
        assert probes >= 1

    def test_single_culprit(self):
        minimal, _probes = ddmin(tuple(range(10)), lambda s: 4 in s)
        assert minimal == (4,)

    def test_fault_free_failure_shrinks_to_empty(self):
        minimal, _probes = ddmin(tuple(range(1, 5)), lambda s: True)
        assert minimal == ()

    def test_probe_budget_returns_failing_subset(self):
        items = tuple(range(1, 17))
        fails = lambda s: 5 in s and 11 in s  # noqa: E731
        minimal, probes = ddmin(items, fails, max_probes=3)
        assert probes <= 4  # budget + the final empty-set probe is skipped
        assert fails(minimal)

    def test_preserves_order(self):
        minimal, _ = ddmin((9, 3, 7, 1), lambda s: 3 in s and 1 in s)
        assert minimal == (3, 1)


class TestInvariants:
    @pytest.fixture(scope="class")
    def clean_session(self):
        from repro.experiments.common import build_instance
        from repro.workload.spec import WorkloadSpec

        instance = build_instance(3, 8, 2, seed=11, settle_time=30.0)
        result = instance.run_workload(
            WorkloadSpec(n_transactions=15, arrival_rate=0.5, read_fraction=0.5)
        )
        return instance, instance.session_result(result.outcomes)

    def test_clean_session_green(self, clean_session):
        instance, final = clean_session
        violations = check_all(instance, final, expected_submissions=15)
        assert tuple(violations) == INVARIANTS
        assert not any(violations.values())

    def test_tampered_replica_breaks_convergence(self, clean_session):
        from repro.chaos.invariants import check_convergence

        instance, final = clean_session
        # Corrupt one replica in place: same version, different value.
        for item in instance.catalog.item_names():
            spec = instance.catalog.item(item)
            if len(spec.sites) < 2:
                continue
            store = instance.sites[spec.sites[0]].store
            copy = store._copies[item]
            copy.value = "corrupted"
            violations = check_convergence(instance, final)
            copy.value = instance.sites[spec.sites[1]].store.read(item)[0]
            break
        assert any("diverge" in v for v in violations)

    def test_down_site_breaks_no_orphans(self, clean_session):
        from repro.chaos.invariants import check_no_orphans

        instance, final = clean_session
        site = instance.sites["site1"]
        site.up = False
        violations = check_no_orphans(instance, final)
        site.up = True
        assert any("still down" in v for v in violations)

    def test_conservation_counts_missing_outcomes(self, clean_session):
        from repro.chaos.invariants import check_conservation

        instance, final = clean_session
        violations = check_conservation(instance, final, expected_submissions=16)
        assert any("16" in v for v in violations)


class TestChaosCase:
    def test_case_is_deterministic(self):
        a = run_chaos_case(2, n_transactions=15)
        b = run_chaos_case(2, n_transactions=15)
        assert a == b

    def test_default_stack_survives_sample_seeds(self):
        for seed in (1, 2, 3):
            report = run_chaos_case(seed, n_transactions=15)
            assert report.ok, report.flat_violations()
            assert report.chunks
            assert report.fault_events >= 2  # fault + its repair at least

    def test_replay_with_no_chunks_is_fault_free(self):
        report = run_chaos_case(2, n_transactions=15, chunks=())
        assert report.ok
        assert report.chunks == ()
        assert report.fault_events == 0

    def test_3pc_stack(self):
        report = run_chaos_case(4, n_transactions=15, acp="3PC")
        assert report.ok, report.flat_violations()


class TestDurableCommit:
    """A home site that forces COMMIT and then crashes committed the txn.

    Each plan is a shrunk reproduction of a default-stack (QC/2PL/2PC)
    seed that used to fail serializability: the transaction was reported
    aborted while its participants committed it through DECISION_REQ, so
    its readers looked like they read phantom versions.
    """

    def test_crash_after_commit_record_flags_off(self):
        chunks = (
            FaultChunk("crash", 44.33757327466583, 65.69052310201991, target="site3"),
            FaultChunk("crash", 52.89283766053562, 72.79742014757856, target="site4"),
        )
        report = run_chaos_case(32, chunks=chunks)
        assert report.ok, report.flat_violations()

    def test_crash_after_commit_record_flags_on(self):
        chunks = (
            FaultChunk(
                "partition", 16.666682557029045, 23.450573426137005,
                groups=(("host1",), ("host2",)),
            ),
            FaultChunk(
                "partition", 27.20361526153511, 38.39980949830893,
                groups=(("host2",), ("host1",)),
            ),
            FaultChunk("crash", 58.280191032596655, 81.90232085047244, target="site2"),
        )
        report = run_chaos_case(
            28,
            chunks=chunks,
            sites_per_host=2,
            batch_site_ops=True,
            piggyback_prepare=True,
            latency_aware_routing=True,
        )
        assert report.ok, report.flat_violations()


class TestBrokenProtocolAndShrink:
    def test_nocc_fails_and_shrinks_fault_free(self):
        report = run_chaos_case(1, ccp="NOCC")
        assert not report.ok
        assert "serializability" in report.violated_invariants()
        shrunk = shrink_case(report, ccp="NOCC")
        assert shrunk.reproduced  # the minimal plan still violates
        assert shrunk.minimal_chunks == ()  # NOCC is broken without any faults
        assert "fault-free" in shrunk.scenario()

    def test_shrink_refuses_green_case(self):
        report = run_chaos_case(2, n_transactions=15)
        with pytest.raises(ValueError):
            shrink_case(report, n_transactions=15)


class TestSuite:
    def test_suite_runs_and_renders(self):
        result = run_chaos_suite([1, 2, 3], n_transactions=15)
        assert result.ok
        assert result.shrinks == []
        text = render_suite_report(result)
        assert "3/3 seeds green" in text
        for name in INVARIANTS:
            assert name in text

    def test_suite_identical_across_job_counts(self):
        serial = run_chaos_suite([1, 2, 3, 4], n_jobs=1, n_transactions=15)
        parallel = run_chaos_suite([1, 2, 3, 4], n_jobs=4, n_transactions=15)
        assert serial.cases == parallel.cases
        assert render_suite_report(serial) == render_suite_report(parallel)

    def test_failing_suite_reports_and_shrinks(self):
        result = run_chaos_suite([1], ccp="NOCC")
        assert not result.ok
        assert len(result.shrinks) == 1
        text = render_suite_report(result)
        assert "FAIL" in text
        assert "minimal classroom scenario" in text
