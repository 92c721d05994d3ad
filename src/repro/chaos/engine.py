"""The chaos engine: one full Rainbow session under a nemesis plan.

:func:`run_chaos_case` is the unit of chaos work: build an instance from a
seed, unleash the nemesis plan (generated from the same seed, or supplied
explicitly when the shrinker replays a subset), run a write-heavy
workload, then *heal everything* — heal partitions, restore cut links,
clear flaky windows, recover every crashed component — quiesce, and run
the invariant catalog over the final state.

Each case is fully self-contained (its own simulator, network, and seeded
random streams) and the report is plain picklable data, so cases fan out
across worker processes through :mod:`repro.experiments.runner` with
byte-identical results for any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos import invariants
from repro.chaos.nemesis import ChaosPlan, FaultChunk, generate_plan, schedule_from_chunks
from repro.experiments.common import build_instance
from repro.monitor.tracing import ExecutionTracer, format_history
from repro.txn.transaction import txn_id_scope
from repro.workload.spec import WorkloadSpec

__all__ = ["ChaosCaseReport", "run_chaos_case"]

#: Post-heal drain window: long enough for uncertainty timeouts, decision
#: retries, and recovery resolution under the failure timeout profile.
QUIESCE_TIME = 200.0


@dataclass
class ChaosCaseReport:
    """Everything one chaos case produced (picklable for the runner)."""

    seed: int
    chunks: tuple[FaultChunk, ...]
    violations: dict[str, list[str]] = field(default_factory=dict)
    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    lost: int = 0
    orphan_events: int = 0
    messages_dropped: int = 0
    messages_lost_random: int = 0
    messages_duplicated: int = 0
    fault_events: int = 0
    duration: float = 0.0
    # Coordinator-side orphans (home site died pre-decision).
    orphaned_txns: int = 0
    # Populated only for failing cases: the textbook-notation execution
    # history (so a violated invariant ships its interleaving next to the
    # fault plan) and, with ``trace=True``, the Chrome trace-event JSON.
    history: str = ""
    trace_json: str = ""

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    def violated_invariants(self) -> list[str]:
        return [name for name in invariants.INVARIANTS if self.violations.get(name)]

    def flat_violations(self) -> list[str]:
        flat: list[str] = []
        for name in invariants.INVARIANTS:
            flat.extend(f"[{name}] {text}" for text in self.violations.get(name, []))
        return flat


def _chaos_workload(seed: int, n_transactions: int, arrival_rate: float) -> WorkloadSpec:
    """A write-heavy mixed workload: increments make lost updates visible."""
    return WorkloadSpec(
        n_transactions=n_transactions,
        arrival="poisson",
        arrival_rate=arrival_rate,
        min_ops=2,
        max_ops=5,
        read_fraction=0.6,
        increment_fraction=0.5,
        restart_on_abort=False,
        result_timeout=250.0,
    )


def run_chaos_case(
    seed: int,
    *,
    n_sites: int = 4,
    n_items: int = 12,
    replication_degree: int = 3,
    rcp: str = "QC",
    ccp: str = "2PL",
    acp: str = "2PC",
    n_transactions: int = 40,
    intensity: float = 1.0,
    sites_per_host: int = 1,
    batch_site_ops: bool = False,
    piggyback_prepare: bool = False,
    latency_aware_routing: bool = False,
    chunks: Optional[tuple[FaultChunk, ...]] = None,
    trace: bool = False,
) -> ChaosCaseReport:
    """Run one seeded chaos session and check every safety invariant.

    With ``chunks`` given, the nemesis is bypassed and exactly those fault
    episodes are injected — the shrinker's replay path.  Everything else
    (workload, network randomness) still derives from ``seed``, so a replay
    differs from the original run only by the removed faults.
    """
    from repro.protocols.base import ccp_registry

    if ccp.upper() not in ccp_registry():
        # Classroom protocols (e.g. the deliberately broken NOCC) register
        # on import; pull them in so chaos can target them by name.
        import repro.classroom  # noqa: F401

    arrival_rate = 0.4
    horizon = n_transactions / arrival_rate
    instance = build_instance(
        n_sites,
        n_items,
        replication_degree,
        rcp=rcp,
        ccp=ccp,
        acp=acp,
        seed=seed,
        failure_profile=True,
        settle_time=120.0,
        sites_per_host=sites_per_host,
        batch_site_ops=batch_site_ops,
        piggyback_prepare=piggyback_prepare,
        latency_aware_routing=latency_aware_routing,
    )
    # Always observe the op-level execution (pure observation, so the run
    # is unchanged); enable span tracing only on request — the resulting
    # Chrome JSON is carried inside the picklable report, so traces stay
    # byte-identical across ``-j N`` worker placements.
    tracer = ExecutionTracer(instance)
    span_tracer = instance.enable_tracing() if trace else None
    if chunks is None:
        plan = generate_plan(
            seed,
            site_names=instance.config.site_names(),
            site_hosts=[site.host for site in instance.config.sites],
            horizon=horizon,
            intensity=intensity,
        )
    else:
        plan = ChaosPlan(seed=seed, chunks=list(chunks))
    instance.config.faults.schedule = plan.schedule()

    # A chaos case is self-contained, so scope txn ids to it: raw ids (and
    # with them invariant messages, histories, and traces) become a pure
    # function of the seed, byte-identical for every -j worker placement.
    with txn_id_scope():
        result = instance.run_workload(
            _chaos_workload(seed, n_transactions, arrival_rate)
        )

    # Heal phase: undo every fault category, recover everything still down.
    instance.network.heal_partition()
    instance.network.restore_all_links()
    instance.network.clear_flaky_links()
    if not instance.nameserver.up:
        instance.injector.recover_now(instance.nameserver.name)
    for name in sorted(instance.sites):
        if not instance.sites[name].up:
            instance.injector.recover_now(name)
    instance.sim.run(until=instance.sim.now + QUIESCE_TIME)

    final = instance.session_result(result.outcomes)
    violations = invariants.check_all(
        instance, final, expected_submissions=n_transactions
    )
    stats = final.statistics
    failed = any(violations.values())
    history = ""
    if failed:
        history = format_history(tracer.global_events(), max_events=240)
    trace_json = ""
    if span_tracer is not None and failed:
        from repro.obs.export import spans_to_chrome_json

        trace_json = spans_to_chrome_json(span_tracer.spans)
    return ChaosCaseReport(
        seed=seed,
        chunks=tuple(plan.chunks),
        violations=violations,
        submitted=stats.submitted,
        committed=stats.committed,
        aborted=stats.aborted,
        lost=sum(1 for outcome in final.outcomes if outcome.status == "LOST"),
        orphan_events=stats.orphan_events,
        messages_dropped=stats.messages_dropped,
        messages_lost_random=stats.messages_lost_random,
        messages_duplicated=stats.messages_duplicated,
        fault_events=len(final.fault_log),
        duration=final.duration,
        orphaned_txns=stats.orphaned_txns,
        history=history,
        trace_json=trace_json,
    )
