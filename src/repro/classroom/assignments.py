"""Scripted lab assignments ("Homework and lab assignments can be designed
around Rainbow").

Each assignment is a deterministic scenario with a narrative, the
observations a student should collect, and a ``passed`` flag indicating
that the phenomenon the lab teaches actually occurred in the run.  They
are used three ways: as runnable demos (``python -m repro classroom``),
as integration tests of the whole stack, and as templates for writing new
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.monitor.tracing import ExecutionTracer
from repro.txn.transaction import Operation, Transaction

__all__ = [
    "AssignmentReport",
    "assignment_deadlock",
    "assignment_2pc_blocking",
    "assignment_quorum_intersection",
    "assignment_lost_update_nocc",
    "assignment_crash_recovery",
    "all_assignments",
]


@dataclass
class AssignmentReport:
    """What one assignment run produced."""

    name: str
    narrative: str
    observations: dict[str, Any] = field(default_factory=dict)
    passed: bool = False

    def render(self) -> str:
        lines = [f"Assignment: {self.name}", self.narrative, ""]
        for key, value in self.observations.items():
            lines.append(f"  {key}: {value}")
        lines.append(f"  => phenomenon observed: {self.passed}")
        return "\n".join(lines)


def _instance(seed: int = 2, **overrides) -> RainbowInstance:
    config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3, seed=seed)
    config.uncertainty_timeout = 25.0
    config.decision_retry = 10.0
    for key, value in overrides.items():
        setattr(config, key, value)
    return RainbowInstance(config)


def assignment_deadlock() -> AssignmentReport:
    """Two transactions lock the same two items in opposite orders."""
    instance = _instance()
    instance.start()
    tracer = ExecutionTracer(instance.sim)
    tracer.attach_all(instance)
    t1 = Transaction(
        ops=[Operation.write("x1", 1), Operation.write("x5", 1)], home_site="site1"
    )
    t2 = Transaction(
        ops=[Operation.write("x5", 2), Operation.write("x1", 2)], home_site="site2"
    )
    p1, p2 = instance.submit(t1), instance.submit(t2)
    instance.sim.run(until=instance.sim.all_of([p1, p2]))
    instance.sim.run(until=instance.sim.now + 50)

    deadlocks = sum(
        site.cc.locks.stats.deadlocks
        for site in instance.sites.values()
        if site.cc.lock_based
    )
    timeouts = sum(
        site.cc.locks.stats.timeouts
        for site in instance.sites.values()
        if site.cc.lock_based
    )
    ccp_aborts = sum(1 for txn in (t1, t2) if txn.aborted and txn.abort_cause == "CCP")
    survivors = [txn for txn in (t1, t2) if txn.committed]
    ok, _witness = instance.monitor.history.check_serializable()
    return AssignmentReport(
        name="deadlock",
        narrative=(
            "T1 writes x1 then x5; T2 writes x5 then x1, concurrently, under "
            "strict 2PL.  The opposite lock orders form a cycle; the detector "
            "(or the wait timeout) must pick a victim so the other commits."
        ),
        observations={
            "t1": f"{t1.status} ({t1.abort_cause})",
            "t2": f"{t2.status} ({t2.abort_cause})",
            "deadlocks_detected": deadlocks,
            "lock_wait_timeouts": timeouts,
            "history_serializable": ok,
            "local_history_site1": tracer.local_history("site1", max_events=12),
        },
        passed=(deadlocks + timeouts) >= 1 and ccp_aborts >= 1 and len(survivors) >= 1 and ok,
    )


def assignment_2pc_blocking() -> AssignmentReport:
    """Crash the coordinator after the votes: watch 2PC block."""
    instance = _instance(settle_time=0.0)
    instance.config.protocols.failpoint = "after_votes"
    instance.config.protocols.failpoint_arms = 1
    instance.start()
    txn = Transaction(
        ops=[Operation.write("x1", 7), Operation.write("x2", 8)], home_site="site1"
    )
    process = instance.submit(txn)
    instance.sim.run(until=process)
    crash_at = instance.sim.now
    instance.sim.run(until=crash_at + 150)
    orphans_during = sum(site.in_doubt_count() for site in instance.sites.values())
    instance.injector.recover_now("site1")
    instance.sim.run(until=instance.sim.now + 150)
    orphans_after = sum(site.in_doubt_count() for site in instance.sites.values())
    aborted_everywhere = all(
        instance.sites[name].store.read("x1")[0] == 0
        for name in instance.catalog.sites_holding("x1")
    )
    return AssignmentReport(
        name="2pc-blocking",
        narrative=(
            "The home site crashes right after collecting unanimous YES "
            "votes.  Prepared participants are uncertain (orphan "
            "transactions) and stay blocked until the coordinator recovers "
            "and presumed abort resolves them."
        ),
        observations={
            "orphans_while_coordinator_down": orphans_during,
            "orphans_after_recovery": orphans_after,
            "write_visible_anywhere": not aborted_everywhere,
        },
        passed=orphans_during >= 1 and orphans_after == 0 and aborted_everywhere,
    )


def assignment_quorum_intersection() -> AssignmentReport:
    """Quorum reads stay current even with the freshest copy offline."""
    instance = _instance(settle_time=10.0)
    instance.config.protocols.op_timeout = 10.0
    instance.start()
    writer = Transaction(ops=[Operation.write("x1", 42)], home_site="site1")
    process = instance.submit(writer)
    instance.sim.run(until=process)
    updated = [
        name
        for name in instance.catalog.sites_holding("x1")
        if instance.sites[name].store.read("x1")[0] == 42
    ]
    stale = [
        name
        for name in instance.catalog.sites_holding("x1")
        if instance.sites[name].store.read("x1")[0] != 42
    ]
    # Crash ONE updated copy holder; any read quorum must still intersect
    # the write quorum in the surviving updated copy.
    instance.injector.crash_now(updated[0])
    reader = Transaction(ops=[Operation.read("x1")], home_site=stale[0] if stale else "site4")
    process = instance.submit(reader)
    instance.sim.run(until=process)
    return AssignmentReport(
        name="quorum-intersection",
        narrative=(
            "A write reaches only a write quorum (2 of 3 copies); one "
            "updated holder then crashes.  Because r + w > V, every read "
            "quorum still contains an updated copy and version currency "
            "picks it over the stale one."
        ),
        observations={
            "updated_copies": updated,
            "stale_copies": stale,
            "crashed": updated[0],
            "reader_status": reader.status,
            "value_read": reader.reads.get("x1"),
        },
        passed=reader.committed and reader.reads.get("x1") == 42 and len(stale) == 1,
    )


def assignment_lost_update_nocc() -> AssignmentReport:
    """Remove concurrency control and produce a classic lost update."""
    import repro.classroom  # noqa: F401 - ensures NOCC is registered

    instance = _instance()
    instance.config.protocols.ccp = "NOCC"
    instance = RainbowInstance(instance.config)
    instance.start()
    # Two read-modify-write increments racing on x1.
    t1 = Transaction(ops=[Operation.read("x1"), Operation.write("x1", 1)],
                     home_site="site1")
    t2 = Transaction(ops=[Operation.read("x1"), Operation.write("x1", 1)],
                     home_site="site2")
    p1, p2 = instance.submit(t1), instance.submit(t2)
    instance.sim.run(until=instance.sim.all_of([p1, p2]))
    instance.sim.run(until=instance.sim.now + 50)

    collisions = instance.monitor.history.version_collisions()
    ok, _cycle = instance.monitor.history.check_serializable()
    return AssignmentReport(
        name="lost-update-nocc",
        narrative=(
            "With the (deliberately broken) NOCC protocol both increments "
            "read version 0 and both install version 1: one update is "
            "physically lost.  Rainbow's history checker flags the version "
            "collision — this is why CCPs exist."
        ),
        observations={
            "t1": t1.status,
            "t2": t2.status,
            "version_collisions": collisions,
            "serializable": ok,
        },
        passed=bool(collisions) and t1.committed and t2.committed,
    )


def assignment_crash_recovery() -> AssignmentReport:
    """Committed state survives a crash through the WAL."""
    instance = _instance(settle_time=10.0)
    instance.start()
    writer = Transaction(ops=[Operation.write("x1", 11)], home_site="site1")
    process = instance.submit(writer)
    instance.sim.run(until=process)
    site = instance.sites["site1"]
    value_before = site.store.read("x1")
    wal_before = len(site.wal)
    instance.injector.crash_now("site1")
    instance.injector.recover_now("site1")
    instance.sim.run(until=instance.sim.now + 30)
    value_after = site.store.read("x1")
    reader = Transaction(ops=[Operation.read("x1")], home_site="site1")
    process = instance.submit(reader)
    instance.sim.run(until=process)
    return AssignmentReport(
        name="crash-recovery",
        narrative=(
            "A committed write is forced to the WAL before the decision and "
            "applied to the durable store; once every participant has "
            "acknowledged the decision the log forgets it.  After a crash "
            "and recovery the committed value is intact and the recovered "
            "site serves transactions again."
        ),
        observations={
            "value_before_crash": value_before,
            "value_after_recovery": value_after,
            "wal_records": wal_before,
            "reader_status": reader.status,
            "value_read": reader.reads.get("x1"),
        },
        passed=(
            writer.committed
            and value_after == value_before
            and reader.committed
            and reader.reads.get("x1") == 11
        ),
    )


def assignment_distributed_deadlock() -> AssignmentReport:
    """A deadlock no single site can see, broken by edge-chasing probes."""
    config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3, seed=2)
    config.distributed_deadlock = True
    config.probe_interval = 5.0
    # Disable the local wait-for graph and make timeouts irrelevant: only
    # the probe protocol can break the cycle inside this scenario.
    config.protocols.ccp_options = {
        "deadlock_strategy": "timeout",
        "wait_timeout": 10_000.0,
    }
    config.network.latency = "constant"
    config.network.latency_params = {"value": 1.0}
    instance = RainbowInstance(config)
    instance.start()
    t1 = Transaction(
        ops=[Operation.write("x1", 1), Operation.write("x5", 1)], home_site="site1"
    )
    t2 = Transaction(
        ops=[Operation.write("x5", 2), Operation.write("x1", 2)], home_site="site2"
    )
    p1, p2 = instance.submit(t1), instance.submit(t2)
    instance.sim.run(until=instance.sim.all_of([p1, p2]))
    instance.sim.run(until=instance.sim.now + 60)
    probe_traffic = {
        mtype: count
        for mtype, count in instance.network.stats.by_type.items()
        if mtype.startswith("DDD_")
    }
    cycles = sum(
        site.deadlock_detector.stats.cycles_found for site in instance.sites.values()
    )
    victims = sum(
        site.deadlock_detector.stats.victims_aborted
        for site in instance.sites.values()
    )
    survivors = [txn for txn in (t1, t2) if txn.committed]
    return AssignmentReport(
        name="distributed-deadlock",
        narrative=(
            "T1 and T2 lock x1/x5 in opposite orders from different home "
            "sites, so each waits at a *different* site: no local wait-for "
            "graph contains the cycle.  Chandy–Misra–Haas probes chase the "
            "edges across sites and abort the younger transaction."
        ),
        observations={
            "t1": f"{t1.status} ({t1.abort_cause})",
            "t2": f"{t2.status} ({t2.abort_cause})",
            "probe_messages": probe_traffic,
            "cycles_found": cycles,
            "victims_aborted": victims,
        },
        passed=cycles >= 1 and victims >= 1 and len(survivors) == 1,
    )


def assignment_checkpoint_recovery() -> AssignmentReport:
    """The log forgets decided transactions; a checkpoint adds the store image."""
    instance = _instance(settle_time=10.0)
    instance.start()
    site = instance.sites["site1"]
    site.take_checkpoint()  # the store image before the writes
    first_image = site.wal.last_checkpoint()
    for value in range(1, 6):
        txn = Transaction(ops=[Operation.write("x1", value)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
    records_before = len(site.wal)
    truncated = site.take_checkpoint()
    records_after = len(site.wal)
    # LSNs count every record ever forced, including the released ones.
    records_forced = site.wal.last_checkpoint().lsn - first_image.lsn - 1
    site.crash()
    site.recover()
    instance.sim.run(until=instance.sim.now + 30)
    reader = Transaction(ops=[Operation.read("x1")], home_site="site1")
    process = instance.submit(reader)
    instance.sim.run(until=process)
    return AssignmentReport(
        name="checkpoint-recovery",
        narrative=(
            "Five committed writes force PREPARE, COMMIT and END records at "
            "their home site, but each transaction leaves the WAL once every "
            "participant has acknowledged its decision: recovery no longer "
            "needs it, because the store holds the write.  Only the earlier "
            "checkpoint's store image remains.  A fuzzy checkpoint replaces "
            "that image with the current store (keeping only in-doubt "
            "transactions and the decisions someone may still ask about), "
            "and a crash immediately after still recovers the committed "
            "value."
        ),
        observations={
            "wal_records_forced": records_forced,
            "wal_records_before": records_before,
            "records_truncated": truncated,
            "wal_records_after": records_after,
            "value_after_recovery": reader.reads.get("x1"),
        },
        passed=(
            records_before < records_forced
            and truncated > 0
            and records_after <= records_before
            and reader.committed
            and reader.reads.get("x1") == 5
        ),
    )


def all_assignments() -> list[Callable[[], AssignmentReport]]:
    """Every stock assignment, in teaching order."""
    return [
        assignment_deadlock,
        assignment_2pc_blocking,
        assignment_quorum_intersection,
        assignment_lost_update_nocc,
        assignment_crash_recovery,
        assignment_distributed_deadlock,
        assignment_checkpoint_recovery,
    ]
