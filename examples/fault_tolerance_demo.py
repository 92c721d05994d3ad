"""Fault tolerance walkthrough: crashes, recovery, blocking, partitions.

Three deterministic scenarios built on the fault/recovery injector:

1. **Participant crash** — a replica holder dies mid-session and recovers;
   the WAL replays committed writes and the quorum protocol keeps the data
   available meanwhile.
2. **Coordinator crash after votes** — the classic 2PC blocking window:
   prepared participants are orphans until the coordinator returns
   (presumed abort); rerun with 3PC, the termination protocol settles them
   without the coordinator.
3. **Network partition** — a minority partition cannot assemble write
   quorums; after healing, the system proceeds.

Run:  python examples/fault_tolerance_demo.py
"""

from repro.core import RainbowConfig, RainbowInstance
from repro.txn import Operation, Transaction
from repro.workload import WorkloadSpec


def scenario_participant_crash() -> None:
    print("--- 1. participant crash & WAL recovery " + "-" * 30)
    config = RainbowConfig.quick(n_sites=4, n_items=16, replication_degree=3)
    config.faults.schedule.crashes.append(("site3", 30.0))
    config.faults.schedule.recoveries.append(("site3", 150.0))
    # Failure-tuned timeouts: stalls on the dead site resolve quickly.
    config.protocols.op_timeout = 15.0
    config.protocols.vote_timeout = 10.0
    config.protocols.ack_timeout = 8.0
    config.protocols.ccp_options = {"wait_timeout": 10.0}
    config.uncertainty_timeout = 25.0
    config.decision_retry = 10.0
    config.gc_interval = 20.0
    config.gc_timeout = 40.0
    instance = RainbowInstance(config)
    spec = WorkloadSpec(
        n_transactions=60, arrival="poisson", arrival_rate=0.4,
        min_ops=2, max_ops=4, read_fraction=0.4,
    )
    result = instance.run_workload(spec)
    site3 = instance.sites["site3"]
    print(
        f"commit rate {result.statistics.commit_rate:.2f} with site3 down "
        f"t=30..150; site3 recovered with {site3.store.writes_applied} writes "
        f"on disk, {len(site3.wal)} WAL records, serializable={result.serializable}"
    )


def scenario_coordinator_crash(acp: str) -> None:
    print(f"--- 2. coordinator crash after votes ({acp}) " + "-" * 26)
    config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3)
    config.protocols.acp = acp
    config.uncertainty_timeout = 20.0
    config.decision_retry = 10.0
    instance = RainbowInstance(config)
    instance.config.protocols.failpoint = "after_votes"
    instance.config.protocols.failpoint_arms = 1
    instance.start()

    txn = Transaction(
        ops=[Operation.write("x1", 1), Operation.write("x2", 2)], home_site="site1"
    )
    process = instance.submit(txn)
    instance.sim.run(until=process)
    crash_at = instance.sim.now
    instance.sim.run(until=crash_at + 120)
    orphans = sum(site.in_doubt_count() for site in instance.sites.values())
    print(f"t={instance.sim.now:.0f}: home crashed at t={crash_at:.0f}; "
          f"orphans while coordinator is down: {orphans}")
    instance.injector.recover_now("site1")
    instance.sim.run(until=instance.sim.now + 120)
    orphans = sum(site.in_doubt_count() for site in instance.sites.values())
    print(f"after coordinator recovery: orphans={orphans} "
          f"(decision: presumed abort)" if acp == "2PC"
          else f"after recovery: orphans={orphans}")


def scenario_partition() -> None:
    print("--- 3. network partition & heal " + "-" * 38)
    config = RainbowConfig.quick(
        n_sites=4, n_items=16, replication_degree=3, sites_per_host=1
    )
    # Minority {host4} cut off from the majority between t=20 and t=120.
    config.faults.schedule.partitions.append(
        (20.0, [["host1", "host2", "host3"], ["host4"]])
    )
    config.faults.schedule.heals.append(120.0)
    instance = RainbowInstance(config)
    spec = WorkloadSpec(
        n_transactions=60, arrival="poisson", arrival_rate=0.4,
        min_ops=2, max_ops=4, read_fraction=0.5, home_policy="round_robin",
    )
    result = instance.run_workload(spec)
    majority_homes = sum(
        1 for rec in instance.monitor.records
        if rec.status == "COMMITTED" and rec.home_site != "site4"
    )
    minority_homes = sum(
        1 for rec in instance.monitor.records
        if rec.status == "COMMITTED" and rec.home_site == "site4"
    )
    print(
        f"commit rate {result.statistics.commit_rate:.2f}; commits from "
        f"majority homes {majority_homes}, from the isolated site4 "
        f"{minority_homes}; serializable={result.serializable}"
    )


def main() -> None:
    scenario_participant_crash()
    print()
    scenario_coordinator_crash("2PC")
    print()
    scenario_coordinator_crash("3PC")
    print()
    scenario_partition()


if __name__ == "__main__":
    main()
