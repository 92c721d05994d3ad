"""The benchmark's workloads: one protocol stack and one offered load each.

Every workload runs 8 sites and 200 items.  Load comes from Rainbow's own
``WorkloadGenerator`` in simulated time, so the seed alone fixes the
simulated work; only wall-clock figures vary from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

N_SITES = 8
N_ITEMS = 200


@dataclass(frozen=True)
class Workload:
    """Arguments for ``build_instance`` and ``WorkloadSpec`` of one workload."""

    name: str
    instance: dict[str, Any]
    spec: dict[str, Any]
    session_txns: int  # transactions per sub-session: the 1SR check's history
    sessions: int  # sub-sessions pooled into one run's simulated metrics


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's default stack with independent users: kernel process
        # fan-out, network sends and uncontended lock traffic dominate.  Its
        # sub-sessions are the longest, so the monitor's 1SR check runs over
        # the longest committed history.
        Workload(
            name="paper-default",
            instance=dict(replication_degree=3, rcp="QC", ccp="2PL", acp="2PC"),
            spec=dict(
                arrival="poisson",
                arrival_rate=0.5,
                min_ops=3,
                max_ops=6,
                read_fraction=0.7,
                access="uniform",
            ),
            session_txns=3000,
            sessions=5,
        ),
        # Write-heavy hot spot under a closed loop of terminals: lock waits,
        # queues, deadlock victims and regranting releases, ROWA write-all
        # fan-out, and the 3PC precommit round with its WAL records.
        Workload(
            name="hotspot-rowa-3pc",
            instance=dict(replication_degree=3, rcp="ROWA", ccp="2PL", acp="3PC"),
            spec=dict(
                arrival="closed",
                mpl=10,
                min_ops=3,
                max_ops=6,
                read_fraction=0.4,
                increment_fraction=0.5,
                access="hotspot",
                hotspot_fraction=0.1,
                hotspot_probability=0.65,
            ),
            session_txns=2000,
            sessions=6,
        ),
        # Co-located sites over a LAN/WAN with every message-economy
        # optimization and the system's causal tracer on: the only workload
        # that batches copy accesses, piggybacks prepares, routes by latency
        # and records repro.obs spans (tracing=True, as ``repro trace`` users
        # run it).  MVTO never touches the lock manager.
        Workload(
            name="colocated-mvto-traced",
            instance=dict(
                replication_degree=4,
                rcp="QC",
                ccp="MVTO",
                acp="2PC",
                sites_per_host=4,
                latency="lanwan",
                batch_site_ops=True,
                piggyback_prepare=True,
                latency_aware_routing=True,
                tracing=True,
            ),
            spec=dict(
                arrival="poisson",
                arrival_rate=0.3,
                min_ops=4,
                max_ops=6,
                read_fraction=0.6,
                access="uniform",
            ),
            session_txns=2000,
            sessions=3,
        ),
    )
}
