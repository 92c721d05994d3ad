"""EXP-CCP: concurrency-control protocols under contention.

Sweeps access skew (Zipf θ) for 2PL, TSO and MVTO at a fixed
multiprogramming level.  Expected shape:

* **2PL** — throughput decays with skew as blocking chains and deadlocks
  pile up; aborts are deadlock victims/lock timeouts.
* **TSO** — conflicts become immediate restarts: a higher abort rate than
  2PL at high skew, but no deadlocks and shorter waits.
* **MVTO** — read/write conflicts vanish (reads use old versions), so the
  mostly-read workload keeps both its commit rate and throughput longest.
* **OCC** — conflict-free execution; conflicts surface late, as failed
  validations = NO votes, i.e. *ACP* aborts rather than CCP aborts.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentTable, build_instance
from repro.experiments.runner import sweep
from repro.workload.spec import WorkloadSpec

__all__ = ["run"]


def _trial(
    ccp: str, theta: float, n_txns: int, mpl: int, n_sites: int, n_items: int, seed: int
) -> dict:
    """One contended session at a single (CCP, Zipf θ) point."""
    instance = build_instance(
        n_sites, n_items, 3, ccp=ccp, seed=seed, settle_time=50.0
    )
    spec = WorkloadSpec(
        n_transactions=n_txns,
        arrival="closed",
        mpl=mpl,
        min_ops=4,
        max_ops=10,  # long readers expose TSO's late-read rejections
        read_fraction=0.8,
        access="zipf",
        zipf_theta=theta,
    )
    result = instance.run_workload(spec)
    stats = result.statistics
    deadlocks = sum(
        site.cc.locks.stats.deadlocks
        for site in instance.sites.values()
        if site.cc.lock_based
    )
    return {
        "ccp": ccp,
        "theta": theta,
        "commit_rate": stats.commit_rate,
        "ccp_abort_rate": stats.abort_rates_by_cause.get("CCP", 0.0),
        "acp_abort_rate": stats.abort_rates_by_cause.get("ACP", 0.0),
        "throughput": stats.throughput,
        "mean_rt": stats.mean_response_time or 0.0,
        "deadlocks": deadlocks,
    }


def run(
    thetas: Sequence[float] = (0.0, 0.6, 0.9),
    ccps: Sequence[str] = ("2PL", "TSO", "MVTO", "OCC"),
    n_txns: int = 120,
    mpl: int = 8,
    n_sites: int = 4,
    n_items: int = 40,
    seed: int = 23,
    n_jobs: int | None = 1,
) -> ExperimentTable:
    """Sweep Zipf skew × CCP at fixed MPL (closed workload)."""
    table = ExperimentTable(
        title="EXP-CCP: 2PL vs TSO vs MVTO vs OCC under contention",
        columns=[
            "ccp",
            "theta",
            "commit_rate",
            "ccp_abort_rate",
            "acp_abort_rate",
            "throughput",
            "mean_rt",
            "deadlocks",
        ],
        notes="Closed workload (MPL constant); QC + 2PC fixed; Zipf item access.",
    )
    points = [
        {"ccp": ccp, "theta": theta} for ccp in ccps for theta in thetas
    ]
    rows = sweep(
        _trial, points, n_jobs=n_jobs,
        n_txns=n_txns, mpl=mpl, n_sites=n_sites, n_items=n_items, seed=seed,
    )
    for row in rows:
        table.add(**row)
    return table
