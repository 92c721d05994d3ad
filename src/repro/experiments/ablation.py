"""EXP-ABL: ablation of the 2PL deadlock-handling strategy.

DESIGN.md calls out deadlock handling as a key design choice.  This
ablation runs the same contended workload under the four strategies the
lock manager supports:

* ``detect`` — wait-for-graph cycle detection, youngest victim (default);
* ``timeout`` — no graph, abort waits longer than the lock timeout;
* ``wait_die`` — non-preemptive timestamp priority;
* ``wound_wait`` — preemptive timestamp priority.

Expected shape: each strategy exercises only its own mechanism; wait-die
restarts many young transactions; wound-wait trades young holders' work
for short waits; detection keeps the timeout backstop for distributed cycles.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentTable, build_instance
from repro.experiments.runner import sweep
from repro.workload.spec import WorkloadSpec

__all__ = ["run"]


def _trial(
    strategy: str, n_txns: int, mpl: int, n_sites: int, n_items: int, seed: int
) -> dict:
    """One contended session under a single deadlock strategy."""
    instance = build_instance(
        n_sites,
        n_items,
        3,
        ccp_options={"deadlock_strategy": strategy},
        seed=seed,
        settle_time=50.0,
    )
    spec = WorkloadSpec(
        n_transactions=n_txns,
        arrival="closed",
        mpl=mpl,
        min_ops=4,
        max_ops=6,
        read_fraction=0.6,
        access="zipf",
        zipf_theta=0.7,
    )
    result = instance.run_workload(spec)
    stats = result.statistics
    lock_stats = [site.cc.locks.stats for site in instance.sites.values()]
    return {
        "strategy": strategy,
        "commit_rate": stats.commit_rate,
        "throughput": stats.throughput,
        "deadlocks": sum(ls.deadlocks for ls in lock_stats),
        "timeouts": sum(ls.timeouts for ls in lock_stats),
        "wounds": sum(ls.wounds for ls in lock_stats),
        "deaths": sum(ls.deaths for ls in lock_stats),
        "mean_rt": stats.mean_response_time or 0.0,
    }


def run(
    strategies: Sequence[str] = ("detect", "timeout", "wait_die", "wound_wait"),
    n_txns: int = 120,
    mpl: int = 8,
    n_sites: int = 4,
    n_items: int = 32,
    seed: int = 61,
    n_jobs: int | None = 1,
) -> ExperimentTable:
    """Compare deadlock strategies on one contended closed workload."""
    table = ExperimentTable(
        title="EXP-ABL: 2PL deadlock-handling ablation",
        columns=[
            "strategy",
            "commit_rate",
            "throughput",
            "deadlocks",
            "timeouts",
            "wounds",
            "deaths",
            "mean_rt",
        ],
        notes="Same contended closed workload (QC + 2PC) for every strategy.",
    )
    rows = sweep(
        _trial, [{"strategy": strategy} for strategy in strategies], n_jobs=n_jobs,
        n_txns=n_txns, mpl=mpl, n_sites=n_sites, n_items=n_items, seed=seed,
    )
    for row in rows:
        table.add(**row)
    return table
