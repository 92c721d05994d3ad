"""One Rainbow session through the public API, with its correctness checks.

A session is ``build_instance`` + ``start()`` (the set-up that is timed as
``setup_s``) followed by one ``run_workload`` (the wall time behind
``txn_per_s``).  Everything else reported here is *simulated*: counters and
response times that a seed fixes exactly, so two sessions with the same seed
must agree on all of them, traced or not.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

from repro.experiments.common import build_instance
from repro.txn.transaction import txn_id_scope
from repro.workload.spec import WorkloadSpec

from workloads import N_ITEMS, N_SITES, Workload


@dataclass
class Session:
    """What one session measured and whether its outputs were correct."""

    seed: int
    setup_s: float
    wall_s: float
    sim: dict[str, float]
    response_times: list[float]
    problems: list[str] = field(default_factory=list)

    @property
    def submitted(self) -> int:
        return int(self.sim["submitted"])

    @property
    def failed(self) -> int:
        """Failed operations: every txn of an incorrect session, else LOST ones."""
        return self.submitted if self.problems else int(self.sim["lost"])


def build(workload: Workload, seed: int):
    """Build and start the workload's instance (the timed set-up)."""
    instance = build_instance(N_SITES, N_ITEMS, seed=seed, **workload.instance)
    instance.start()
    return instance


def time_setup(workload: Workload, seed: int) -> float:
    """Wall seconds of one ``build_instance`` + ``start()``."""
    with txn_id_scope():
        started = time.perf_counter()
        build(workload, seed)
        return time.perf_counter() - started


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_session(workload: Workload, seed: int, *, on_started=None) -> Session:
    """Run one session of ``workload`` and check its outputs.

    ``on_started`` is called between ``start()`` and ``run_workload`` (the
    layer tracer drops what bring-up recorded there).  Transaction ids are
    scoped to the session, so ids — and the timestamps derived from them —
    depend on the seed alone, not on what ran earlier in the process.
    """
    n = workload.session_txns
    spec = WorkloadSpec(n_transactions=n, **workload.spec)
    with txn_id_scope():
        started = time.perf_counter()
        instance = build(workload, seed)
        setup_s = time.perf_counter() - started

        net = instance.network.stats
        sites = list(instance.sites.values())
        base = {
            "events": instance.sim.processed_events,
            "messages": net.sent,
            "delivered": net.delivered,
            "round_trips": net.round_trips,
            "bytes": net.bytes_sent,
            "rpc_timeouts": net.rpc_timeouts,
            "messages_handled": sum(site.stats.messages_handled for site in sites),
        }
        if on_started is not None:
            on_started()
        started = time.perf_counter()
        result = instance.run_workload(spec)
        wall_s = time.perf_counter() - started

    monitor = instance.monitor
    stats = result.statistics
    outcomes = {status: 0 for status in ("COMMITTED", "ABORTED", "LOST")}
    for outcome in result.outcomes:
        outcomes[outcome.status] = outcomes.get(outcome.status, 0) + 1
    response = sorted(monitor.response_times)
    locks = [site.cc.locks.stats for site in sites if hasattr(site.cc, "locks")]
    tracer = instance.span_tracer
    sim = {
        "submitted": monitor.submitted,
        "finished": stats.finished,
        "committed": stats.committed,
        "aborted": stats.aborted,
        "lost": outcomes["LOST"],
        "wlg_committed": outcomes["COMMITTED"],
        "wlg_aborted": outcomes["ABORTED"],
        "aborts_ccp": stats.aborts_by_cause.get("CCP", 0),
        "aborts_acp": stats.aborts_by_cause.get("ACP", 0),
        "aborts_rcp": stats.aborts_by_cause.get("RCP", 0),
        "events": instance.sim.processed_events - base["events"],
        "messages": net.sent - base["messages"],
        "delivered": net.delivered - base["delivered"],
        "round_trips": net.round_trips - base["round_trips"],
        "bytes": net.bytes_sent - base["bytes"],
        "rpc_timeouts": net.rpc_timeouts - base["rpc_timeouts"],
        "messages_handled": (
            sum(site.stats.messages_handled for site in sites) - base["messages_handled"]
        ),
        "votes_yes": sum(site.stats.votes_yes for site in sites),
        "votes_no": sum(site.stats.votes_no for site in sites),
        "lock_acquired": sum(lock.acquired for lock in locks),
        "lock_waits": sum(lock.waits for lock in locks),
        "lock_deadlocks": sum(lock.deadlocks for lock in locks),
        "lock_wait_time": sum(lock.total_wait_time for lock in locks),
        "round_trips_saved": stats.round_trips_saved,
        "batched_ops": stats.batched_ops,
        "obs_spans": len(tracer.spans) if tracer is not None else 0,
        "resp_samples": len(response),
        "resp_p50": statistics.median(response) if response else 0.0,
        "resp_p99": percentile(response, 0.99) if response else 0.0,
        "sim_end": instance.sim.now,
    }

    problems = []
    if result.serializable is not True:
        problems.append(f"1SR check failed (cycle {result.serialization_cycle})")
    if not stats.finished == monitor.submitted == n:
        problems.append(
            f"finished {stats.finished} / submitted {monitor.submitted} / expected {n}"
        )
    if sum(outcomes.values()) != n:
        problems.append(f"committed + aborted + lost = {sum(outcomes.values())} != {n}")
    return Session(
        seed=seed,
        setup_s=setup_s,
        wall_s=wall_s,
        sim=sim,
        response_times=response,
        problems=problems,
    )
