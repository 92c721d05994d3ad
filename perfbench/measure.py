"""Measurement: untraced sessions, traced sessions, and their metrics."""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import LayerTracer, clock
from session import percentile, run_session, time_setup

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
# Set-up takes milliseconds, so it is timed several times before every
# session, which spreads the samples over the whole run.
SETUPS_PER_SESSION = 10


def session_seeds(workload, seed: int) -> list[int]:
    """Seeds of the workload's sub-sessions: a pure function of ``--seed``."""
    return [seed * 1000 + index for index in range(workload.sessions)]


def measure(workload, seed: int, seconds: float):
    """Untraced sessions within ``seconds``, plus set-up samples.

    Every sub-session runs once; then they run again in turn while another
    one is expected to end before the time is up.  Returns ``(first runs,
    all runs, set-up times)``; a repeat that simulates differently from its
    first run is marked incorrect.
    """
    seeds = session_seeds(workload, seed)
    first: dict[int, object] = {}
    runs = []
    setups = []
    deadline = time.perf_counter() + seconds
    last_s = 0.0
    while len(runs) < len(seeds) or time.perf_counter() + last_s < deadline:
        began = time.perf_counter()
        session_seed = seeds[len(runs) % len(seeds)]
        gc.collect()
        setups += [time_setup(workload, session_seed) for _ in range(SETUPS_PER_SESSION)]
        gc.collect()
        session = run_session(workload, session_seed)
        setups.append(session.setup_s)
        reference = first.setdefault(session.seed, session)
        if session.sim != reference.sim:
            session.problems.append(f"seed {session.seed} repeat simulated differently")
        runs.append(session)
        last_s = time.perf_counter() - began
    return list(first.values()), runs, setups


def end_to_end(first, runs, setups) -> dict:
    """End-to-end metrics of one run.

    Simulated metrics pool the first run of every sub-session.  Wall-clock
    metrics are medians: ``setup_s`` of the set-up times, ``txn_per_s`` of
    the session throughputs.
    """

    def pooled(key: str) -> float:
        return sum(session.sim[key] for session in first)

    finished = pooled("finished")
    response = sorted(t for session in first for t in session.response_times)
    throughputs = [session.sim["finished"] / session.wall_s for session in runs]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "txn_per_s": (statistics.median(throughputs), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "commit_rate": (pooled("committed") / finished, "ratio"),
        "msgs_per_txn": (pooled("messages") / finished, "count/txn"),
        "round_trips_per_txn": (pooled("round_trips") / finished, "count/txn"),
        "resp_p50": (statistics.median(response), "simtime"),
        "resp_p99": (percentile(response, 0.99), "simtime"),
        "resp_samples": (len(response), "count"),
    }


def traced(workload, seed: int, seconds: float):
    """Sub-session ``seed`` untraced, then under the layer tracer, in pairs.

    Pairs run while another one is expected to end within ``seconds``; at
    least one runs.  Every session must simulate exactly like the first
    untraced one.  Returns ``(all sessions, per-layer metrics)``.  The
    metrics come from the traced session of median wall time; its spans are
    written to ``OUT_DIR``.
    """
    plain, runs = [], []
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while not runs or time.perf_counter() + pair_s < deadline:
        began = time.perf_counter()
        gc.collect()
        plain.append(run_session(workload, seed))

        tracer = LayerTracer()
        origin = []

        def started() -> None:
            tracer.reset()
            origin.append(clock())

        tracer.install()
        try:
            gc.collect()
            session = run_session(workload, seed, on_started=started)
        finally:
            tracer.uninstall()
        runs.append((session, tracer, origin[0]))
        pair_s = time.perf_counter() - began

    sessions = plain + [run[0] for run in runs]
    reference = plain[0]
    for session in sessions[1:]:
        differing = sorted(k for k in session.sim if session.sim[k] != reference.sim[k])
        if differing:
            session.problems.append(f"session simulated differently: {differing}")
    session, tracer, origin_ns = sorted(runs, key=lambda run: run[0].wall_s)[len(runs) // 2]
    tracer.write_csv(OUT_DIR / f"{workload.name}-spans.csv", origin_ns)
    overhead = statistics.median(run[0].wall_s for run in runs) / statistics.median(
        s.wall_s for s in plain
    )
    return sessions, per_layer(tracer, session, overhead)


def per_layer(tracer, session, overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced session; checks its span times."""
    sim = session.sim
    finished = sim["finished"]
    ktxn = finished / 1000

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    self_ns = tracer.self_ns()
    release_calls = tracer.calls_of("LockManager.release_all")
    metrics = {
        "sim.events_per_txn": (sim["events"] / finished, "count/txn"),
        "sim.processes_per_txn": (tracer.calls_of("Simulator.process") / finished, "count/txn"),
        "net.bytes_per_txn": (sim["bytes"] / finished, "bytes/txn"),
        "net.delivered_ratio": (ratio(sim["delivered"], sim["messages"]), "ratio"),
        "net.rpc_timeouts": (sim["rpc_timeouts"], "count"),
        "site.messages_handled_per_txn": (sim["messages_handled"] / finished, "count/txn"),
        "site.votes_yes_ratio": (
            ratio(sim["votes_yes"], sim["votes_yes"] + sim["votes_no"]),
            "ratio",
        ),
        "site.locks.acquires_per_txn": (sim["lock_acquired"] / finished, "count/txn"),
        "site.locks.wait_ratio": (ratio(sim["lock_waits"], sim["lock_acquired"]), "ratio"),
        "site.locks.deadlocks_per_ktxn": (sim["lock_deadlocks"] / ktxn, "count/ktxn"),
        "site.locks.wait_time_per_txn": (sim["lock_wait_time"] / finished, "simtime/txn"),
        "site.locks.release_us_per_call": (
            ratio(tracer.inclusive_ns("LockManager.release_all") / 1e3, release_calls),
            "us/call",
        ),
        "site.wal.appends_per_txn": (tracer.calls_of(layer="site.wal") / finished, "count/txn"),
        "site.storage.applies_per_txn": (
            tracer.calls_of("LocalStore.apply") / finished,
            "count/txn",
        ),
        "protocols.ccp.calls_per_txn": (
            tracer.calls_of(layer="protocols.ccp") / finished,
            "count/txn",
        ),
        "protocols.ccp.aborts_per_ktxn": (sim["aborts_ccp"] / ktxn, "count/ktxn"),
        "protocols.rcp.copy_accesses_per_op": (
            ratio(
                tracer.calls_of("Site.local_read", "Site.local_prewrite"),
                tracer.calls_of(layer="protocols.rcp"),
            ),
            "count/op",
        ),
        "protocols.acp.round_trips_saved_per_txn": (
            sim["round_trips_saved"] / finished,
            "count/txn",
        ),
        "protocols.acp.aborts_per_ktxn": (sim["aborts_acp"] / ktxn, "count/ktxn"),
        "txn.batched_ops_per_txn": (sim["batched_ops"] / finished, "count/txn"),
        "monitor.check_ms": (
            tracer.inclusive_ns("ProgressMonitor.check_serializable") / 1e6,
            "ms",
        ),
        "obs.spans_per_txn": (sim["obs_spans"] / finished, "count/txn"),
    }
    for layer, nanoseconds in self_ns.items():
        metrics[f"{layer}.self_ms_per_ktxn"] = (nanoseconds / 1e6 / ktxn, "ms/ktxn")

    # Self times must be non-negative and add up to the time inside
    # top-level spans, which lies within the separately clocked wall time.
    covered_ns = sum(self_ns.values())
    top_level_ns = tracer.top_level_ns()
    wall_ns = session.wall_s * 1e9
    print(
        f"trace: layer self times {covered_ns / 1e6:.3f} ms, top-level spans "
        f"{top_level_ns / 1e6:.3f} ms, traced wall {wall_ns / 1e6:.3f} ms"
    )
    if min(self_ns.values()) < 0 or covered_ns != top_level_ns or top_level_ns > wall_ns:
        session.problems.append("layer self times do not add up to the traced wall time")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    metrics["trace.coverage"] = (covered_ns / wall_ns, "ratio")
    # ``sim`` self time is the catch-all for code no wrapper names, so the
    # share outside it falls when a layer's entry points go unwrapped.
    metrics["trace.non_sim_share"] = ((covered_ns - self_ns["sim"]) / wall_ns, "ratio")
    return metrics


def report(metrics: dict) -> dict:
    """Print one line per metric; return the metrics as the result JSON has them."""
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_one(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; print its metrics; return the result object.

    ``--trace 0`` gives the end-to-end metrics of untraced sessions;
    ``--trace 1`` the per-layer metrics of the first sub-session, traced.
    """
    if trace:
        sessions, metrics = traced(workload, session_seeds(workload, seed)[0], seconds)
    else:
        first, sessions, setups = measure(workload, seed, seconds)
        metrics = end_to_end(first, sessions, setups)
    metrics = report(metrics)
    for session in sessions:
        for problem in session.problems:
            print(f"INCORRECT: {problem}", file=sys.stderr)
    return {
        "correct": not any(session.problems for session in sessions),
        "attempted": sum(session.submitted for session in sessions),
        "failed": sum(session.failed for session in sessions),
        "metrics": metrics,
    }
