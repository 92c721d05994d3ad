"""Work-counter ledger: perfbench's seed-stable per-layer counters, pinned.

``perfbench/run.py --trace 1`` reports per-layer metrics of a traced
session.  The ones that read the host clock (``*_ms*``, ``*_us_*``,
``trace.*``) vary from run to run; the rest count simulated work and are a
function of the seed alone.  Those counters, for every workload, are kept
in ``benchmarks/baseline.json``; ``benchmarks/test_baseline.py`` reruns each
workload and compares them exactly, so a change in the work the program
does lands as a reviewed diff of the ledger.

Regenerate the ledger (only for an intended change in work, and record the
changed counters, ``old → new``, in the change log)::

    make baseline
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER = REPO_ROOT / "benchmarks" / "baseline.json"

#: The perfbench workloads the ledger covers.
WORKLOADS = ("paper-default", "hotspot-rowa-3pc", "colocated-mvto-traced")

#: Every perfbench per-layer metric that is a function of the seed alone.
COUNTERS = (
    "sim.events_per_txn",
    "sim.processes_per_txn",
    "net.bytes_per_txn",
    "net.delivered_ratio",
    "net.rpc_timeouts",
    "site.messages_handled_per_txn",
    "site.votes_yes_ratio",
    "site.locks.acquires_per_txn",
    "site.locks.wait_ratio",
    "site.locks.deadlocks_per_ktxn",
    "site.locks.wait_time_per_txn",
    "site.wal.appends_per_txn",
    "site.storage.applies_per_txn",
    "protocols.ccp.calls_per_txn",
    "protocols.ccp.aborts_per_ktxn",
    "protocols.rcp.copy_accesses_per_op",
    "protocols.acp.round_trips_saved_per_txn",
    "protocols.acp.aborts_per_ktxn",
    "txn.batched_ops_per_txn",
    "obs.spans_per_txn",
)

#: One traced run per workload; its sessions attempt a fixed number of txns.
RUN_ARGS = ("--seed", "1", "--seconds", "1", "--trace", "1")


def counters(verdict: dict) -> dict[str, float]:
    """The ledger counters of one perfbench verdict (its last output line).

    Raises ``ValueError`` unless the run was correct and no operation failed.
    """
    if verdict.get("correct") is not True or verdict.get("failed") != 0:
        raise ValueError(
            f"perfbench run is not clean: correct={verdict.get('correct')!r}, "
            f"failed={verdict.get('failed')!r}"
        )
    metrics = verdict.get("metrics", {})
    return {name: metrics[name]["value"] for name in COUNTERS if name in metrics}


def render(workload: str) -> dict[str, float]:
    """Run ``workload`` through perfbench and return its ledger counters."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"perfbench --workload {workload} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return counters(json.loads(completed.stdout.splitlines()[-1]))


def compare(expected: dict[str, float], actual: dict[str, float]) -> list[str]:
    """One ``name: old → new`` line per counter that differs or is missing."""
    differences = []
    for name in list(expected) + [name for name in actual if name not in expected]:
        old, new = expected.get(name, "missing"), actual.get(name, "missing")
        if old != new:
            differences.append(f"{name}: {old} → {new}")
    return differences


def load_ledger() -> dict[str, dict[str, float]]:
    return json.loads(LEDGER.read_text())


def main() -> None:
    ledger = {workload: render(workload) for workload in WORKLOADS}
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"wrote {LEDGER.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
