"""Golden replay outputs: CLI runs whose stdout must not drift.

Each case is one ``python -m repro`` invocation.  Its stdout, minus the
lines that read the host clock, is kept byte for byte under
``tests/fixtures/golden/<case>.txt``; ``tests/test_golden.py`` replays every
case and compares.  A whole-session ``trace`` case (no ``--txn``) also
records the sha256 of the JSON it writes with ``--out`` and of the CSV it
writes with ``--csv``, so both exports are pinned too.

Regenerate the fixtures (only for an intended output change, and say which
outputs changed and why in the change log)::

    make golden
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "golden"

#: All three message-economy flags on, two sites per host (docs/PERF.md).
ECONOMY_FLAGS = [
    "--sites-per-host", "2",
    "--batch-site-ops", "--piggyback-prepare", "--latency-aware-routing",
]

CASES: dict[str, list[str]] = {
    "trace_seed7": ["trace", "--seed", "7"],
    # The slowest committed transaction of ``trace_seed7``: pins the span
    # tree rendering and the exact per-transaction breakdown.
    "trace_seed7_txn22": ["trace", "--seed", "7", "--txn", "22"],
    "quickstart_flags_off": ["quickstart", "--transactions", "300"],
    "quickstart_flags_on": ["quickstart", "--transactions", "300", *ECONOMY_FLAGS],
    "chaos_flags_on": ["chaos", "--seeds", "10", "-j", "1", "--no-shrink", *ECONOMY_FLAGS],
    # The default combination (QC/2PL/2PC) flags off pins QC's one-copy
    # retry waves, which run whenever a first wave loses a member.
    "chaos_qc_2pl_2pc": ["chaos", "--seeds", "25", "-j", "1", "--no-shrink"],
    "classroom": ["classroom"],
    # Flags-off 3PC runs pin the PRECOMMIT broadcast and its ack retries;
    # the ROWAA column includes a seed that the 1SR check still flags.
    "chaos_rowa_2pl_3pc": [
        "chaos", "--seeds", "10", "-j", "1", "--no-shrink",
        "--rcp", "ROWA", "--ccp", "2PL", "--acp", "3PC",
    ],
    "chaos_rowaa_mvto_3pc": [
        "chaos", "--seeds", "10", "-j", "1", "--no-shrink",
        "--rcp", "ROWAA", "--ccp", "MVTO", "--acp", "3PC",
    ],
}

#: Output lines derived from the host clock (they differ on every run).
HOST_CLOCK_MARKERS = ("Wall clock (s)", "Kernel events per second")


def render(case: str) -> str:
    """Run one case and return its normalized stdout."""
    argv = list(CASES[case])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    with tempfile.TemporaryDirectory() as scratch:
        # A ``--txn`` case reruns the same session, so its exports would
        # repeat the hashes its full-session case already pins.
        traced = argv[0] == "trace" and "--txn" not in argv
        out = Path(scratch) / "trace.json"
        csv = Path(scratch) / "trace.csv"
        if traced:
            argv += ["--out", str(out), "--csv", str(csv)]
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if completed.returncode not in (0, 1):  # chaos exits 1 on a red seed
            raise subprocess.CalledProcessError(
                completed.returncode, completed.args, completed.stdout, completed.stderr
            )
        lines = [
            line
            for line in completed.stdout.splitlines(keepends=True)
            if not any(marker in line for marker in HOST_CLOCK_MARKERS)
        ]
        if traced:
            for label, path in (("--out JSON", out), ("--csv CSV", csv)):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"sha256({label}) {digest}\n")
        if completed.returncode:
            lines.append(f"exit status {completed.returncode}\n")
    return "".join(lines)


def fixture_path(case: str) -> Path:
    return FIXTURES / f"{case}.txt"


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        fixture_path(case).write_text(render(case))
        print(f"wrote {fixture_path(case).relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
