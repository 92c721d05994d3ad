"""Rainbow session benchmark: whole sessions through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` reports the end-to-end metrics of untraced sessions.  A run
has a fixed set of sub-sessions whose seeds derive from ``--seed``; each runs
once, then they run again in turn while time is left within ``--seconds``.
The simulated metrics pool the sub-sessions' first runs; the wall-clock
figures are medians over all runs.  ``--trace 1`` runs the first sub-session
untraced and then under :class:`layers.LayerTracer`, in pairs within
``--seconds``, reports per-layer metrics and writes the spans of one traced
session to ``.perfbench/``.  ``--workload all`` runs every workload in both
modes, each in a child process.

Lines before the last name the metrics with their values and units; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit with an error."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no Rainbow sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def run_all(names, seed: int, seconds: float) -> dict:
    """Every workload in both modes, each in its own process (so peak RSS is its own)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in ("0", "1"):
            print(f"== {name} --trace {trace}", flush=True)
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE,
                text=True,
                check=True,
            )
            *lines, last = child.stdout.splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(last)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}:{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from measure import run_one
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(list(WORKLOADS), args.seed, args.seconds)
    elif args.workload in WORKLOADS:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
