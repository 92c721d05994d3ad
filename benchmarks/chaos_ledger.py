"""Correctness ledger: every chaos verdict of the whole protocol matrix, pinned.

The chaos suite (``repro chaos``) runs one protocol stack at a time.  This
ledger runs all of them: every RCP × CCP × ACP combination, with the
message-economy flags off and on, seeds 1–25, without shrinking.  Each of
the 48 reports becomes one line naming its red seeds and, for each red
seed, the invariants it violates::

    QC+2PL+3PC flags-off: 2/25 red: 9=serializability 13=serializability

``benchmarks/chaos_ledger.txt`` holds the committed lines, and
``benchmarks/test_chaos_ledger.py`` reruns the matrix and compares them
exactly, so a case that turns green or red lands as a reviewed diff.  The
cases are independent simulations, so the output is byte-identical for
every ``-j``.

Regenerate the ledger (only for an intended change in a verdict, and name
each moved case and its cause in the change log)::

    make chaos-ledger

Print the markdown matrix table of docs/CHAOS.md from the committed ledger::

    python -m benchmarks.chaos_ledger --table
"""

from __future__ import annotations

import argparse
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER = REPO_ROOT / "benchmarks" / "chaos_ledger.txt"

RCPS = ("QC", "ROWA", "ROWAA")
CCPS = ("2PL", "TSO", "MVTO", "OCC")
ACPS = ("2PC", "3PC")
SEEDS = tuple(range(1, 26))

#: ``run_chaos_case`` settings of each flag column; "on" is CI's
#: message-economy configuration of ``repro chaos``.
FLAGS = {
    "off": {},
    "on": {
        "sites_per_host": 2,
        "batch_site_ops": True,
        "piggyback_prepare": True,
        "latency_aware_routing": True,
    },
}

#: One report: (rcp, ccp, acp, flags).
Report = tuple[str, str, str, str]


def reports() -> list[Report]:
    """Every report of the matrix, in ledger order."""
    return [
        (rcp, ccp, acp, flags)
        for rcp in RCPS
        for ccp in CCPS
        for acp in ACPS
        for flags in FLAGS
    ]


def render_line(report: Report, red: dict[int, tuple[str, ...]], total: int) -> str:
    """One ledger line: the report, its red count and each red seed's invariants."""
    rcp, ccp, acp, flags = report
    line = f"{rcp}+{ccp}+{acp} flags-{flags}: {len(red)}/{total} red"
    if red:
        line += ": " + " ".join(
            f"{seed}={','.join(invariants)}" for seed, invariants in sorted(red.items())
        )
    return line


def run(n_jobs: int | None = 0) -> list[str]:
    """Run the whole matrix and return its ledger lines."""
    from repro.chaos.engine import run_chaos_case
    from repro.experiments.runner import Trial, run_trials

    matrix = reports()
    trials = [
        Trial(
            run_chaos_case,
            {"seed": seed, "rcp": rcp, "ccp": ccp, "acp": acp, **FLAGS[flags]},
        )
        for rcp, ccp, acp, flags in matrix
        for seed in SEEDS
    ]
    cases = run_trials(trials, n_jobs=n_jobs)
    lines = []
    for index, report in enumerate(matrix):
        chunk = cases[index * len(SEEDS):(index + 1) * len(SEEDS)]
        red = {case.seed: tuple(case.violated_invariants()) for case in chunk if not case.ok}
        lines.append(render_line(report, red, len(SEEDS)))
    return lines


def red_count(line: str) -> int:
    """The number of red seeds a ledger line records."""
    return int(line.split(": ")[1].split("/")[0])


def table(lines: list[str]) -> str:
    """Markdown table of red seeds per combination, one column per ACP × flags."""
    counts = {line.split(":")[0]: red_count(line) for line in lines}
    columns = [(acp, flags) for acp in ACPS for flags in FLAGS]
    out = [
        "| RCP+CCP | " + " | ".join(f"{acp} flags {flags}" for acp, flags in columns) + " |",
        "|---|" + "---:|" * len(columns),
    ]
    for rcp in RCPS:
        for ccp in CCPS:
            cells = [
                str(counts.get(f"{rcp}+{ccp}+{acp} flags-{flags}", "?"))
                for acp, flags in columns
            ]
            out.append(f"| {rcp}+{ccp} | " + " | ".join(cells) + " |")
    totals = {
        flags: sum(red_count(line) for line in lines if f" flags-{flags}:" in line)
        for flags in FLAGS
    }
    total_cases = len(RCPS) * len(CCPS) * len(ACPS) * len(SEEDS)
    out.append("")
    out.append(
        "Red cases: "
        + ", ".join(f"{totals[flags]}/{total_cases} flags {flags}" for flags in FLAGS)
        + "."
    )
    return "\n".join(out)


def compare(expected: list[str], actual: list[str]) -> list[str]:
    """One ``- old`` / ``+ new`` pair per report whose line differs or is missing."""
    def by_report(lines: list[str]) -> dict[str, str]:
        return {line.split(":")[0]: line for line in lines}

    old, new = by_report(expected), by_report(actual)
    differences = []
    for key in list(old) + [key for key in new if key not in old]:
        if old.get(key) != new.get(key):
            differences.append(f"- {old.get(key, key + ': missing')}")
            differences.append(f"+ {new.get(key, key + ': missing')}")
    return differences


def load_ledger() -> list[str]:
    return LEDGER.read_text().splitlines()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-j", "--jobs", type=int, default=0,
                        help="worker processes (0 = all cores); same output for every N")
    parser.add_argument("--table", action="store_true",
                        help="print the committed ledger as a markdown table instead")
    args = parser.parse_args()
    if args.table:
        print(table(load_ledger()))
        return
    LEDGER.write_text("\n".join(run(args.jobs)) + "\n")
    print(f"wrote {LEDGER.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
