"""Work-counter ledger gate: perfbench's seed-stable counters stay as committed.

Each workload runs once under ``perfbench/run.py --trace 1`` (a clean
verdict is required) and its counters are compared exactly with
``benchmarks/baseline.json``.  See ``benchmarks/baseline.py`` for which
counters are kept and how the ledger is regenerated.
"""

from __future__ import annotations

import pytest

from benchmarks.baseline import WORKLOADS, compare, load_ledger, render


def test_ledger_covers_every_workload():
    assert list(load_ledger()) == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_match_ledger(workload):
    differences = compare(load_ledger().get(workload, {}), render(workload))
    if differences:
        pytest.fail(
            f"perfbench --workload {workload} did different work than the ledger "
            "records. If the change is intended, run `make baseline` and record "
            "these deltas in CHANGES.md:\n" + "\n".join(differences)
        )
