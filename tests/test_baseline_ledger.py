"""The work-counter ledger's checks, on synthetic perfbench verdicts.

``benchmarks/test_baseline.py`` runs perfbench and compares against the
committed ledger; these tests pin the verdict check and the comparison
without running a session.
"""

from __future__ import annotations

import pytest

from benchmarks.baseline import COUNTERS, compare, counters, load_ledger


def verdict(overrides=(), *, correct=True, failed=0) -> dict:
    """A perfbench verdict: every counter 1.0, plus two host-clock metrics."""
    values = {name: 1.0 for name in COUNTERS}
    values.update({"sim.self_ms_per_ktxn": 944.5, "txn_per_s": 600.0})
    values.update(overrides)
    return {
        "correct": correct,
        "attempted": 4000,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }


def test_equal_counters_pass():
    assert compare(counters(verdict()), counters(verdict())) == []


def test_changed_counter_is_named_old_to_new():
    changed = counters(verdict({"sim.events_per_txn": 129.8035}))
    assert compare(counters(verdict()), changed) == ["sim.events_per_txn: 1.0 → 129.8035"]


def test_host_clock_metrics_are_ignored():
    noisy = verdict({"sim.self_ms_per_ktxn": 1.5, "txn_per_s": 10.0})
    assert compare(counters(verdict()), counters(noisy)) == []


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 3), (None, 0)])
def test_unclean_verdict_fails(correct, failed):
    with pytest.raises(ValueError, match="not clean"):
        counters(verdict(correct=correct, failed=failed))


def test_counter_missing_from_run_fails():
    run = verdict()
    del run["metrics"]["site.wal.appends_per_txn"]
    assert compare(counters(verdict()), counters(run)) == [
        "site.wal.appends_per_txn: 1.0 → missing"
    ]


def test_counter_missing_from_ledger_fails():
    ledger = counters(verdict())
    del ledger["obs.spans_per_txn"]
    assert compare(ledger, counters(verdict())) == ["obs.spans_per_txn: missing → 1.0"]


def test_committed_ledger_holds_every_counter():
    for workload, values in load_ledger().items():
        assert list(values) == list(COUNTERS), workload
