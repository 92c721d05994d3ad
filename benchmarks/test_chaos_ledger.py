"""Correctness ledger gate: every chaos verdict of the protocol matrix stays as committed.

Runs all 48 reports (every RCP × CCP × ACP, message-economy flags off and
on, seeds 1–25, no shrinking) across every core and compares their lines
exactly with ``benchmarks/chaos_ledger.txt``.  See
``benchmarks/chaos_ledger.py`` for the line format and how the ledger is
regenerated.
"""

from __future__ import annotations

import pytest

from benchmarks.chaos_ledger import compare, load_ledger, reports, run


def test_ledger_covers_every_report():
    assert len(load_ledger()) == len(reports())


def test_chaos_verdicts_match_ledger():
    differences = compare(load_ledger(), run(n_jobs=0))
    if differences:
        pytest.fail(
            "chaos verdicts differ from benchmarks/chaos_ledger.txt. A case that "
            "turned green lands as a ledger diff (`make chaos-ledger`); a case that "
            "turned red needs its root cause and owning open item in CHANGES.md:\n"
            + "\n".join(differences)
        )
