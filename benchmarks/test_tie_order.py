"""Tie-order fuzz gate at chaos scale: QC+2PL+2PC, seeds 1–200.

The tier-1 test ``tests/test_tie_order.py`` runs seeds 1–25; this runs
the 200 seeds of CI's default chaos steps, each under tie seeds 1 and 2,
with the message-economy flags off and on (800 cases, in this process).
"""

from __future__ import annotations

from tests.tie_order import red_cases


def test_default_stack_is_green_under_fuzzed_tie_order_200_seeds():
    assert red_cases(range(1, 201)) == []
