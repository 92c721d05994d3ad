"""Tie-order fuzz gate: the default stack stays green whatever the same-instant order.

The kernel promises no order among entries due at one instant beyond
bootstrap-before-resume and callbacks in registration order, so the
protocols must not lean on one.  Every case of the default combination
(QC+2PL+2PC), seeds 1–25, with the message-economy flags off and on, runs
under tie seeds 1 and 2 and must stay green.  ``benchmarks/test_tie_order.py``
runs the same check at seeds 1–200.
"""

from __future__ import annotations

from tests.tie_order import red_cases


def test_default_stack_is_green_under_fuzzed_tie_order():
    assert red_cases(range(1, 26)) == []
