"""Golden replay gate: CLI outputs stay byte-identical to the fixtures.

A refactor that must not change behaviour (the copy-access path, tracing
hooks, dispatch) is checked here against outputs recorded before it.  See
``tests/golden.py`` for the cases and how the fixtures are regenerated.
"""

from __future__ import annotations

import difflib

import pytest

from tests.golden import CASES, fixture_path, render


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_fixture(case):
    expected = fixture_path(case).read_text()
    actual = render(case)
    if actual != expected:
        diff = "".join(
            list(
                difflib.unified_diff(
                    expected.splitlines(keepends=True),
                    actual.splitlines(keepends=True),
                    fromfile=f"golden/{case}.txt",
                    tofile="actual",
                )
            )[:60]
        )
        pytest.fail(
            f"`repro {' '.join(CASES[case])}` drifted from its golden fixture. "
            "If the change is intended, regenerate with `make golden` and list "
            f"the changed outputs in the change log.\n{diff}"
        )
