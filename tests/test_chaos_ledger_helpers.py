"""The correctness ledger's helpers, on synthetic verdicts.

``benchmarks/test_chaos_ledger.py`` runs the whole chaos matrix and compares
it with the committed ledger; these tests pin the line format, the
comparison and the docs table without running a session.
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.chaos_ledger import (
    SEEDS,
    compare,
    load_ledger,
    red_count,
    render_line,
    reports,
    table,
)

GREEN = ("QC", "2PL", "2PC", "off")
RED = ("ROWAA", "MVTO", "3PC", "on")


def test_matrix_has_every_combination_both_ways():
    matrix = reports()
    assert len(matrix) == 48 and len(set(matrix)) == 48
    assert matrix[:2] == [("QC", "2PL", "2PC", "off"), ("QC", "2PL", "2PC", "on")]


def test_green_line():
    assert render_line(GREEN, {}, 25) == "QC+2PL+2PC flags-off: 0/25 red"


def test_red_line_lists_seeds_in_order_with_their_invariants():
    red = {13: ("serializability",), 4: ("convergence", "serializability")}
    line = render_line(RED, red, 25)
    assert line == (
        "ROWAA+MVTO+3PC flags-on: 2/25 red: "
        "4=convergence,serializability 13=serializability"
    )
    assert red_count(line) == 2


def test_equal_ledgers_pass():
    lines = [render_line(GREEN, {}, 25), render_line(RED, {3: ("atomicity",)}, 25)]
    assert compare(lines, list(lines)) == []


def test_changed_report_is_named_old_then_new():
    old = [render_line(RED, {3: ("atomicity",)}, 25)]
    new = [render_line(RED, {}, 25)]
    assert compare(old, new) == [
        "- ROWAA+MVTO+3PC flags-on: 1/25 red: 3=atomicity",
        "+ ROWAA+MVTO+3PC flags-on: 0/25 red",
    ]


def test_missing_and_extra_reports_are_named():
    green, red = render_line(GREEN, {}, 25), render_line(RED, {}, 25)
    assert compare([green, red], [green]) == [f"- {red}", "+ ROWAA+MVTO+3PC flags-on: missing"]
    assert compare([green], [green, red]) == ["- ROWAA+MVTO+3PC flags-on: missing", f"+ {red}"]


def test_table_counts_red_seeds_per_column():
    lines = [render_line(report, {}, 25) for report in reports()]
    lines[-1] = render_line(RED, {1: ("serializability",), 2: ("serializability",)}, 25)
    rendered = table(lines)
    assert "| ROWAA+MVTO | 0 | 0 | 0 | 2 |" in rendered
    assert rendered.endswith("Red cases: 0/600 flags off, 2/600 flags on.")


def test_committed_ledger_is_complete_and_in_order():
    lines = load_ledger()
    assert [line.split(":")[0] for line in lines] == [
        render_line(report, {}, len(SEEDS)).split(":")[0] for report in reports()
    ]


def test_chaos_doc_prints_the_committed_ledger_table():
    doc = Path(__file__).resolve().parent.parent / "docs" / "CHAOS.md"
    assert table(load_ledger()) in doc.read_text()
