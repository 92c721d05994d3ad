"""rainbow-lint: rule fixtures, escape hatch, filters, CLI, and the repo gate.

Every RBxxx rule has a known-bad fixture under ``tests/fixtures/lint/``
that must trigger *exactly* that rule, plus a corrected twin that must be
clean.  The final tests are the actual CI gate: ``repro lint src`` must
exit 0 on the repository itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import run_lint, render_json, render_text, rule_catalog
from repro.analysis.core import AnalysisError, all_rules
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
SRC = REPO_ROOT / "src"

RULE_IDS = ["RB100", "RB101", "RB102", "RB103", "RB104", "RB105", "RB106"]

#: rule -> minimum number of findings its bad fixture must produce.
EXPECTED_MIN_FINDINGS = {
    "RB100": 1,
    "RB101": 3,
    "RB102": 7,
    "RB103": 2,
    "RB104": 3,
    "RB105": 4,
    "RB106": 8,
}


def lint_fixture(name: str):
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {path}"
    return run_lint([str(path)])


# -- per-rule fixtures -------------------------------------------------------

@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_triggers_exactly_its_rule(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_bad.py")
    assert report.findings, f"{rule_id} fixture produced no findings"
    fired = {finding.rule_id for finding in report.findings}
    assert fired == {rule_id}, f"expected only {rule_id}, got {sorted(fired)}"
    assert len(report.findings) >= EXPECTED_MIN_FINDINGS[rule_id]
    for finding in report.findings:
        assert finding.line > 0 and finding.col > 0
        assert finding.path.endswith(f"{rule_id.lower()}_bad.py")


@pytest.mark.parametrize("rule_id", [r for r in RULE_IDS if r != "RB100"])
def test_good_fixture_is_clean(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_good.py")
    assert report.ok, (
        f"{rule_id} good fixture should be clean, got:\n" + render_text(report)
    )


def test_generator_ccp_call_is_rejected():
    """RB103: a CCP's read/prewrite are plain calls, never generators.

    The bad twin has a generator ``read`` and a ``prewrite`` made a
    generator by an unreachable ``yield``; the good twin returns answers
    and a ``Wait``.
    """
    bad = lint_fixture("rb103_ccp_bad.py")
    assert [(f.rule_id, f.line) for f in bad.findings] == [("RB103", 15), ("RB103", 19)]
    assert all("plain call" in f.message for f in bad.findings)
    good = lint_fixture("rb103_ccp_good.py")
    assert good.ok, render_text(good)


@pytest.mark.parametrize(
    "module, emission",
    [
        ("site/site.py", "self._emit(op, txn, item, value, version)"),
        ("site/site.py", 'self._emit("commit", txn)'),
        ("net/network.py", 'subscriber(msg, "delivered")'),
        ("txn/coordinator.py", 'subscriber("step", home.name, self.txn.txn_id, name, None, None)'),
    ],
    ids=["site-access", "site-decision", "network-send", "coordinator-step"],
)
def test_execution_stream_is_trace_code(tmp_path, module, emission):
    """RB106: an ``id()`` that reaches a stream's subscribers is flagged.

    The site emits through ``_emit`` (a function that loops over
    ``subscribers``); the network and the coordinator's ACP steps (on the
    home site's stream) call their subscribers in the loop.
    """
    source = (SRC / "repro" / module).read_text()
    assert source.count(emission) == 1
    broken = tmp_path / "mod.py"
    broken.write_text(source.replace(emission, emission.replace("(", "(id(self), ", 1)))
    findings = run_lint([str(broken)], select=["RB106"]).findings
    assert len(findings) == 1 and findings[0].message.startswith("`id(...)` in trace code")


def test_nested_trace_helper_is_reported_once(tmp_path):
    """RB106: a helper defined inside a trace function is in two scopes.

    ``check_module`` visits both function definitions, and the outer
    scope's walk covers the inner body too; the ``id()`` is one finding.
    """
    probe = tmp_path / "mod.py"
    probe.write_text(
        "def render_trace(spans):\n"
        "    def span_key(span):\n"
        "        return id(span)\n"
        "    return sorted(spans, key=span_key)\n"
    )
    findings = run_lint([str(probe)], select=["RB106"]).findings
    assert [(f.line, f.col) for f in findings] == [(3, 16)]


# -- the rb: ignore escape hatch ---------------------------------------------

def test_inline_ignore_suppresses_finding(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "def f(ctx):\n"
        "    ctx.broadcast('COMMIT')  # rb: ignore[RB101] -- exercised elsewhere\n"
        "    yield None\n"
    )
    report = run_lint([str(bad)])
    assert report.ok
    assert report.suppressed == 1


def test_inline_ignore_is_rule_specific(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "def f(ctx):\n"
        "    ctx.broadcast('COMMIT')  # rb: ignore[RB102] -- wrong rule id\n"
        "    yield None\n"
    )
    report = run_lint([str(bad)])
    assert [f.rule_id for f in report.findings] == ["RB101"]


def test_bare_ignore_suppresses_all_rules(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import time\n"
        "def f(ctx):\n"
        "    ctx.broadcast(time.time())  # rb: ignore\n"
        "    yield None\n"
    )
    assert run_lint([str(bad)]).ok


def test_file_level_ignore(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "# rb: ignore-file[RB102]\n"
        "import time\n"
        "def now():\n"
        "    return time.time()\n"
        "def later():\n"
        "    return time.monotonic()\n"
    )
    report = run_lint([str(bad)])
    assert report.ok
    assert report.suppressed == 2


def test_file_level_ignore_must_be_near_the_top(tmp_path):
    bad = tmp_path / "mod.py"
    lines = ["x = %d" % i for i in range(12)]
    lines.append("# rb: ignore-file[RB102]")
    lines.append("import time")
    lines.append("def now():")
    lines.append("    return time.time()")
    bad.write_text("\n".join(lines) + "\n")
    report = run_lint([str(bad)])
    assert [f.rule_id for f in report.findings] == ["RB102"]


# -- select / ignore filters -------------------------------------------------

def test_select_limits_rules():
    bad = FIXTURES / "rb102_bad.py"
    report = run_lint([str(bad)], select=["RB101"])
    assert report.ok  # RB102 findings exist but RB102 was not selected


def test_ignore_drops_rules():
    bad = FIXTURES / "rb102_bad.py"
    report = run_lint([str(bad)], ignore=["RB102"])
    assert report.ok


def test_unknown_rule_id_raises():
    with pytest.raises(AnalysisError):
        run_lint([str(FIXTURES)], select=["RB999"])
    with pytest.raises(AnalysisError):
        all_rules(ignore=["NOPE"])


def test_rb100_respects_filters():
    bad = FIXTURES / "rb100_bad.py"
    assert run_lint([str(bad)], ignore=["RB100"]).ok
    report = run_lint([str(bad)], select=["RB100"])
    assert [f.rule_id for f in report.findings] == ["RB100"]


# -- engine behaviour --------------------------------------------------------

def test_findings_are_deterministically_ordered():
    first = run_lint([str(FIXTURES)])
    second = run_lint([str(FIXTURES)])
    assert first.findings == second.findings
    ordered = [(f.path, f.line, f.col, f.rule_id) for f in first.findings]
    assert ordered == sorted(ordered)


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        run_lint([str(REPO_ROOT / "no_such_dir")])


def test_rule_catalog_lists_all_stock_rules():
    ids = [row[0] for row in rule_catalog()]
    assert ids == ["RB101", "RB102", "RB103", "RB104", "RB105", "RB106"]
    for _rule_id, name, severity, description in rule_catalog():
        assert name and severity in ("error", "warning") and description


def test_json_rendering_shape():
    report = run_lint([str(FIXTURES / "rb101_bad.py")])
    payload = json.loads(render_json(report))
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert len(payload["findings"]) == len(report.findings)
    entry = payload["findings"][0]
    assert set(entry) == {"path", "line", "col", "rule", "severity", "message"}
    assert entry["rule"] == "RB101"


def test_text_rendering_mentions_location_and_rule():
    report = run_lint([str(FIXTURES / "rb101_bad.py")])
    text = render_text(report)
    assert "RB101" in text and "rb101_bad.py" in text
    assert text.splitlines()[-1].startswith(f"{len(report.findings)} findings")


# -- CLI ---------------------------------------------------------------------

def test_cli_lint_exits_nonzero_on_findings(capsys):
    code = cli_main(["lint", str(FIXTURES / "rb101_bad.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "RB101" in out


def test_cli_lint_json(capsys):
    code = cli_main(["lint", "--format", "json", str(FIXTURES / "rb105_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert all(entry["rule"] == "RB105" for entry in payload["findings"])


def test_cli_lint_list_rules(capsys):
    code = cli_main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule_id in ("RB101", "RB102", "RB103", "RB104", "RB105", "RB106"):
        assert rule_id in out


def test_cli_lint_bad_select_is_usage_error(capsys):
    code = cli_main(["lint", "--select", "RB999", str(FIXTURES)])
    assert code == 2
    assert "RB999" in capsys.readouterr().err


def test_cli_lint_select_filter(capsys):
    code = cli_main(["lint", "--select", "RB101", str(FIXTURES / "rb102_bad.py")])
    capsys.readouterr()
    assert code == 0


# -- the repository gate -----------------------------------------------------

def test_repo_source_tree_is_lint_clean():
    report = run_lint([str(SRC)])
    assert report.ok, "rainbow-lint findings in src:\n" + render_text(report)


def test_cli_repo_gate_exit_zero(capsys):
    code = cli_main(["lint", str(SRC)])
    capsys.readouterr()
    assert code == 0


def test_benchmarks_and_examples_are_lint_clean():
    for tree in ("benchmarks", "examples"):
        path = REPO_ROOT / tree
        if path.exists():
            report = run_lint([str(path)])
            assert report.ok, f"findings in {tree}:\n" + render_text(report)
