"""Causal span tracing: determinism, phase accounting, exporters, wiring."""

from __future__ import annotations

import csv
import io
import json
import tracemalloc

import pytest

from repro import obs
from repro.experiments.common import build_instance
from repro.net.message import Message, MessageType
from repro.workload.spec import WorkloadSpec


#: Upper bound on the tracemalloc peak, per span, of writing a session's
#: Chrome JSON and CSV to files (CPython 3.11, 64-bit).  Written 64 events
#: at a time, keeping only the views of parents whose children are still
#: to come, an export peaks at ~420-445 B here; keeping one view per span
#: measured ~600 B, and building every event dict and then one string
#: ~3,200 B.
MAX_EXPORT_BYTES_PER_SPAN = 600


def traced_session(seed: int = 7, n_transactions: int = 15):
    """One small traced session; returns (instance, result)."""
    instance = build_instance(3, 24, 2, seed=seed, tracing=True)
    result = instance.run_workload(
        WorkloadSpec(
            n_transactions=n_transactions,
            arrival="poisson",
            arrival_rate=0.5,
            min_ops=2,
            max_ops=5,
            read_fraction=0.6,
        )
    )
    return instance, result


@pytest.fixture(scope="module")
def session():
    return traced_session()


class TestSpanModel:
    def test_span_ids_follow_txn_site_seq_scheme(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        assert tracer.spans, "traced session produced no spans"
        for span in tracer.spans:
            txn_part, site, seq = span.span_id.split(":")
            assert txn_part == f"t{span.txn_id}"
            assert site == span.site
            assert int(seq) >= 1

    def test_every_traced_txn_has_one_root(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        for txn_id in tracer.txn_ids():
            root = tracer.root(txn_id)
            assert root is not None and root.name == "txn"
            assert root.parent_id is None

    def test_children_nest_inside_parents(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        for span in tracer.spans:
            parent = span.parent
            if parent is None or span.end is None or parent.end is None:
                continue
            assert span.parent_id == parent.span_id
            assert span.start >= parent.start - 1e-9

    def test_message_reply_propagates_span(self):
        tracer = obs.SpanTracer(sim=None)
        span = tracer.record(1, "site1", "rcp.wave", start=0.0, end=1.0)
        msg = Message(
            mtype=MessageType.READ, src="a/s1", dst="b/s2",
            payload={}, span=span,
        )
        assert msg.reply(MessageType.READ_REPLY, {}).span is span
        assert tracer.spans[span.row].span_id == "t1:site1:1"

    def test_spans_read_as_a_sequence_of_linked_views(self, session):
        instance, _result = session
        spans = instance.span_tracer.spans
        listed = list(spans)
        assert len(listed) == len(spans)
        for index in (0, 1, len(spans) // 2, -1):
            view = spans[index]
            assert view.span_id == listed[index].span_id
            assert view.parent_id == listed[index].parent_id
        assert [view.span_id for view in spans[3:9]] == [
            view.span_id for view in listed[3:9]
        ]
        with pytest.raises(IndexError):
            spans[len(spans)]
        children = [view for view in listed if view.parent is not None]
        assert all(view.parent in listed for view in children[:50])

    def test_per_txn_lookups_match_a_full_scan(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        listed = list(tracer.spans)
        assert tracer.txn_ids() == sorted({view.txn_id for view in listed})
        for txn_id in tracer.txn_ids():
            scanned = [view for view in listed if view.txn_id == txn_id]
            own = tracer.txn_spans(txn_id)
            assert [(v.span_id, v.parent_id, v.start, v.end) for v in own] == [
                (v.span_id, v.parent_id, v.start, v.end) for v in scanned
            ]
            root = next(view for view in scanned if view.name == "txn")
            assert tracer.root(txn_id).span_id == root.span_id
        assert tracer.root(max(tracer.txn_ids()) + 1) is None
        assert tracer.txn_spans(max(tracer.txn_ids()) + 1) == []

    def test_values_intern_by_type_as_well_as_value(self):
        tracer = obs.SpanTracer(sim=None)
        tracer.record(1, "site1", "txn", start=0.0, end=1.0, attempt=1)
        tracer.record(1, "site1", "ccp.prepare", start=1.0, end=1.0, vote=True)
        tracer.record(1, "site1", "ccp.prepare", start=1.0, end=1.0, vote=1.0)
        values = [view.attr_values[0] for view in tracer.spans]
        assert [type(value) for value in values] == [int, bool, float]
        for attempt in (1, True, 1.0, 1, True):
            tracer.record(2, "site1", "txn", start=0.0, end=1.0, attempt=attempt)
        columns = tracer.spans
        tags = [columns.tags[tag] for tag in columns.tag[3:]]
        assert len(set(map(id, tags))) == 3
        values = [attr_values for _site, _name, _keys, attr_values, _types in tags]
        assert [type(value) for value, in values] == [int, bool, float, int, bool]
        assert [type(view.attr_values[0]) for view in columns[3:]] == [
            int, bool, float, int, bool
        ]

    def test_txn_id_beyond_the_column_raises(self):
        tracer = obs.SpanTracer(sim=None)
        columns = tracer.spans
        top = 2 ** (8 * columns.txn.itemsize) - 1
        tracer.record(top, "site1", "txn", start=0.0, end=1.0)
        with pytest.raises(OverflowError):
            tracer.record(top + 1, "site1", "txn", start=1.0, end=2.0)
        assert tracer.txn_ids() == [top]
        assert tracer.root(top).span_id == f"t{top}:site1:1"
        numbers = (columns.txn, columns.parent, columns.start, columns.end, columns.tag)
        assert [len(column) for column in numbers] == [1] * 5


class TestPhaseAccounting:
    def test_breakdown_sums_to_response_time(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        checked = 0
        for record in instance.monitor.records:
            if record.response_time is None or tracer.root(record.txn_id) is None:
                continue
            breakdown = obs.txn_phase_breakdown(tracer, record.txn_id)
            parts = sum(
                breakdown[key] for key in (*obs.PHASES, "other")
            )
            assert parts == pytest.approx(breakdown["total"], abs=1e-9)
            assert breakdown["total"] == pytest.approx(record.response_time)
            checked += 1
        assert checked > 0

    def test_aggregate_stats_cover_known_phases(self, session):
        instance, _result = session
        stats = instance.monitor.output_statistics()
        assert stats.phase_breakdown, "tracing on but no phase breakdown"
        for phase, entry in stats.phase_breakdown.items():
            assert phase in obs.PHASES
            assert entry["max_per_txn"] >= entry["mean_per_txn"] >= 0.0

    def test_critical_path_walks_root_to_leaf(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        txn_id = tracer.txn_ids()[0]
        path = obs.critical_path(tracer, txn_id)
        assert path[0][0].name == "txn"
        for (parent, _), (child, _) in zip(path, path[1:]):
            assert child.parent_id == parent.span_id
        assert all(self_time >= 0.0 for _span, self_time in path)


class TestDeterminismAndPerturbation:
    def test_same_seed_exports_identical_bytes(self):
        first, _ = traced_session(seed=11, n_transactions=10)
        second, _ = traced_session(seed=11, n_transactions=10)
        assert obs.spans_to_chrome_json(first.span_tracer.spans) == \
            obs.spans_to_chrome_json(second.span_tracer.spans)
        assert obs.spans_to_csv(first.span_tracer.spans) == \
            obs.spans_to_csv(second.span_tracer.spans)

    def test_tracing_does_not_perturb_the_run(self):
        traced, traced_result = traced_session(seed=13, n_transactions=10)
        plain = build_instance(3, 24, 2, seed=13)
        plain_result = plain.run_workload(
            WorkloadSpec(
                n_transactions=10,
                arrival="poisson",
                arrival_rate=0.5,
                min_ops=2,
                max_ops=5,
                read_fraction=0.6,
            )
        )
        assert plain.span_tracer is None
        for field in ("committed", "aborted", "messages_total", "round_trips",
                      "mean_response_time", "orphaned_txns"):
            assert getattr(plain_result.statistics, field) == \
                getattr(traced_result.statistics, field)
        assert plain_result.statistics.phase_breakdown == {}

    def test_normalize_renumbers_by_first_appearance(self, session):
        instance, _result = session
        normalized = obs.normalize_spans(instance.span_tracer.spans)
        seen: list[int] = []
        for span in normalized:
            if span.txn_id not in seen:
                seen.append(span.txn_id)
        assert seen == list(range(1, len(seen) + 1))
        for span in normalized:
            assert span.span_id.startswith(f"t{span.txn_id}:")


class TestExporters:
    def test_chrome_json_shape(self, session):
        instance, _result = session
        payload = json.loads(obs.spans_to_chrome_json(instance.span_tracer.spans))
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events[0]["ph"] == "M" and events[0]["args"]["name"] == "rainbow"
        spans = [event for event in events if event["ph"] == "X"]
        assert len(spans) == len(instance.span_tracer.spans)
        for event in spans:
            assert event["dur"] >= 0.0
            assert event["cat"] in (*obs.PHASES, "structure")

    def test_csv_has_one_row_per_span(self, session):
        instance, _result = session
        text = obs.spans_to_csv(instance.span_tracer.spans)
        lines = text.strip().splitlines()
        assert lines[0].startswith("txn_id,span_id,parent_id,name,phase")
        assert len(lines) == len(instance.span_tracer.spans) + 1

    def test_votes_export_as_booleans(self, session):
        instance, _result = session
        spans = instance.span_tracer.spans
        payload = json.loads(obs.spans_to_chrome_json(spans))
        votes = [
            event["args"]["vote"]
            for event in payload["traceEvents"]
            if event["name"] == "ccp.prepare"
        ]
        assert votes and set(votes) <= {"True", "False"}
        rows = csv.DictReader(io.StringIO(obs.spans_to_csv(spans)))
        votes = [json.loads(row["attrs"])["vote"] for row in rows if row["name"] == "ccp.prepare"]
        assert votes and all(isinstance(vote, bool) for vote in votes)

    def test_chunks_join_to_one_indented_dump(self, session):
        instance, _result = session
        spans = instance.span_tracer.spans
        for labeled in ([], [("rainbow", spans)], [("a", spans), ("b", instance.span_tracer)]):
            text = "".join(obs.chrome_json_chunks(labeled))
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1)

    def test_exports_to_files_hold_no_copy_of_the_trace(self, session, tmp_path):
        instance, _result = session
        spans = instance.span_tracer.spans
        out, table = tmp_path / "trace.json", tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.writelines(obs.chrome_json_chunks([("rainbow", spans)]))
            assert obs.spans_to_csv(spans, str(table)) is None
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_span = peak / len(spans)
        assert per_span < MAX_EXPORT_BYTES_PER_SPAN, f"{per_span:.0f} B peak per span"
        assert out.read_text(encoding="utf-8") == obs.spans_to_chrome_json(spans)
        assert table.read_text(encoding="utf-8") == obs.spans_to_csv(spans)

    def test_multi_session_export_gets_one_pid_each(self):
        first, _ = traced_session(seed=3, n_transactions=5)
        second, _ = traced_session(seed=4, n_transactions=5)
        payload = json.loads(
            obs.tracers_to_chrome_json(
                [("a", first.span_tracer.spans), ("b", second.span_tracer.spans)]
            )
        )
        pids = {event["pid"] for event in payload["traceEvents"]}
        assert pids == {1, 2}


class TestChaosWiring:
    def test_failing_case_ships_history_and_trace(self):
        from repro.chaos.engine import run_chaos_case

        report = run_chaos_case(2, ccp="NOCC", trace=True)
        assert not report.ok, "NOCC seed 2 was expected to violate invariants"
        assert report.history, "failing case must carry its textbook history"
        assert " " in report.history
        payload = json.loads(report.trace_json)
        assert payload["traceEvents"]
        again = run_chaos_case(2, ccp="NOCC", trace=True)
        assert again.history == report.history
        assert again.trace_json == report.trace_json

    def test_green_case_stays_lean(self):
        from repro.chaos.engine import run_chaos_case

        report = run_chaos_case(3, intensity=0.0, n_transactions=10)
        assert report.ok
        assert report.history == "" and report.trace_json == ""

    def test_suite_report_renders_wrapped_history(self):
        from repro.chaos.engine import ChaosCaseReport
        from repro.chaos.suite import ChaosSuiteResult, render_suite_report

        case = ChaosCaseReport(
            seed=9,
            chunks=(),
            violations={"serializability": ["x1@1 written by both T1 and T2"]},
            history="  ".join(f"r{i}[x1]" for i in range(40)),
        )
        text = render_suite_report(ChaosSuiteResult(cases=[case]))
        assert "execution history (textbook notation):" in text
        history_lines = [
            line for line in text.splitlines() if line.startswith("    r")
        ]
        assert len(history_lines) > 1
        assert all(len(line) <= 96 for line in history_lines)


class TestGlobalRegistry:
    def test_global_flag_traces_new_instances(self):
        obs.enable_global_tracing()
        try:
            instance = build_instance(3, 12, 2, seed=5)
            assert instance.span_tracer is not None
            labels = [label for label, _tracer in obs.collected_tracers()]
            assert labels == ["session1"]
        finally:
            obs.disable_global_tracing()
        assert obs.collected_tracers() == []
