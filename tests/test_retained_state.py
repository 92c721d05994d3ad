"""Retained session state: spans and WAL records stay compact.

A session keeps every span until it ends, and the WAL keeps each record
until its transaction is decided (and some decisions longer), so their
representation bounds a traced session's memory.  These tests pin the
compact forms: spans as rows of five numeric columns with no object per
span, a tag table of (site, name, attributes) shared across rows, and
WAL records that share their empty containers.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from repro.experiments.common import build_instance
from repro.obs.spans import SpanRef
from repro.sim.kernel import Process
from repro.site.wal import LogRecord
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec
from tests.conftest import record_wal_appends

#: Upper bound on tracemalloc bytes that ``repro/obs/spans.py`` retains
#: per recorded span over a 400-transaction session (CPython 3.11,
#: 64-bit).  A span is one 28-byte row plus its share of the tag table,
#: which stops growing once every (site, name, attributes) combination
#: has been seen: ~39 B here.  Per-row lists of shared site, name, keys
#: and values references measured ~68 B; one slotted ``Span`` object per
#: span ~180 B.  A 40-transaction session, before the table fills, holds
#: ~83 B per span.
MAX_BYTES_PER_SPAN = 48

#: Upper bound on the ``sys.getsizeof`` bytes of the five numeric columns
#: per row: 4 + 4 + 8 + 8 + 4 = 28 B, plus the arrays' over-allocation.
MAX_COLUMN_BYTES_PER_ROW = 32

_SPEC = WorkloadSpec(
    n_transactions=40,
    arrival="poisson",
    arrival_rate=0.5,
    min_ops=2,
    max_ops=5,
    read_fraction=0.6,
)


def traced_3pc_session(tracing: bool = True, n_transactions: int = 40):
    """One small 3PC session (PRECOMMIT and END records appear).

    Returns the instance and every ``(site, record)`` its WALs appended.
    """
    instance = build_instance(4, 32, 3, acp="3PC", seed=5, tracing=tracing)
    appended = record_wal_appends(instance.sites.values())
    instance.run_workload(replace(_SPEC, n_transactions=n_transactions))
    return instance, appended


@pytest.fixture(scope="module")
def traced_run():
    return traced_3pc_session()


@pytest.fixture(scope="module")
def session(traced_run):
    return traced_run[0]


@pytest.fixture(scope="module")
def forced(traced_run) -> list[LogRecord]:
    """Every record forced during the session, released or not."""
    return [record for _site, record in traced_run[1]]


@pytest.fixture(scope="module")
def long_run():
    """A 400-transaction session, and the bytes ``obs/spans.py`` holds after it."""
    tracemalloc.start()
    try:
        instance, _appended = traced_3pc_session(n_transactions=400)
        # A full collection empties the interpreter's free lists, whose
        # cached tuples tracemalloc would charge to the line that first
        # allocated them though no span refers to them.
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.endswith("repro/obs/spans.py")
    )
    return instance, held


def test_spans_are_five_numeric_columns(session):
    columns = session.span_tracer.spans
    rows = len(columns)
    assert rows > 1000
    numbers = (columns.txn, columns.parent, columns.start, columns.end, columns.tag)
    for column in numbers:
        assert isinstance(column, array) and len(column) == rows
    per_row = sum(map(sys.getsizeof, numbers)) / rows
    assert per_row <= MAX_COLUMN_BYTES_PER_ROW, f"{per_row:.1f} column bytes per row"


def test_tag_table_stays_small(long_run):
    columns = long_run[0].span_tracer.spans
    assert len(columns) > 10_000
    assert len(columns.tags) * 10 < len(columns)
    assert set(columns.tag) == set(range(len(columns.tags)))


def test_spans_and_records_have_no_instance_dict(session, forced):
    spans = session.span_tracer.spans
    assert spans and forced
    assert not hasattr(SpanRef(1, 0), "__dict__")
    assert not any(hasattr(span, "__dict__") for span in spans)
    assert not any(hasattr(record, "__dict__") for record in forced)


def test_decision_records_share_their_empty_containers(forced):
    records = [
        record
        for record in forced
        if record.kind in ("COMMIT", "ABORT", "END", "PRECOMMIT")
    ]
    assert {record.kind for record in records} >= {"COMMIT", "END", "PRECOMMIT"}
    assert len({id(record.writes) for record in records}) == 1
    assert len({id(record.peers) for record in records}) == 1
    assert dict(records[0].writes) == {} and records[0].peers == ()


def test_prepare_records_keep_their_own_writes_and_peers(forced):
    prepares = [
        record for record in forced if record.kind == "PREPARE" and record.writes
    ]
    assert prepares
    assert len({id(record.writes) for record in prepares}) == len(prepares)
    assert all(record.peers for record in prepares)


def test_message_spans_share_one_keys_tuple(session):
    columns = session.span_tracer.spans
    tags = [columns.tags[tag] for tag in columns.tag]
    flights = [tag for tag in tags if tag[1] == "net.msg"]
    assert len(set(map(id, flights))) > 1
    keys = {id(attr_keys): attr_keys for _site, _name, attr_keys, *_values in flights}
    assert list(keys.values()) == [("mtype", "src", "dst")]


def test_derived_views_are_read_only(session):
    span = next(span for span in session.span_tracer.spans if span.parent is not None)
    assert span.parent_id == span.parent.span_id
    assert span.span_id == f"t{span.txn_id}:{span.site}:{span.seq}"
    span.attrs["injected"] = 1
    assert "injected" not in span.attrs
    for view in ("span_id", "parent_id", "attrs"):
        with pytest.raises(AttributeError):
            setattr(span, view, None)


def test_retained_bytes_per_span_stay_bounded(long_run):
    instance, held = long_run
    spans = instance.span_tracer.spans
    assert len(spans) > 10_000
    per_span = held / len(spans)
    assert per_span < MAX_BYTES_PER_SPAN, f"{per_span:.0f} B retained per span"


def _tracked_objects_added(tracing: bool) -> tuple[object, int]:
    """A session and how many GC-tracked objects outlive it with it."""
    gc.collect()
    before = len(gc.get_objects())
    instance, _appended = traced_3pc_session(tracing)
    gc.collect()
    return instance, len(gc.get_objects()) - before


def test_tracer_holds_no_tracked_object_per_span():
    _tracked_objects_added(True)  # warm-up: imports and module caches
    _plain, untraced = _tracked_objects_added(False)
    traced, with_spans = _tracked_objects_added(True)
    spans = len(traced.span_tracer.spans)
    assert spans > 1000
    assert with_spans - untraced < 0.05 * spans, (
        f"{with_spans - untraced} more tracked objects for {spans} spans"
    )


def test_finished_submissions_are_freed_mid_session():
    """The WLG keeps no finished submission's process until the session ends."""
    instance = build_instance(4, 32, 3, seed=5)
    instance.start()
    generator = WorkloadGenerator(
        instance.sim, instance.network, instance.directory, instance.catalog,
        replace(_SPEC, n_transactions=200), instance.streams.get("workload-1"),
        instance.monitor,
    )
    workload = generator.run()
    instance.sim.run(until=200.0)  # about half of the 200 arrivals at rate 0.5
    assert workload.is_alive
    assert 50 < len(generator.outcomes) < 200
    kept = [
        obj for obj in gc.get_objects()
        if isinstance(obj, Process) and obj.name.startswith("wlg:t") and not obj.is_alive
    ]
    assert kept == []
