"""Self-checks of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from layers import LayerTracer, entry_points  # noqa: E402
from session import run_session  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Small sessions keep the checks fast; the properties do not depend on size.
N = 150


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_simulation(name):
    workload = dataclasses.replace(WORKLOADS[name], session_txns=N)
    first = run_session(workload, 11)
    again = run_session(workload, 11)
    other = run_session(workload, 12)
    assert first.problems == [] and again.problems == [] and other.problems == []
    assert again.sim == first.sim
    assert again.response_times == first.response_times
    assert other.sim != first.sim


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_tracer_is_transparent_and_spans_nest(name):
    workload = dataclasses.replace(WORKLOADS[name], session_txns=N)
    originals = [vars(owner).get(attr) for owner, attr, _layer, _txn in entry_points()]
    plain = run_session(workload, 11)

    tracer = LayerTracer()
    tracer.install()
    try:
        traced = run_session(workload, 11, on_started=tracer.reset)
    finally:
        tracer.uninstall()

    assert [vars(owner).get(attr) for owner, attr, _l, _t in entry_points()] == originals
    assert traced.problems == []
    assert traced.sim == plain.sim
    # Every span lies inside its parent, so self times are never negative
    # and they add up to the time covered by top-level spans: self times
    # plus the uncovered remainder give the session's wall time.
    starts, ends, parents = tracer.span_start, tracer.span_end, tracer.span_parent
    for index, parent in enumerate(parents):
        assert starts[index] <= ends[index]
        if parent >= 0:
            assert starts[parent] <= starts[index] and ends[index] <= ends[parent]
    self_ns = tracer.self_ns()
    top_level = sum(d for d, parent in zip(tracer.durations(), parents) if parent < 0)
    assert min(self_ns.values()) >= 0
    assert sum(self_ns.values()) == top_level == tracer.top_level_ns() <= traced.wall_s * 1e9
