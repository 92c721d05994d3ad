"""A finished transaction is freed by reference counting.

Each perfbench stack runs a few hundred transactions with the cyclic
collector off.  With the session's result and its instance still held, a
full collection must then find nothing unreachable: a transaction's state
is a tree owned by its coordinator, freed when the coordinator ends, and no
callback, timer or stored abort holds a reference back to itself.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.common import build_instance
from repro.workload.spec import WorkloadSpec

_WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

TRANSACTIONS = 300


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def unreachable() -> tuple[int, list[tuple[str, int]]]:
    """What a full collection finds now, and its most common types."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(8)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found, kinds


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_finished_transactions_leave_no_cyclic_garbage(name, collector_off):
    workload = workloads.WORKLOADS[name]
    instance = build_instance(workloads.N_SITES, workloads.N_ITEMS, seed=3, **workload.instance)
    instance.start()
    gc.collect()  # whatever bring-up left is not the transactions'
    result = instance.run_workload(WorkloadSpec(n_transactions=TRANSACTIONS, **workload.spec))
    found, kinds = unreachable()
    assert result.statistics.finished == TRANSACTIONS
    assert found == 0, f"{found} objects left in reference cycles: {kinds}"
