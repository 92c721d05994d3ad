"""Id-offset gate: outputs do not depend on the values of transaction ids.

A session numbers its transactions from 1 (``RainbowInstance.txn_ids``),
but nothing it decides may lean on that: a walk, a tie-break or a victim
choice that follows id *values* rather than the order the ids were handed
out would change when every id is shifted by a constant.  Each case below
runs once with ids from 1 and once from ``k``, by advancing every new
instance's counter (a test-only patch, not a setting), and compares.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.chaos import render_suite_report, run_chaos_suite
from repro.core.instance import RainbowInstance
from repro.experiments import ablation
from repro.experiments.common import build_instance
from repro.workload.spec import WorkloadSpec

_WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

OFFSETS = (12, 100)

#: Output statistics and report lines read from the host clock.
HOST_CLOCK_FIELDS = ("wall_clock_seconds", "events_per_second")
HOST_CLOCK_MARKERS = ("Wall clock (s)", "Kernel events per second")


@pytest.fixture
def ids_from(monkeypatch):
    """``ids_from(k)``: every instance built afterwards numbers from ``k``."""
    init = RainbowInstance.__init__

    def start_at(k: int) -> None:
        def shifted(self, config):
            init(self, config)
            for _skipped in range(k - 1):
                next(self.txn_ids)

        monkeypatch.setattr(RainbowInstance, "__init__", shifted)

    return start_at


def ablation_table() -> str:
    return ablation.run().to_text()


def chaos_report() -> str:
    """``repro chaos --seeds 25 -j 1 --no-shrink`` (QC+2PL+2PC), in process."""
    report = render_suite_report(run_chaos_suite(list(range(1, 26)), n_jobs=1, shrink=False))
    return "\n".join(
        line for line in report.splitlines()
        if not any(marker in line for marker in HOST_CLOCK_MARKERS)
    )


def hotspot_counters() -> dict:
    """One ``hotspot-rowa-3pc`` session's simulated counters.

    Seed 2: with the lock manager walking its blockers in the order of a
    set of ids, this 600-transaction session moved at both offsets (seed 1
    of this size happened not to).
    """
    workload = workloads.WORKLOADS["hotspot-rowa-3pc"]
    instance = build_instance(workloads.N_SITES, workloads.N_ITEMS, seed=2, **workload.instance)
    result = instance.run_workload(WorkloadSpec(n_transactions=600, **workload.spec))
    stats = asdict(result.statistics)
    for name in HOST_CLOCK_FIELDS:
        stats.pop(name)
    locks = [asdict(site.cc.locks.stats) for site in instance.sites.values()]
    assert sum(lock["deadlocks"] for lock in locks) > 0, "the session must walk a cycle"
    return {
        "statistics": stats,
        "locks": locks,
        "network": instance.network.stats.snapshot(),
        "processed_events": instance.sim.processed_events,
        "serializable": result.serializable,
    }


@pytest.mark.parametrize("k", OFFSETS)
@pytest.mark.parametrize(
    "output", [ablation_table, chaos_report, hotspot_counters],
    ids=["ablation", "chaos_qc_2pl_2pc", "hotspot_rowa_3pc"],
)
def test_output_is_the_same_for_shifted_ids(output, k, ids_from):
    from_one = output()
    ids_from(k)
    assert output() == from_one


def test_each_instance_numbers_its_transactions_from_one():
    numbered = []
    for _session in range(2):
        instance = build_instance(4, 16, 3, seed=5)
        instance.run_workload(WorkloadSpec(n_transactions=5))
        numbered.append(sorted(record.txn_id for record in instance.monitor.records))
    assert numbered[0][:5] == [1, 2, 3, 4, 5]
    assert numbered[1] == numbered[0]
