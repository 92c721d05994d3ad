"""The 'full semester' integration test: everything on one instance.

One Rainbow domain lives through an entire course's worth of activity:
bring-up, GUI administration, manual transactions, a simulated workload,
fault injection and recovery, a second workload, config save/reload,
and a final report — asserting global consistency at the end.
"""

import pytest

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.gui.applet import GuiApplet
from repro.monitor.report import session_report
from repro.monitor.tracing import ExecutionTracer
from repro.txn.transaction import Operation, Transaction
from repro.web.tier import RainbowWebTier
from repro.workload.spec import WorkloadSpec


@pytest.mark.slow
def test_full_semester(tmp_path):
    # --- The TA sets up the domain --------------------------------------
    config = RainbowConfig.quick(
        n_sites=4, n_items=24, replication_degree=3, sites_per_host=2, seed=21
    )
    config.sample_interval = 20.0
    config.settle_time = 60.0
    instance = RainbowInstance(config)
    instance.start()
    tracer = ExecutionTracer(instance)
    tier = RainbowWebTier(instance)

    # --- Students log in and poke around --------------------------------
    admin = GuiApplet(tier)
    assert admin.login("admin", "admin") == "admin"
    student = GuiApplet(tier)
    assert student.login("student", "student") == "student"
    assert len(student.lookup_sites()) == 4

    # Manual transactions (lab 0)
    t1 = Transaction(
        ops=[Operation.write("x1", 1), Operation.read("x2")], home_site="site1"
    )
    outcome = student.submit_transaction(t1)
    assert outcome["status"] == "COMMITTED"
    assert outcome["reads"]["x2"] == 0

    # --- Session 1: simulated workload ----------------------------------
    result1 = instance.run_workload(
        WorkloadSpec(n_transactions=40, arrival_rate=0.5, read_fraction=0.6,
                     min_ops=2, max_ops=4, increment_fraction=0.3)
    )
    assert result1.serializable is True
    assert result1.statistics.commit_rate > 0.5

    # --- Mid-semester failure drill -------------------------------------
    student.crash_site("site2")
    drill = Transaction(ops=[Operation.write("x1", 99)], home_site="site1")
    process = instance.submit(drill)
    instance.sim.run(until=process)
    assert drill.committed  # QC tolerates the minority outage
    student.recover_site("site2")
    instance.sim.run(until=instance.sim.now + 60)

    # --- Session 2 after recovery ----------------------------------------
    result2 = instance.run_workload(
        WorkloadSpec(n_transactions=40, arrival_rate=0.5, read_fraction=0.6,
                     min_ops=2, max_ops=4)
    )
    assert result2.serializable is True
    assert result2.statistics.finished == 82  # manual + 40 + drill + 40

    # --- Config save/reload round trip -----------------------------------
    saved = tmp_path / "semester.json"
    admin.save_configuration(saved)
    reloaded = RainbowConfig.load(saved)
    reloaded.validate()
    assert reloaded.site_names() == config.site_names()
    # The reloaded config boots a working clone.
    clone = RainbowInstance(reloaded)
    clone_result = clone.run_workload(WorkloadSpec(n_transactions=5, arrival_rate=1.0))
    assert clone_result.statistics.finished == 5

    # --- Global end-state consistency ------------------------------------
    stats = result2.statistics
    assert stats.orphans_current == 0
    for site in instance.sites.values():
        assert site.up
        assert site.cc.active_transactions() == set()
    ok, _witness = instance.monitor.history.check_serializable()
    assert ok
    assert instance.monitor.history.reads_see_committed_versions() == []
    assert instance.monitor.history.version_collisions() == []

    # Replica convergence: every item's copies at or below max version are
    # consistent with quorum semantics (the max-version value is unique).
    for item in instance.catalog.item_names():
        copies = [
            instance.sites[name].store.read(item)
            for name in instance.catalog.sites_holding(item)
        ]
        top_version = max(version for _value, version in copies)
        top_values = {value for value, version in copies if version == top_version}
        assert len(top_values) == 1, item

    # --- The lab report renders ------------------------------------------
    report = session_report(instance, result2, tracer=tracer, title="Semester wrap")
    assert "Semester wrap" in report
    assert "one-copy serializable: **True**" in report
    # Time series kept sampling across the whole semester.
    assert len(instance.monitor.series["t"]) > 10
