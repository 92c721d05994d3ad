"""Plumbing tests for the experiment modules (tiny parameters).

The benchmarks assert the full qualitative shapes; these tests only verify
that every experiment runs end-to-end at reduced scale and produces
well-formed tables.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    ablation,
    acp_blocking,
    availability,
    ccp_contention,
    load_balance,
    quorum_traffic,
    scalability,
    session,
)
from repro.experiments.common import ExperimentTable, build_instance


class TestCommon:
    def test_build_instance_defaults(self):
        instance = build_instance(3, 9, 2)
        assert len(instance.sites) == 3
        assert len(instance.catalog) == 9

    def test_build_instance_failure_profile(self):
        instance = build_instance(2, 4, 2, failure_profile=True)
        assert instance.config.protocols.op_timeout == 15.0
        assert instance.config.gc_timeout == 40.0

    def test_build_instance_ccp_options(self):
        instance = build_instance(2, 4, 2, ccp_options={"deadlock_strategy": "timeout"})
        assert instance.sites["site1"].cc.locks.strategy == "timeout"

    def test_build_instance_config_override(self):
        instance = build_instance(2, 4, 2, uncertainty_timeout=12.5)
        assert instance.config.uncertainty_timeout == 12.5


class TestExperimentRuns:
    def test_quorum_traffic_tiny(self):
        table = quorum_traffic.run(degrees=(1, 3), read_fractions=(0.5,), n_txns=20)
        assert isinstance(table, ExperimentTable)
        assert len(table.rows) == 4  # 2 RCPs x 2 degrees
        assert all(row["msgs_per_txn"] >= 0 for row in table.rows)

    def test_availability_tiny(self):
        table = availability.run(mttfs=(None, 200.0), n_txns=20)
        assert len(table.rows) == 6  # 3 RCPs (ROWA, ROWAA, QC) x 2 MTTFs
        assert {row["rcp"] for row in table.rows} == {"ROWA", "ROWAA", "QC"}
        fault_free = [row for row in table.rows if row["mttf"] == "inf"]
        assert all(row["crashes"] == 0 for row in fault_free)

    def test_ccp_contention_tiny(self):
        table = ccp_contention.run(thetas=(0.0,), ccps=("2PL", "TSO"), n_txns=20, mpl=4)
        assert len(table.rows) == 2
        assert {row["ccp"] for row in table.rows} == {"2PL", "TSO"}

    def test_scalability_tiny(self):
        table = scalability.run(site_counts=(1, 2), txns_per_site=8)
        assert len(table.rows) == 2
        assert table.rows[0]["sites"] == 1

    def test_acp_blocking_tiny(self):
        table = acp_blocking.run(outage=60.0)
        assert len(table.rows) == 3
        assert table.rows[0]["acp"] == "2PC"

    def test_acp_coordinator_crash_is_in_the_injector_log(self):
        """The home site's crash is an injected fault: logged, and its outage measured."""
        acp, failpoint, step = acp_blocking.SCENARIOS[0]
        instance, row = acp_blocking.scenario(acp, failpoint, step, outage=300.0)
        assert (row["acp"], row["failpoint"]) == ("2PC", "after_votes")
        assert instance.injector.crash_count() == 1
        assert [event.kind for event in instance.injector.log] == ["crash", "recover"]
        assert instance.injector.downtime_report()["site1"] == 300.0

    def test_load_balance_tiny(self):
        table = load_balance.run(n_txns=24)
        assert {row["policy"] for row in table.rows} == {"round_robin", "weighted"}

    def test_ablation_tiny(self):
        table = ablation.run(strategies=("detect", "timeout"), n_txns=20, mpl=4)
        assert len(table.rows) == 2

    def test_session_returns_panel(self):
        result, panel, instance = session.run(n_txns=20)
        assert result.statistics.finished == 20
        assert "Tx Processing Output" in panel
        assert instance.monitor.series["t"]


def _markdown_rows(table: ExperimentTable) -> str:
    """A table's rows as EXPERIMENTS.md writes them (floats as ``to_text``)."""

    def fmt(value) -> str:
        return f"{value:.3f}" if isinstance(value, float) else str(value)

    return "\n".join(
        "| " + " | ".join(fmt(row[col]) for col in table.columns) + " |"
        for row in table.rows
    )


@pytest.mark.parametrize(
    "experiment",
    [ablation, acp_blocking, load_balance, scalability],
    ids=["ablation", "acp_blocking", "load_balance", "scalability"],
)
def test_ablation_table_matches_experiments_md(experiment):
    """EXP-ABL, -ACP, -LB and -SCALE in EXPERIMENTS.md are ``repro experiment`` output."""
    document = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text()
    assert _markdown_rows(experiment.run()) in document
