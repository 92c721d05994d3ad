"""RCP vote policies: ROWA and ROWA-A run quorum consensus's one wave loop.

ROWA is the textbook special case of quorum consensus with a read quorum
of one vote and a write quorum of every vote.  The two are checked to be
the same protocol, not merely similar: a seeded session under site
crashes yields the same statistics, statuses and abort details under
ROWA as under QC configured with ``r = 1`` and ``w = V``.
"""

from dataclasses import asdict

from repro.chaos import FaultChunk, schedule_from_chunks
from repro.experiments.common import build_instance
from repro.protocols.rcp import (
    AvailableCopiesController,
    QuorumConsensusController,
    RowaController,
)
from repro.workload.spec import WorkloadSpec

#: Output statistics read from the host clock (differ on every run).
HOST_CLOCK_FIELDS = ("wall_clock_seconds", "events_per_second")

#: Overlapping crash windows, so some writes find a copy down and some
#: reads lose their first copy holder.
CRASHES = (
    FaultChunk("crash", 20.0, 60.0, target="site2"),
    FaultChunk("crash", 45.0, 90.0, target="site4"),
    FaultChunk("crash", 110.0, 150.0, target="site1"),
)


def _session(rcp: str, *, rowa_quorums: bool = False):
    instance = build_instance(4, 12, 3, rcp=rcp, seed=11, failure_profile=True)
    if rowa_quorums:
        for name in instance.catalog.item_names():
            spec = instance.catalog.item(name)
            spec.read_quorum = 1
            spec.write_quorum = spec.total_votes
    instance.config.faults.schedule = schedule_from_chunks(CRASHES)
    spec = WorkloadSpec(
        n_transactions=60,
        arrival="poisson",
        arrival_rate=0.4,
        min_ops=2,
        max_ops=5,
        read_fraction=0.6,
        increment_fraction=0.5,
        restart_on_abort=False,
        result_timeout=250.0,
    )
    result = instance.run_workload(spec)
    stats = asdict(result.statistics)
    for name in HOST_CLOCK_FIELDS:
        stats.pop(name)
    records = [
        (r.txn_id, r.status, r.abort_cause, r.abort_detail) for r in instance.monitor.records
    ]
    return stats, records


def test_rowa_is_quorum_consensus_with_read_one_write_all_quorums():
    rowa_stats, rowa_records = _session("ROWA")
    qc_stats, qc_records = _session("QC", rowa_quorums=True)
    # The schedule must exercise the RCP: some writes lose a copy holder.
    assert rowa_stats["aborts_by_cause"].get("RCP", 0) > 0
    assert rowa_records == qc_records
    assert rowa_stats == qc_stats


def test_policies_set_only_the_votes_and_the_wave():
    """ROWA and ROWA-A reuse QC's access loop; they add no loop of their own."""
    for cls in (RowaController, AvailableCopiesController):
        assert cls.do_read is QuorumConsensusController.do_read
        assert cls.do_write is QuorumConsensusController.do_write
        assert cls._assemble is QuorumConsensusController._assemble
