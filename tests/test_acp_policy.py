"""An ACP is one policy object: its registered name changes nothing.

The rest of the system asks the instance's ACP object only for
``precommit_round``; no module compares the ACP's name.  So an ACP
registered under another name behaves exactly like the class it extends:
a renamed 3PC keeps its participants' peer termination and kept decisions,
and a renamed 2PC keeps the piggybacked prepare.
"""

from dataclasses import asdict

import pytest

from repro.chaos.engine import run_chaos_case
from repro.experiments.common import build_instance
from repro.protocols import base
from repro.protocols.acp import ThreePhaseCommit, TwoPhaseCommit
from repro.workload.spec import WorkloadSpec

#: Output statistics read from the host clock (differ on every run).
HOST_CLOCK_FIELDS = ("wall_clock_seconds", "events_per_second")

#: The message-economy flags of a flags-on session.
FLAGS_ON = dict(
    sites_per_host=2, batch_site_ops=True, piggyback_prepare=True, latency_aware_routing=True
)


class Renamed3PC(ThreePhaseCommit):
    name = "E3PC"


class Renamed2PC(TwoPhaseCommit):
    name = "P2PC"


@pytest.fixture
def renamed(monkeypatch):
    """Register the renamed ACPs for one test; the registry is restored after."""
    monkeypatch.setattr(base, "_ACP_REGISTRY", dict(base._ACP_REGISTRY))
    for cls in (Renamed3PC, Renamed2PC):
        base.register_acp(cls.name, cls)


@pytest.mark.parametrize("seed", [9, 13])
def test_renamed_3pc_gives_the_3pc_chaos_report(renamed, seed):
    # QC+2PL seeds 9 and 13 crash coordinators of in-doubt 3PC participants,
    # so the report shows whether peer termination ran.
    original = run_chaos_case(seed, rcp="QC", ccp="2PL", acp="3PC")
    again = run_chaos_case(seed, rcp="QC", ccp="2PL", acp=Renamed3PC.name)
    assert asdict(again) == asdict(original)


def _flags_on_statistics(acp: str) -> dict:
    instance = build_instance(8, 24, 3, rcp="QC", ccp="MVTO", acp=acp, seed=3, **FLAGS_ON)
    spec = WorkloadSpec(n_transactions=120, arrival="poisson", arrival_rate=0.5)
    result = instance.run_workload(spec)
    stats = asdict(result.statistics)
    for name in HOST_CLOCK_FIELDS:
        stats.pop(name)
    return stats


def test_renamed_2pc_keeps_the_piggybacked_prepare(renamed):
    original = _flags_on_statistics("2PC")
    assert original["round_trips_saved"] > 0
    assert _flags_on_statistics(Renamed2PC.name) == original
