"""EXP-ACP: 2PC blocking vs 3PC termination under coordinator crashes.

The paper proposes "replacing two phase commit by three-phase commit" as a
term project; this experiment quantifies why anyone would.  The fault
injector's ``crash_before_step`` plan crashes a write transaction's home
site before ACP step 2 or 3 (step 1 is the vote round, 2 under 3PC the
PRECOMMIT round), the most damaging instants:

* ``after_votes`` (step 2) — every participant has voted YES, no decision
  exists.  2PC participants stay blocked (orphans) until the coordinator
  recovers (presumed abort then ends it).  3PC participants run the
  termination protocol and abort within their uncertainty timeout.
* ``after_precommit`` (3PC only, step 3) — participants are precommitted,
  so the termination protocol *commits* without the coordinator.

Reported: orphans observed during the outage, whether the participants
decided before the coordinator recovered, and how long they stayed blocked.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable, build_instance
from repro.txn.transaction import Operation, Transaction

__all__ = ["SCENARIOS", "run", "scenario"]

SCENARIOS = (
    ("2PC", "after_votes", 2),
    ("3PC", "after_votes", 2),
    ("3PC", "after_precommit", 3),
)


def run(
    outage: float = 300.0,
    n_sites: int = 4,
    n_items: int = 8,
    seed: int = 43,
) -> ExperimentTable:
    """Run each coordinator-crash scenario and measure the blocking."""
    table = ExperimentTable(
        title="EXP-ACP: coordinator crash — 2PC blocking vs 3PC termination",
        columns=[
            "acp",
            "failpoint",
            "orphans_peak",
            "decided_during_outage",
            "blocked_time",
            "outcome",
        ],
        notes=(
            "One write transaction; home site crashed at the failpoint and "
            f"recovered after {outage} time units."
        ),
    )
    for acp, failpoint, step in SCENARIOS:
        table.add(**scenario(acp, failpoint, step, outage, n_sites, n_items, seed)[1])
    return table


def scenario(acp: str, failpoint: str, step: int, outage: float = 300.0, n_sites: int = 4,
             n_items: int = 8, seed: int = 43):
    """Crash the home site before ACP ``step``; returns (instance, table row)."""
    instance = build_instance(
        n_sites, n_items, 3, acp=acp, seed=seed, failure_profile=True, settle_time=0.0
    )
    instance.injector.crash_before_step("site1", step)
    instance.start()
    sim = instance.sim

    txn = Transaction(ops=[Operation.write("x1", 1), Operation.write("x2", 2)], home_site="site1")
    process = instance.submit(txn)
    sim.run(until=process)
    crash_at = sim.now

    # Watch the orphan count through the outage.
    orphans_peak = 0
    decided_at = None
    poll = 5.0
    while sim.now < crash_at + outage:
        sim.run(until=sim.now + poll)
        orphans = sum(site.in_doubt_count() for site in instance.sites.values())
        orphans_peak = max(orphans_peak, orphans)
        if orphans == 0 and decided_at is None:
            decided_at = sim.now
    decided_during_outage = decided_at is not None

    instance.injector.recover_now("site1")
    while sum(site.in_doubt_count() for site in instance.sites.values()) > 0:
        sim.run(until=sim.now + poll)
        if sim.now > crash_at + outage + 500:
            break  # safety: report whatever is left
    if decided_at is None:
        decided_at = sim.now

    # Global outcome: did the write survive anywhere?
    committed_anywhere = any(
        site.store.has_copy("x1") and site.store.read("x1")[0] == 1
        for site in instance.sites.values()
    )
    return instance, dict(
        acp=acp,
        failpoint=failpoint,
        orphans_peak=orphans_peak,
        decided_during_outage=decided_during_outage,
        blocked_time=decided_at - crash_at,
        outcome="COMMIT" if committed_anywhere else "ABORT",
    )
