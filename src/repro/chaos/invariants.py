"""Safety-invariant checkers for chaos sessions.

Each checker inspects a finished (healed, quiesced, fully recovered)
:class:`~repro.core.instance.RainbowInstance` plus its
:class:`~repro.core.instance.SessionResult` and returns a list of
human-readable violation strings (empty = invariant holds).

The catalog, in the order :func:`check_all` runs them:

* ``atomicity`` — committed transactions' writes are durably applied and
  quorum-readable; transactions aborted by a protocol (RCP/CCP/ACP) left
  no durable writes anywhere.  A coordinator that forces COMMIT and then
  dies reports the transaction committed (the decision is durable;
  participants commit it through DECISION_REQ), so its writes are checked
  like any other commit.  SYSTEM aborts — the home site died before any
  COMMIT record — are *excluded* from the no-writes check: under 3PC the
  precommitted participants may still commit such a transaction through
  the termination protocol, which is correct behaviour, not a leak.
* ``convergence`` — after heal + quiesce, replicas at the same version
  agree on the value, and the latest committed version of every item is
  quorum-readable (quorum-consensus replicas may legitimately hold stale
  *older* versions; the read quorum still intersects the newest write).
* ``no_orphans`` — every site is up and holds zero in-doubt transactions.
* ``serializability`` — the committed history is one-copy serializable
  (the existing :class:`~repro.txn.history.HistoryRecorder` machinery),
  with no version collisions and no reads of phantom versions.
* ``conservation`` — the monitor's accounting balances: every started
  transaction finished, finished == committed + aborted, and submissions
  that never started are bounded by the workload generator's LOST count.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.core.instance import RainbowInstance, SessionResult

__all__ = ["INVARIANTS", "check_all"]

INVARIANTS = (
    "atomicity",
    "convergence",
    "no_orphans",
    "serializability",
    "conservation",
)


def _txn_sets(instance: RainbowInstance) -> tuple[set[int], set[int], set[int]]:
    """(committed, protocol-aborted, system-aborted) txn ids of the session."""
    committed: set[int] = set()
    protocol_aborted: set[int] = set()
    system_aborted: set[int] = set()
    for record in instance.monitor.records:
        if record.status == "COMMITTED":
            committed.add(record.txn_id)
        elif record.abort_cause == "SYSTEM":
            system_aborted.add(record.txn_id)
        else:
            protocol_aborted.add(record.txn_id)
    return committed, protocol_aborted, system_aborted


def check_atomicity(instance: RainbowInstance, result: SessionResult) -> list[str]:
    violations: list[str] = []
    committed, protocol_aborted, system_aborted = _txn_sets(instance)
    known_writers = committed | system_aborted

    # Durable evidence: (item, version, txn_id) -> {site: value}.
    evidence: dict[tuple[str, int, int], dict[str, object]] = defaultdict(dict)
    for name in sorted(instance.sites):
        site = instance.sites[name]
        for record in site.store.audit_log:
            evidence[(record.item, record.version, record.txn_id)][name] = record.value
            if record.txn_id in protocol_aborted:
                violations.append(
                    f"aborted txn {record.txn_id} left durable write "
                    f"{record.item}=v{record.version} at {name}"
                )
            elif record.txn_id not in known_writers:
                violations.append(
                    f"durable write {record.item}=v{record.version} at {name} "
                    f"by unknown txn {record.txn_id}"
                )

    history = instance.monitor.history
    quorum_rcp = instance.config.protocols.rcp.upper() == "QC"
    for txn in history.committed:
        for item, version in sorted(txn.writes):
            spec = instance.catalog.item(item)
            applied = evidence.get((item, int(version), txn.txn_id), {})
            values = set(map(repr, applied.values()))
            if len(values) > 1:
                violations.append(
                    f"committed txn {txn.txn_id}: {item}=v{int(version)} has "
                    f"diverging durable values {sorted(values)}"
                )
            reachable = [
                site_name
                for site_name in spec.sites
                if instance.sites[site_name].store.version(item) >= version
            ]
            if not applied and not reachable:
                violations.append(
                    f"committed txn {txn.txn_id}: write {item}=v{int(version)} "
                    "is durable nowhere"
                )
            if quorum_rcp:
                votes = sum(spec.placement[site_name] for site_name in reachable)
                if votes < spec.effective_write_quorum():
                    violations.append(
                        f"committed txn {txn.txn_id}: {item}=v{int(version)} "
                        f"readable with only {votes} votes "
                        f"(write quorum {spec.effective_write_quorum()})"
                    )
    return violations


def check_convergence(instance: RainbowInstance, result: SessionResult) -> list[str]:
    violations: list[str] = []
    committed_vmax: dict[str, int] = defaultdict(int)
    for txn in instance.monitor.history.committed:
        for item, version in txn.writes:
            committed_vmax[item] = max(committed_vmax[item], int(version))
    quorum_rcp = instance.config.protocols.rcp.upper() == "QC"
    for item in instance.catalog.item_names():
        spec = instance.catalog.item(item)
        replicas = {
            site_name: instance.sites[site_name].store.read(item)
            for site_name in spec.sites
        }
        by_version: dict[int, dict[str, object]] = defaultdict(dict)
        for site_name, (value, version) in replicas.items():
            by_version[version][site_name] = value
        for version in sorted(by_version):
            values = set(map(repr, by_version[version].values()))
            if len(values) > 1:
                violations.append(
                    f"{item}: replicas diverge at v{version}: "
                    + ", ".join(
                        f"{site_name}={value!r}"
                        for site_name, value in sorted(by_version[version].items())
                    )
                )
        vmax = committed_vmax.get(item, 0)
        current = [
            site_name
            for site_name, (_value, version) in replicas.items()
            if version >= vmax
        ]
        if quorum_rcp:
            votes = sum(spec.placement[site_name] for site_name in current)
            if votes < spec.effective_write_quorum():
                violations.append(
                    f"{item}: latest committed version v{vmax} held by only "
                    f"{votes} votes (write quorum {spec.effective_write_quorum()})"
                )
        elif not current:
            violations.append(
                f"{item}: no replica reached latest committed version v{vmax}"
            )
    return violations


def check_no_orphans(instance: RainbowInstance, result: SessionResult) -> list[str]:
    violations: list[str] = []
    for name in sorted(instance.sites):
        site = instance.sites[name]
        if not site.up:
            violations.append(f"site {name} still down after heal phase")
        count = site.in_doubt_count()
        if count:
            violations.append(
                f"site {name} still holds {count} in-doubt transaction(s) "
                f"after heal + quiesce"
            )
    return violations


def check_serializability(instance: RainbowInstance, result: SessionResult) -> list[str]:
    violations: list[str] = []
    if result.serializable is False:
        cycle = result.serialization_cycle or []
        violations.append(
            "committed history is not one-copy serializable "
            f"(cycle {' -> '.join(map(str, cycle))})"
        )
    history = instance.monitor.history
    violations.extend(history.version_collisions())
    violations.extend(history.reads_see_committed_versions())
    return violations


def check_conservation(
    instance: RainbowInstance,
    result: SessionResult,
    expected_submissions: Optional[int] = None,
) -> list[str]:
    violations: list[str] = []
    stats = result.statistics
    monitor = instance.monitor
    if stats.finished != stats.committed + stats.aborted:
        violations.append(
            f"finished ({stats.finished}) != committed ({stats.committed}) "
            f"+ aborted ({stats.aborted})"
        )
    if monitor.started != stats.finished:
        violations.append(
            f"{monitor.started - stats.finished} started transaction(s) "
            f"never finished (started {monitor.started}, finished {stats.finished})"
        )
    never_started = stats.submitted - monitor.started
    lost = sum(1 for outcome in result.outcomes if outcome.status == "LOST")
    if never_started < 0:
        violations.append(
            f"started ({monitor.started}) exceeds submitted ({stats.submitted})"
        )
    elif never_started > lost:
        violations.append(
            f"{never_started} submission(s) never started but only {lost} "
            "reported LOST by the workload generator"
        )
    if expected_submissions is not None and len(result.outcomes) != expected_submissions:
        violations.append(
            f"workload generator returned {len(result.outcomes)} outcomes "
            f"for {expected_submissions} transactions"
        )
    return violations


def check_all(
    instance: RainbowInstance,
    result: SessionResult,
    expected_submissions: Optional[int] = None,
) -> dict[str, list[str]]:
    """Run the full invariant catalog; keys follow :data:`INVARIANTS`."""
    return {
        "atomicity": check_atomicity(instance, result),
        "convergence": check_convergence(instance, result),
        "no_orphans": check_no_orphans(instance, result),
        "serializability": check_serializability(instance, result),
        "conservation": check_conservation(instance, result, expected_submissions),
    }
