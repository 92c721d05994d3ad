"""Fault and recovery injection.

The Rainbow GUI lets the user "inject network and site failures and
recoveries"; this module is that facility.  Faults can be *scheduled*
(deterministic classroom scenarios: "crash site 2 at t=40, recover at t=90")
or *stochastic* (experiments: each site fails with exponential MTTF and
recovers after exponential MTTR).  Every injected event is recorded so
sessions can report exactly which failures a run experienced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.sim.kernel import Simulator

__all__ = ["Crashable", "FaultEvent", "FaultInjector", "FaultSchedule"]


class Crashable(Protocol):
    """Anything the injector can crash and recover (sites, the name server)."""

    name: str

    def crash(self) -> None:
        """Stop the component, losing volatile state."""
        ...

    def recover(self) -> None:
        """Restart the component from its durable state."""
        ...


@dataclass
class FaultEvent:
    """One injected fault or recovery, as recorded in the session log."""

    time: float
    kind: str  # "crash" | "recover" | "partition" | "heal" | "link_cut" |
    #            "link_restore" | "flaky_link" | "flaky_clear"
    target: str
    detail: str = ""


@dataclass
class FaultSchedule:
    """A declarative fault plan that can be stored inside a RainbowConfig.

    ``link_cuts`` entries are ``(host_a, host_b, cut_at, restore_at)``
    (``restore_at`` may be ``None`` for a permanent cut); ``flaky_links``
    entries are ``(host_a, host_b, start, end, loss, duplicate)`` — the
    link's probabilistic loss/duplication window.
    """

    crashes: list[tuple[str, float]] = field(default_factory=list)
    recoveries: list[tuple[str, float]] = field(default_factory=list)
    partitions: list[tuple[float, list[list[str]]]] = field(default_factory=list)
    heals: list[float] = field(default_factory=list)
    link_cuts: list[tuple[str, str, float, Optional[float]]] = field(default_factory=list)
    flaky_links: list[tuple[str, str, float, float, float, float]] = field(
        default_factory=list
    )


class FaultInjector:
    """Applies scheduled and stochastic faults to sites and the network."""

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        self.log: list[FaultEvent] = []
        self._targets: dict[str, Crashable] = {}

    # -- target registry -----------------------------------------------------
    def register(self, target: Crashable) -> None:
        """Make ``target`` known to the injector under ``target.name``."""
        if target.name in self._targets:
            raise ConfigurationError(f"duplicate fault target {target.name!r}")
        self._targets[target.name] = target

    def target(self, name: str) -> Crashable:
        try:
            return self._targets[name]
        except KeyError:
            raise ConfigurationError(f"unknown fault target {name!r}") from None

    def targets(self) -> list[str]:
        """Registered target names (sorted for deterministic iteration)."""
        return sorted(self._targets)

    # -- immediate actions ------------------------------------------------------
    def crash_now(self, name: str) -> None:
        """Crash a registered target at the current instant."""
        self.target(name).crash()
        self.log.append(FaultEvent(self.sim.now, "crash", name))

    def recover_now(self, name: str) -> None:
        """Recover a registered target at the current instant."""
        self.target(name).recover()
        self.log.append(FaultEvent(self.sim.now, "recover", name))

    def crash_before_step(self, name: str, step: int) -> None:
        """Crash site ``name`` once, as a coordinator there starts ACP ``step`` (from 1).

        The plan counts each transaction's ``"step"`` events on the site's stream.
        """
        site = self.target(name)
        taken: dict[int, int] = {}

        def watch(kind: str, _site: str, txn: int, *_event) -> None:
            if kind == "step":
                taken[txn] = taken.get(txn, 0) + 1
                if taken[txn] == step:
                    # A new list: this emission still reaches the others.
                    site.subscribers = [s for s in site.subscribers if s is not watch]
                    self.crash_now(name)

        site.subscribers.append(watch)

    # -- scheduled faults -----------------------------------------------------
    def schedule_crash(self, name: str, at: float) -> None:
        """Crash target ``name`` at simulated time ``at``."""
        self._at(at, lambda: self.crash_now(name))

    def schedule_recovery(self, name: str, at: float) -> None:
        """Recover target ``name`` at simulated time ``at``."""
        self._at(at, lambda: self.recover_now(name))

    def schedule_partition(self, groups: list[list[str]], at: float) -> None:
        """Partition hosts into ``groups`` at time ``at``."""

        def _apply() -> None:
            self.network.partition(groups)
            self.log.append(
                FaultEvent(self.sim.now, "partition", "network", detail=repr(groups))
            )

        self._at(at, _apply)

    def schedule_heal(self, at: float) -> None:
        """Heal any partition at time ``at``."""

        def _apply() -> None:
            self.network.heal_partition()
            self.log.append(FaultEvent(self.sim.now, "heal", "network"))

        self._at(at, _apply)

    def schedule_link_cut(self, host_a: str, host_b: str, at: float, restore_at: float | None = None) -> None:
        """Cut the ``host_a``–``host_b`` link at ``at`` (optionally restore)."""
        if restore_at is not None and restore_at <= at:
            raise ConfigurationError("link restore must come after the cut")

        def _cut() -> None:
            self.network.cut_link(host_a, host_b)
            self.log.append(
                FaultEvent(self.sim.now, "link_cut", f"{host_a}~{host_b}")
            )

        self._at(at, _cut)
        if restore_at is not None:

            def _restore() -> None:
                self.network.restore_link(host_a, host_b)
                self.log.append(
                    FaultEvent(self.sim.now, "link_restore", f"{host_a}~{host_b}")
                )

            self._at(restore_at, _restore)

    def schedule_flaky_link(
        self,
        host_a: str,
        host_b: str,
        start: float,
        end: float,
        loss: float = 0.0,
        duplicate: float = 0.0,
    ) -> None:
        """Make the ``host_a``–``host_b`` link lossy/duplicating in a window."""
        if end <= start:
            raise ConfigurationError("flaky-link window must end after it starts")

        def _start() -> None:
            self.network.set_link_flakiness(host_a, host_b, loss, duplicate)
            self.log.append(
                FaultEvent(
                    self.sim.now,
                    "flaky_link",
                    f"{host_a}~{host_b}",
                    detail=f"loss={loss} dup={duplicate}",
                )
            )

        def _clear() -> None:
            self.network.clear_link_flakiness(host_a, host_b)
            self.log.append(
                FaultEvent(self.sim.now, "flaky_clear", f"{host_a}~{host_b}")
            )

        self._at(start, _start)
        self._at(end, _clear)

    def apply_schedule(self, schedule: FaultSchedule) -> None:
        """Validate and install every event of a :class:`FaultSchedule`."""
        self.validate_schedule(schedule)
        for name, at in schedule.crashes:
            self.schedule_crash(name, at)
        for name, at in schedule.recoveries:
            self.schedule_recovery(name, at)
        for at, groups in schedule.partitions:
            self.schedule_partition(groups, at)
        for at in schedule.heals:
            self.schedule_heal(at)
        for host_a, host_b, at, restore_at in schedule.link_cuts:
            self.schedule_link_cut(host_a, host_b, at, restore_at)
        for host_a, host_b, start, end, loss, duplicate in schedule.flaky_links:
            self.schedule_flaky_link(host_a, host_b, start, end, loss, duplicate)

    def validate_schedule(self, schedule: FaultSchedule) -> None:
        """Reject schedules that would silently produce a confusing run.

        Checks, each raising :class:`ConfigurationError` naming the
        offending entry:

        * crash/recovery targets must be registered with the injector;
        * every recovery must come strictly *after* an unmatched crash of
          the same target (a recovery at or before its crash is a typo);
        * partition groups, link cuts, and flaky links may only name hosts
          that actually exist on the network, and no host may appear in two
          groups of the same partition;
        * windowed events (link cuts with a restore, flaky links) must have
          positive duration, and flaky-link probabilities lie in ``[0, 1)``.
        """
        for name, at in schedule.crashes + schedule.recoveries:
            if name not in self._targets:
                raise ConfigurationError(
                    f"fault schedule names unknown target {name!r} (at t={at})"
                )
        by_target: dict[str, list[tuple[float, int]]] = {}
        for name, at in schedule.crashes:
            by_target.setdefault(name, [])
        for name, at in schedule.recoveries:
            by_target.setdefault(name, [])
        for name in by_target:
            crashes = sorted(at for n, at in schedule.crashes if n == name)
            recoveries = sorted(at for n, at in schedule.recoveries if n == name)
            if len(recoveries) > len(crashes):
                raise ConfigurationError(
                    f"{name!r} has {len(recoveries)} recoveries for "
                    f"{len(crashes)} crashes"
                )
            for crash_at, recover_at in zip(crashes, recoveries):
                if recover_at <= crash_at:
                    raise ConfigurationError(
                        f"recovery of {name!r} at t={recover_at} is not after "
                        f"its crash at t={crash_at}"
                    )
        known_hosts = set(self.network.hosts())
        for at, groups in schedule.partitions:
            seen: set[str] = set()
            for group in groups:
                for host in group:
                    if host not in known_hosts:
                        raise ConfigurationError(
                            f"partition at t={at} names unknown host {host!r} "
                            f"(known: {sorted(known_hosts)})"
                        )
                    if host in seen:
                        raise ConfigurationError(
                            f"partition at t={at} lists host {host!r} in two groups"
                        )
                    seen.add(host)
        for host_a, host_b, at, restore_at in schedule.link_cuts:
            for host in (host_a, host_b):
                if host not in known_hosts:
                    raise ConfigurationError(
                        f"link cut {host_a!r}~{host_b!r} at t={at} names "
                        f"unknown host {host!r}"
                    )
            if restore_at is not None and restore_at <= at:
                raise ConfigurationError(
                    f"link cut {host_a!r}~{host_b!r}: restore at t={restore_at} "
                    f"is not after the cut at t={at}"
                )
        for host_a, host_b, start, end, loss, duplicate in schedule.flaky_links:
            for host in (host_a, host_b):
                if host not in known_hosts:
                    raise ConfigurationError(
                        f"flaky link {host_a!r}~{host_b!r} at t={start} names "
                        f"unknown host {host!r}"
                    )
            if end <= start:
                raise ConfigurationError(
                    f"flaky link {host_a!r}~{host_b!r}: window [{start}, {end}] "
                    "must end after it starts"
                )
            for rate, label in ((loss, "loss"), (duplicate, "duplicate")):
                if not 0.0 <= rate < 1.0:
                    raise ConfigurationError(
                        f"flaky link {host_a!r}~{host_b!r}: {label} rate {rate} "
                        "must be in [0, 1)"
                    )

    # -- stochastic faults ---------------------------------------------------
    def random_crash_recover(
        self,
        names: Iterable[str],
        mttf: float,
        mttr: float,
        rng: random.Random,
        until: float | None = None,
    ) -> None:
        """Run independent crash/recover cycles on each named target.

        Times to failure and to repair are exponential with means ``mttf``
        and ``mttr``.  ``until`` bounds the injection horizon (faults keep
        firing forever otherwise, which keeps the simulation alive).
        """
        if mttf <= 0 or mttr <= 0:
            raise ConfigurationError("mttf and mttr must be positive")
        for name in names:
            self.target(name)  # validate early
            self.sim.process(
                self._crash_recover_loop(name, mttf, mttr, rng, until),
                name=f"faults:{name}",
            )

    def _crash_recover_loop(self, name, mttf, mttr, rng, until):
        while True:
            ttf = rng.expovariate(1.0 / mttf)
            if until is not None and self.sim.now + ttf >= until:
                return
            yield self.sim.timeout(ttf)
            self.crash_now(name)
            ttr = rng.expovariate(1.0 / mttr)
            if until is not None and self.sim.now + ttr >= until:
                self.recover_now(name)  # leave the system healed at horizon
                return
            yield self.sim.timeout(ttr)
            self.recover_now(name)

    # -- helpers -----------------------------------------------------------------
    def _at(self, at: float, fn) -> None:
        """Schedule ``fn`` at absolute time ``at``.

        Times already in the past fire immediately: fault plans are usually
        authored against t=0 and installed after bring-up has consumed a
        little simulated time.
        """
        self.sim.defer(max(at - self.sim.now, 0.0), fn)

    # -- reporting -----------------------------------------------------------------
    def crash_count(self) -> int:
        """Number of crash events injected so far."""
        return sum(1 for event in self.log if event.kind == "crash")

    def downtime_report(self) -> dict[str, float]:
        """Total downtime per target, using the injection log.

        A target still down at the current instant accrues downtime up to
        ``sim.now``.
        """
        down_since: dict[str, float] = {}
        downtime: dict[str, float] = {}
        for event in self.log:
            if event.kind == "crash" and event.target not in down_since:
                down_since[event.target] = event.time
            elif event.kind == "recover" and event.target in down_since:
                start = down_since.pop(event.target)
                downtime[event.target] = downtime.get(event.target, 0.0) + (event.time - start)
        for target, start in down_since.items():
            downtime[target] = downtime.get(target, 0.0) + (self.sim.now - start)
        return downtime
