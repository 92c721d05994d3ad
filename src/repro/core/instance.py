"""A Rainbow instance: bring-up, sessions, and results.

:class:`RainbowInstance` materialises a :class:`~repro.core.config.RainbowConfig`
into a running system in the paper's order: network simulation → name server
→ sites (with their local copies) → protocols → fault plan.  It then runs
*sessions*: a workload is submitted (simulated or manual), the simulation is
driven until the workload and a settle window complete, and the progress
monitor's statistics are packaged into a :class:`SessionResult`.

Bring-up is faithful to the paper: the administrator registers sites with
the name server, then every site *queries the name server over the network*
for the site directory and the fragmentation/replication schema ("Any site
can query the name server to get pertinent information").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro import obs
from repro.core.config import RainbowConfig
from repro.errors import ConfigurationError, NetworkError, RpcTimeout
from repro.monitor.stats import OutputStatistics, ProgressMonitor
from repro.nameserver.server import NameServer
from repro.net.faults import FaultEvent, FaultInjector
from repro.net.message import MessageType
from repro.net.network import Network
from repro.protocols.base import make_acp, make_rcp
from repro.sim.kernel import Process, Simulator
from repro.sim.randoms import RandomStreams
from repro.site.site import Site
from repro.txn.coordinator import TxnContext, run_transaction
from repro.txn.transaction import Transaction
from repro.workload.generator import ManualWorkload, SubmissionOutcome, WorkloadGenerator
from repro.workload.spec import WorkloadSpec

__all__ = ["SessionResult", "RainbowInstance"]


@dataclass
class SessionResult:
    """Everything one Rainbow session produced."""

    statistics: OutputStatistics
    outcomes: list[SubmissionOutcome] = field(default_factory=list)
    serializable: Optional[bool] = None
    serialization_witness: Optional[list[int]] = None
    serialization_cycle: Optional[list[int]] = None
    fault_log: list[FaultEvent] = field(default_factory=list)
    duration: float = 0.0

    @property
    def committed(self) -> int:
        return self.statistics.committed

    @property
    def aborted(self) -> int:
        return self.statistics.aborted


class RainbowInstance:
    """One configured, runnable Rainbow system."""

    def __init__(self, config: RainbowConfig):
        catalog = config.validate()
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.network = Network(
            self.sim,
            config.network.build_latency_model(),
            rng=self.streams.get("network"),
            loss_rate=config.network.loss_rate,
            host_service_time=config.network.host_service_time,
        )
        self.injector = FaultInjector(self.sim, self.network)
        self.nameserver = NameServer(self.sim, self.network, config.nameserver_host)
        # The one materialised schema: the name server serves this object
        # and every site keeps a reference to it.
        self.nameserver.catalog = self.catalog = catalog
        self.injector.register(self.nameserver)

        protocols = config.protocols
        # The RCP and ACP are stateless policies: one object of each serves
        # every transaction, whose state lives on its TxnContext.
        self.rcp = make_rcp(protocols.rcp)
        self.acp = make_acp(protocols.acp)
        self.sites: dict[str, Site] = {}
        for site_config in config.sites:
            site = Site(
                self.sim,
                self.network,
                site_config.name,
                site_config.host,
                ccp=protocols.ccp,
                ccp_options=dict(protocols.ccp_options),
                acp=self.acp,
                uncertainty_timeout=config.uncertainty_timeout,
                decision_retry=config.decision_retry,
                gc_interval=config.gc_interval,
                gc_timeout=config.gc_timeout,
                distributed_deadlock=config.distributed_deadlock,
                probe_interval=config.probe_interval,
            )
            site.coordinator_factory = self._coordinate
            self.nameserver.register_site(site.name, site.address, site.host)
            self.injector.register(site)
            self.sites[site.name] = site
        # One pass over the schema, in item-name order, so each store
        # creates its copies in that order.
        for spec in catalog.items():
            for site_name in spec.placement:
                self.sites[site_name].store.create_copy(spec.name, spec.initial_value)

        # Same-host siblings share a Sitelet (paper §2): wire the in-process
        # links BATCH_ACCESS gateways use to fan sub-ops out locally.
        by_host: dict[str, list[Site]] = {}
        for site in self.sites.values():
            by_host.setdefault(site.host, []).append(site)
        for siblings in by_host.values():
            for site in siblings:
                site.colocated = {
                    other.name: other for other in siblings if other is not site
                }

        self.directory = {name: site.address for name, site in self.sites.items()}
        # The session numbers its own transactions and sessions: ids are a
        # function of this instance's seed, not of what else ran in the
        # process.  The monitor stamps every submission from ``txn_ids``.
        self.txn_ids = itertools.count(1)
        self._session_counter = itertools.count(1)
        self.monitor = ProgressMonitor(
            self.sim,
            self.network,
            sites=self.sites.values(),
            sample_interval=config.sample_interval,
            txn_ids=self.txn_ids,
        )
        self._started = False
        self.span_tracer = None
        # ``repro experiment --trace``: sweeps build their instances deep
        # inside experiment modules, so a process-global flag tells every
        # new instance to enable tracing and register its tracer.
        if obs.global_tracing_enabled():
            obs.register_tracer(self.enable_tracing())

    # -- observability ---------------------------------------------------------------
    def enable_tracing(self):
        """Turn on causal span tracing for this instance (idempotent).

        Wires one shared :class:`repro.obs.SpanTracer` into the network,
        every site, and the monitor.  Tracing is purely observational — a
        traced session produces the same history and statistics as an
        untraced one — but must be enabled before transactions run for
        the trace to be complete.
        """
        if self.span_tracer is None:
            tracer = obs.SpanTracer(self.sim)
            self.span_tracer = tracer
            self.network.tracer = tracer
            for site in self.sites.values():
                site.tracer = tracer
            self.monitor.span_tracer = tracer
        return self.span_tracer

    # -- coordinator wiring --------------------------------------------------------
    def _coordinate(self, site: Site, txn: Transaction):
        """The generator each home site runs per transaction (its thread)."""
        ctx = TxnContext(
            txn, site, site.catalog, site.directory, self.config.protocols,
            self.rcp, self.acp, self.monitor,
        )
        site.register_home_txn(txn.txn_id, ctx)
        try:
            status = yield from run_transaction(ctx)
        finally:
            site.unregister_home_txn(txn.txn_id)
        return {
            "status": status,
            "cause": txn.abort_cause,
            "txn_id": txn.txn_id,
            "reads": dict(txn.reads),
            "response_time": txn.response_time,
        }

    # -- bring-up ---------------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap the domain: sites fetch metadata from the name server."""
        if self._started:
            return
        bootstraps = [
            self.sim.process(self._bootstrap_site(site), name=f"boot:{site.name}")
            for site in self.sites.values()
        ]
        self.sim.run(until=self.sim.all_of(bootstraps))
        self._apply_fault_plan()
        self._started = True

    def _bootstrap_site(self, site: Site):
        try:
            lookup = yield site.endpoint.request(
                self.nameserver.address, MessageType.NS_LOOKUP, {}, timeout=30.0
            )
            site.directory = {
                info["name"]: info["address"]
                for info in (lookup.payload or {}).get("sites", [])
            }
            schema = yield site.endpoint.request(
                self.nameserver.address, MessageType.NS_CATALOG, {}, timeout=30.0
            )
            site.catalog = schema.payload["catalog"]
        except (RpcTimeout, NetworkError):
            # Name server unreachable at bring-up: fall back to the
            # administrator's local copies (the instance owns them anyway).
            site.directory = dict(self.directory)
            site.catalog = self.catalog

    def _apply_fault_plan(self) -> None:
        faults = self.config.faults
        self.injector.apply_schedule(faults.schedule)
        if faults.random_targets:
            self.injector.random_crash_recover(
                faults.random_targets,
                faults.mttf,
                faults.mttr,
                self.streams.get("faults"),
                until=faults.horizon,
            )

    # -- sessions ---------------------------------------------------------------------
    def run_workload(self, spec: WorkloadSpec) -> SessionResult:
        """Run a simulated-mode workload session and collect its results."""
        self.start()
        session = next(self._session_counter)
        generator = WorkloadGenerator(
            self.sim,
            self.network,
            self.directory,
            self.catalog,
            spec,
            self.streams.get(f"workload-{session}"),
            monitor=self.monitor,
            name=f"wlg{session}",
        )
        return self._run_session(generator)

    def manual_workload(self) -> ManualWorkload:
        """A manual-mode workload bound to this instance (Figure A-2 path)."""
        self.start()
        return ManualWorkload(
            self.sim,
            self.network,
            self.directory,
            monitor=self.monitor,
            name=f"wlg-manual{next(self._session_counter)}",
        )

    def run_manual(self, manual: ManualWorkload) -> SessionResult:
        """Dispatch a prepared manual workload and collect the results."""
        return self._run_session(manual)

    def _run_session(self, client) -> SessionResult:
        """Run ``client``'s workload to its end, settle, and collect."""
        self.sim.run(until=client.run())
        self._settle()
        return self.session_result(client.outcome_rows)

    def submit(self, txn: Transaction) -> Process:
        """Directly start ``txn`` at its home site (library/testing path).

        Bypasses the WLG messages; the returned process ends with the
        transaction's coordinator.  A transaction without an id gets the
        session's next one here.
        """
        self.start()
        try:
            site = self.sites[txn.home_site]
        except KeyError:
            raise ConfigurationError(f"unknown home site {txn.home_site!r}") from None
        self.monitor.txn_submitted(txn)
        return site.spawn_home_transaction(
            self._coordinate(site, txn), name=f"txn{txn.txn_id}@{site.name}"
        )

    def run_transactions(self, txns: Iterable[Transaction]) -> SessionResult:
        """Submit transactions directly (all at once) and run to completion."""
        processes = [self.submit(txn) for txn in txns]
        if processes:
            self.sim.run(until=self.sim.all_of(processes))
        self._settle()
        return self.session_result()

    def _settle(self) -> None:
        if self.config.settle_time > 0:
            self.sim.run(until=self.sim.now + self.config.settle_time)

    # -- results ---------------------------------------------------------------------
    def session_result(self, outcomes: Iterable[tuple] = ()) -> SessionResult:
        """Package the monitor's view of the session so far.

        ``outcomes`` are the WLG's outcome rows or :class:`SubmissionOutcome`
        views; the result's views are built after the 1SR check.
        """
        serializable, order_or_cycle = self.monitor.check_serializable()
        witness = order_or_cycle if serializable else None
        cycle = None if serializable else order_or_cycle
        return SessionResult(
            statistics=self.monitor.output_statistics(),
            outcomes=list(map(SubmissionOutcome._make, outcomes)),
            serializable=serializable,
            serialization_witness=witness,
            serialization_cycle=cycle,
            fault_log=list(self.injector.log),
            duration=self.sim.now,
        )
