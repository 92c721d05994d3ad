"""Declarative Rainbow configuration (what the GUI panels configure).

"Rainbow configuration includes Rainbow sites, transaction processing
protocols, database items, and database replication scheme, in that order.
If networking simulation is desired, then it should be configured first.
The configuration data can be saved for reuse in another session."

:class:`RainbowConfig` bundles, in the paper's order: the network
simulation, the name server, the sites, the protocols (RCP/CCP/ACP), the
database items and their replication scheme, and the fault plan.  It
serialises to/from JSON so configurations can be saved for reuse.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from repro.errors import CatalogError, ConfigurationError
from repro.nameserver.catalog import Catalog
from repro.net.faults import FaultSchedule
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LanWanLatency,
    UniformLatency,
)

__all__ = ["NetworkConfig", "SiteConfig", "ProtocolConfig", "FaultConfig", "RainbowConfig"]

_LATENCY_KINDS = ("constant", "uniform", "exponential", "lanwan")


@dataclass
class NetworkConfig:
    """Network-simulation parameters (configured first, per the paper)."""

    latency: str = "uniform"
    latency_params: dict = field(default_factory=dict)
    loss_rate: float = 0.0
    host_service_time: float = 0.0  # receiver-side queueing (0 = unlimited)

    def build_latency_model(self):
        """Instantiate the configured latency model."""
        if self.latency not in _LATENCY_KINDS:
            raise ConfigurationError(
                f"latency must be one of {_LATENCY_KINDS}, got {self.latency!r}"
            )
        params = dict(self.latency_params)
        if self.latency == "constant":
            return ConstantLatency(**params)
        if self.latency == "uniform":
            return UniformLatency(**params)
        if self.latency == "exponential":
            return ExponentialLatency(**params)
        return LanWanLatency(**params)


@dataclass
class SiteConfig:
    """One Rainbow site: its id and the host it lives on."""

    name: str
    host: str


@dataclass
class ProtocolConfig:
    """Protocol selection — the Protocols Configuration window (Figure 4)."""

    rcp: str = "QC"
    ccp: str = "2PL"
    acp: str = "2PC"
    ccp_options: dict = field(default_factory=dict)
    # Coordinator timeouts.  ``op_timeout`` must exceed the sites' lock/TSO
    # wait timeouts, otherwise a long (but legal) lock wait at a remote copy
    # is misclassified as an unreachable site.
    op_timeout: float = 90.0
    vote_timeout: float = 40.0
    ack_timeout: float = 25.0
    ack_retries: int = 3
    # Message-economy optimizations (docs/PERF.md).  All default off, so
    # existing configurations replay byte-identically.
    batch_site_ops: bool = False  # coalesce same-host copy accesses
    piggyback_prepare: bool = False  # fold VOTE_REQ into the final access
    latency_aware_routing: bool = False  # rank copy holders by expected delay

    def validate(self) -> None:
        from repro.protocols.base import acp_registry, ccp_registry, rcp_registry

        if self.rcp.upper() not in rcp_registry():
            raise ConfigurationError(f"unknown RCP {self.rcp!r}: {rcp_registry()}")
        if self.ccp.upper() not in ccp_registry():
            raise ConfigurationError(f"unknown CCP {self.ccp!r}: {ccp_registry()}")
        if self.acp.upper() not in acp_registry():
            raise ConfigurationError(f"unknown ACP {self.acp!r}: {acp_registry()}")
        for value, label in (
            (self.op_timeout, "op_timeout"),
            (self.vote_timeout, "vote_timeout"),
            (self.ack_timeout, "ack_timeout"),
        ):
            if value <= 0:
                raise ConfigurationError(f"{label} must be positive")


@dataclass
class FaultConfig:
    """Fault injection: a deterministic schedule plus random crash cycles."""

    schedule: FaultSchedule = field(default_factory=FaultSchedule)
    random_targets: list[str] = field(default_factory=list)
    mttf: float = 0.0  # 0 disables random failures
    mttr: float = 0.0
    horizon: Optional[float] = None


def _check_keys(cls, data: dict) -> None:
    """Name the first key of ``data`` that ``cls`` has no field for."""
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigurationError(f"unknown {cls.__name__} field {key!r}")


def _section(cls, data: dict):
    """Build one config section, naming any key the section does not have."""
    _check_keys(cls, data)
    return cls(**data)


@dataclass
class RainbowConfig:
    """A complete Rainbow instance description."""

    sites: list[SiteConfig] = field(default_factory=list)
    nameserver_host: str = "ns-host"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    protocols: ProtocolConfig = field(default_factory=ProtocolConfig)
    catalog_data: dict = field(default_factory=dict)
    faults: FaultConfig = field(default_factory=FaultConfig)
    seed: int = 0
    # Site-level policies
    uncertainty_timeout: Optional[float] = 80.0
    decision_retry: float = 25.0
    gc_interval: float = 60.0
    gc_timeout: float = 150.0
    settle_time: float = 120.0  # post-workload drain window
    sample_interval: Optional[float] = None  # progress-monitor time series
    # Distributed deadlock detection (CMH edge chasing); when on, sites
    # exchange probe messages instead of relying solely on wait timeouts.
    distributed_deadlock: bool = False
    probe_interval: float = 20.0

    # -- construction helpers ------------------------------------------------
    @classmethod
    def quick(
        cls,
        n_sites: int = 4,
        n_items: int = 16,
        replication_degree: Optional[int] = None,
        sites_per_host: int = 1,
        initial_value=0,
        **overrides,
    ) -> "RainbowConfig":
        """A ready-to-run configuration for classroom demos and tests.

        Sites ``site1..siteN`` are spread over hosts (``sites_per_host``
        sites each); items ``x1..xM`` are placed round-robin with the given
        replication degree (default: full replication).
        """
        if n_sites < 1:
            raise ConfigurationError("need at least one site")
        if n_items < 1:
            raise ConfigurationError("need at least one item")
        sites = [
            SiteConfig(
                name=f"site{index + 1}",
                host=f"host{(index // max(sites_per_host, 1)) + 1}",
            )
            for index in range(n_sites)
        ]
        catalog = Catalog()
        for index in range(n_items):
            catalog.add_item(f"x{index + 1}", initial_value=initial_value)
        site_names = [site.name for site in sites]
        degree = replication_degree if replication_degree is not None else n_sites
        if degree >= n_sites:
            catalog.place_full_replication(site_names)
        else:
            catalog.place_round_robin(site_names, degree)
        config = cls(sites=sites, catalog_data=catalog.to_dict())
        _check_keys(cls, overrides)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config

    def catalog(self) -> Catalog:
        """Materialise the catalog object from the stored schema."""
        return Catalog.from_dict(self.catalog_data)

    def set_catalog(self, catalog: Catalog) -> None:
        """Store ``catalog`` as this configuration's database schema."""
        self.catalog_data = catalog.to_dict()

    def site_names(self) -> list[str]:
        return [site.name for site in self.sites]

    def hosts(self) -> list[str]:
        """All distinct hosts, name-server host included."""
        hosts = {site.host for site in self.sites}
        hosts.add(self.nameserver_host)
        return sorted(hosts)

    # -- validation -------------------------------------------------------------
    def validate(self) -> Catalog:
        """Check the whole configuration; return the one catalog it built."""
        if not self.sites:
            raise ConfigurationError("configuration has no sites")
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate site names")
        self.protocols.validate()
        catalog = self.catalog()
        try:
            catalog.validate(known_sites=names)
        except CatalogError as error:
            raise ConfigurationError(f"invalid catalog: {error}") from error
        if self.settle_time < 0:
            raise ConfigurationError("settle_time must be >= 0")
        known_targets = set(names) | {"nameserver"}
        for target, _at in self.faults.schedule.crashes + self.faults.schedule.recoveries:
            if target not in known_targets:
                raise ConfigurationError(f"fault target {target!r} is not a site")
        for target in self.faults.random_targets:
            if target not in known_targets:
                raise ConfigurationError(f"fault target {target!r} is not a site")
        if self.faults.random_targets and (self.faults.mttf <= 0 or self.faults.mttr <= 0):
            raise ConfigurationError("random faults require positive mttf and mttr")
        return catalog

    # -- persistence ---------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        data = asdict(self)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RainbowConfig":
        """Inverse of :meth:`to_dict`; a key no field matches is an error."""
        _check_keys(cls, data)
        sections = ("sites", "network", "protocols", "faults")
        config = cls(**{key: value for key, value in data.items() if key not in sections})
        config.sites = [_section(SiteConfig, site) for site in data.get("sites", [])]
        config.network = _section(NetworkConfig, data.get("network", {}))
        config.protocols = _section(ProtocolConfig, data.get("protocols", {}))
        faults = data.get("faults", {})
        schedule = faults.get("schedule", {})
        config.faults = FaultConfig(
            schedule=FaultSchedule(
                crashes=[tuple(pair) for pair in schedule.get("crashes", [])],
                recoveries=[tuple(pair) for pair in schedule.get("recoveries", [])],
                partitions=[
                    (at, [list(group) for group in groups])
                    for at, groups in schedule.get("partitions", [])
                ],
                heals=list(schedule.get("heals", [])),
                link_cuts=[tuple(entry) for entry in schedule.get("link_cuts", [])],
                flaky_links=[tuple(entry) for entry in schedule.get("flaky_links", [])],
            ),
            random_targets=list(faults.get("random_targets", [])),
            mttf=faults.get("mttf", 0.0),
            mttr=faults.get("mttr", 0.0),
            horizon=faults.get("horizon"),
        )
        return config

    def save(self, path: str | Path) -> None:
        """Write the configuration as JSON ("saved for reuse")."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "RainbowConfig":
        """Load a configuration saved by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))
