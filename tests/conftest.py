"""Shared fixtures and helpers for the Rainbow test suite."""

from __future__ import annotations

import pytest

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.errors import ConcurrencyAbort
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.protocols.base import Wait
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim: Simulator) -> Network:
    return Network(sim, ConstantLatency(1.0))


def drive(sim: Simulator, generator, name: str = "test"):
    """Run ``generator`` as a process to completion; return its value."""
    process = sim.process(generator, name=name)
    return sim.run(until=process)


def follow_waits(outcome):
    """Drive an access outcome inside a process (generator).

    ``outcome`` is what a CCP ``read``/``prewrite`` or a site's
    ``local_read``/``local_prewrite`` returned: each
    :class:`~repro.protocols.base.Wait` is waited on and resumed until the
    answer comes back (returned) or the access is rejected (raised).
    """
    while isinstance(outcome, Wait):
        try:
            yield outcome.event
        except ConcurrencyAbort:
            pass  # resume() raises it
        outcome = outcome.resume()
    return outcome


def settle(sim: Simulator, outcome):
    """Run the kernel through an access outcome's waits; return its answer."""
    return drive(sim, follow_waits(outcome))


def quick_instance(
    n_sites: int = 4,
    n_items: int = 16,
    replication_degree: int = 3,
    *,
    rcp: str = "QC",
    ccp: str = "2PL",
    acp: str = "2PC",
    seed: int = 1,
    settle_time: float = 60.0,
    **overrides,
) -> RainbowInstance:
    """A small ready-made instance for integration tests."""
    config = RainbowConfig.quick(
        n_sites=n_sites,
        n_items=n_items,
        replication_degree=replication_degree,
        seed=seed,
        settle_time=settle_time,
    )
    config.protocols.rcp = rcp
    config.protocols.ccp = ccp
    config.protocols.acp = acp
    for key, value in overrides.items():
        setattr(config, key, value)
    return RainbowInstance(config)


#: The WriteAheadLog methods that force a record.
WAL_APPENDS = ("log_prepare", "log_precommit", "log_commit", "log_abort", "log_end")


def record_wal_appends(sites) -> list:
    """Count what each site forces: wrap its WAL's ``log_*`` methods.

    Returns the list that collects ``(site_name, record)`` for every record
    appended from now on.  The log forgets a transaction once it is decided,
    so a test that checks what was forced observes the appends instead of
    reading ``wal.records`` after the fact.
    """
    appended = []
    for site in sites:
        wal = site.wal
        for name in WAL_APPENDS:

            def logged(*args, _append=getattr(wal, name), _site=site.name, **kwargs):
                record = _append(*args, **kwargs)
                appended.append((_site, record))
                return record

            setattr(wal, name, logged)
    return appended
