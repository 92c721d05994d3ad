"""Protocol plumbing: interfaces and registries.

Rainbow's protocols "are implemented with minimum interdependencies and
assumptions in order to facilitate their replacement (e.g., by students)
with minimum system-wide modifications."  Concretely:

* Every protocol family has one small interface —
  :class:`ConcurrencyController` (CCP, site-local),
  :class:`ReplicationController` (RCP, coordinator-side) and
  :class:`CommitProtocol` (ACP).  An ACP object runs the coordinator side;
  the participant half lives in the site's message handlers and its WAL,
  which ask the instance's one ACP object what it needs
  (:attr:`CommitProtocol.precommit_round`), never its name.
* Implementations self-register in a per-family *registry* keyed by a short
  name (``"2PL"``, ``"QC"``, ``"2PC"`` …), which is exactly what the GUI's
  Protocols Configuration window (paper Figure 4) lists in its drop-downs.
* A student protocol is added by subclassing the interface and calling
  :func:`register_ccp` / :func:`register_rcp` / :func:`register_acp`; no
  other module needs editing.
* A quorum-style student RCP is usually a *vote policy*: subclass
  :class:`~repro.protocols.rcp.quorum.QuorumConsensusController` and
  override ``votes_needed`` (and, if its waves differ, ``choose_wave``), as
  ROWA and ROWA-A do; the wave loop, abort classification and tracing
  come with it.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Generator

from repro.errors import ConcurrencyAbort, ProtocolError
from repro.sim.kernel import Event

__all__ = [
    "Wait",
    "wait_for",
    "follow",
    "ConcurrencyController",
    "ReplicationController",
    "CommitProtocol",
    "register_ccp",
    "register_rcp",
    "register_acp",
    "ccp_registry",
    "rcp_registry",
    "acp_registry",
    "ccp_accepts",
    "make_ccp",
    "make_rcp",
    "make_acp",
]

_CCP_REGISTRY: dict[str, Callable[..., "ConcurrencyController"]] = {}
_RCP_REGISTRY: dict[str, Callable[..., "ReplicationController"]] = {}
_ACP_REGISTRY: dict[str, Callable[..., "CommitProtocol"]] = {}


class Wait:
    """A CCP access that cannot answer yet.

    Once ``event`` has fired, succeeded or failed, the caller calls
    ``resume()`` once; it gives the access's outcome: the answer, a raised
    :class:`ConcurrencyAbort`, or the next ``Wait``.
    """

    __slots__ = ("event", "resume")

    def __init__(self, event: Event, resume: Callable[[], Any]):
        self.event = event
        self.resume = resume


def wait_for(event: Event, then: Callable[[], Any]) -> Wait:
    """Wait on ``event``; a failure is the access's abort, else ``then()``."""

    def resume() -> Any:
        if not event.ok:
            # A fresh abort: raising the stored one would tie its traceback
            # to this frame, which holds the event that holds it.
            raise ConcurrencyAbort(event.value.detail)
        return then()

    return Wait(event, resume)


def follow(step: Callable[[], Any], done: Callable[[Any], None]) -> None:
    """Run an access ``step``, following its waits by event callbacks.

    ``done(outcome)`` gets the answer or the ``ConcurrencyAbort``: inside
    this call when the access never waits, else from the callback of the
    event it last waited on.
    """
    try:
        outcome = step()
    except ConcurrencyAbort as abort:
        done(abort)
        return
    if isinstance(outcome, Wait):
        outcome.event.add_callback(lambda _event: follow(outcome.resume, done))
    else:
        done(outcome)


class ConcurrencyController:
    """CCP interface: guards the *local copies* of one site.

    ``read`` and ``prewrite`` are plain calls: each returns its answer,
    raises :class:`~repro.errors.ConcurrencyAbort` on rejection, or, when
    the access must wait (a lock queue, a TSO wait), returns
    :func:`wait_for` of the event and the call that continues it.
    Buffered writes only reach the committed store via :meth:`commit`.
    """

    name = "abstract"
    #: True when a write installs the writer's timestamp as its version
    #: (the coordinator then knows the version before the prewrite reply).
    #: False means counter versions: one past the highest version seen.
    timestamp_versions = False
    #: True when the protocol guards copies with a ``locks`` lock manager
    #: (:class:`~repro.site.locks.LockManager`); the deadlock detector and
    #: the lock statistics only apply to such protocols.
    lock_based = False

    def read(self, txn_id: int, ts: float, item: str) -> Any:
        """``(value, version)`` of the local copy, or a :class:`Wait`."""
        raise NotImplementedError

    def prewrite(self, txn_id: int, ts: float, item: str, value: Any) -> Any:
        """Buffer the write; the current version, or a :class:`Wait`."""
        raise NotImplementedError

    def buffered_writes(self, txn_id: int) -> dict[str, Any]:
        """The uncommitted writes this transaction holds at this site."""
        raise NotImplementedError

    def commit(self, txn_id: int, versions: dict[str, int]) -> None:
        """Apply buffered writes (stamped per ``versions``) and release."""
        raise NotImplementedError

    def abort(self, txn_id: int) -> None:
        """Discard buffered writes and release."""
        raise NotImplementedError

    def validate(self, txn_id: int) -> tuple[bool, str]:
        """Certify the transaction at prepare time (OCC hook).

        Pessimistic protocols validate during execution and return
        ``(True, "")`` here; optimistic ones do their backward validation.
        A False vote makes the participant vote NO.
        """
        return True, ""

    def doom(self, txn_id: int) -> None:
        """Mark the transaction as must-abort (wound-wait, recovery)."""
        raise NotImplementedError

    def is_doomed(self, txn_id: int) -> bool:
        """True if the transaction must abort at this site."""
        raise NotImplementedError

    def active_transactions(self) -> set[int]:
        """Transactions with local state at this site."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop all volatile state (site crash)."""
        raise NotImplementedError


class ReplicationController:
    """RCP interface: executed by the transaction's home-site thread.

    ``do_read``/``do_write`` are generator functions driven with
    ``yield from`` inside the coordinator process; they perform whatever
    remote copy accesses the protocol requires and raise
    :class:`~repro.errors.ReplicationAbort` when the necessary copies or
    quorum cannot be assembled.

    An RCP object is a stateless policy: the instance makes one and every
    transaction shares it, so per-transaction state belongs on ``ctx``.
    """

    name = "abstract"

    def do_read(self, ctx, item: str) -> Generator:
        """Yield until done; return the value read."""
        raise NotImplementedError

    def do_write(self, ctx, item: str, value: Any) -> Generator:
        """Yield until enough copies are pre-written; returns None."""
        raise NotImplementedError


class CommitProtocol:
    """ACP interface: terminates a transaction atomically.

    ``run`` is a generator driven by the coordinator; it returns the
    decision string ``"COMMIT"`` or raises
    :class:`~repro.errors.CommitAbort`.  Like an RCP, an ACP object is a
    stateless policy shared by every transaction; its state goes on ``ctx``.
    """

    name = "abstract"
    #: True when a PRECOMMIT round separates the votes from the decision
    #: (3PC).  It is the one fact the rest of the system asks of an ACP: the
    #: coordinator arms the piggybacked prepare only without it, and with it
    #: a participant in doubt runs peer termination and the WAL keeps
    #: decisions for the peers' queries.
    precommit_round = False

    def run(self, ctx) -> Generator:
        """Yield until the decision is reached and propagated."""
        raise NotImplementedError


def _register(registry: dict, kind: str, name: str, factory: Callable) -> None:
    key = name.upper()
    if key in registry:
        raise ProtocolError(f"{kind} protocol {name!r} already registered")
    registry[key] = factory


def register_ccp(name: str, factory: Callable[..., ConcurrencyController]) -> None:
    """Register a concurrency-control protocol under ``name``."""
    _register(_CCP_REGISTRY, "CCP", name, factory)


def register_rcp(name: str, factory: Callable[..., ReplicationController]) -> None:
    """Register a replication-control protocol under ``name``."""
    _register(_RCP_REGISTRY, "RCP", name, factory)


def register_acp(name: str, factory: Callable[..., CommitProtocol]) -> None:
    """Register an atomic-commit protocol under ``name``."""
    _register(_ACP_REGISTRY, "ACP", name, factory)


def ccp_registry() -> list[str]:
    """Names of the registered CCPs (what the GUI panel offers)."""
    return sorted(_CCP_REGISTRY)


def rcp_registry() -> list[str]:
    """Names of the registered RCPs."""
    return sorted(_RCP_REGISTRY)


def acp_registry() -> list[str]:
    """Names of the registered ACPs."""
    return sorted(_ACP_REGISTRY)


def ccp_accepts(name: str, option: str) -> bool:
    """Whether the CCP registered under ``name`` takes keyword ``option``.

    Profiles that supply generic defaults (e.g. the failure experiments'
    ``wait_timeout``) use this to avoid handing a non-waiting controller an
    option it has no constructor parameter for.
    """
    try:
        factory = _CCP_REGISTRY[name.upper()]
    except KeyError:
        return False
    parameters = inspect.signature(factory).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return True
    return option in parameters


def make_ccp(name: str, *args, **kwargs) -> ConcurrencyController:
    """Instantiate the CCP registered under ``name``."""
    try:
        factory = _CCP_REGISTRY[name.upper()]
    except KeyError:
        raise ProtocolError(
            f"unknown CCP {name!r}; registered: {ccp_registry()}"
        ) from None
    return factory(*args, **kwargs)


def make_rcp(name: str, *args, **kwargs) -> ReplicationController:
    """Instantiate the RCP registered under ``name``."""
    try:
        factory = _RCP_REGISTRY[name.upper()]
    except KeyError:
        raise ProtocolError(
            f"unknown RCP {name!r}; registered: {rcp_registry()}"
        ) from None
    return factory(*args, **kwargs)


def make_acp(name: str, *args, **kwargs) -> CommitProtocol:
    """Instantiate the ACP registered under ``name``."""
    try:
        factory = _ACP_REGISTRY[name.upper()]
    except KeyError:
        raise ProtocolError(
            f"unknown ACP {name!r}; registered: {acp_registry()}"
        ) from None
    return factory(*args, **kwargs)
