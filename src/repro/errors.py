"""Exception hierarchy for the Rainbow reproduction.

Every error raised by the library derives from :class:`RainbowError` so that
callers can catch library failures without catching programming mistakes.
Protocol-level rejections (the events that abort a transaction) carry the
protocol family responsible, which feeds the per-cause abort statistics the
paper's progress monitor reports.
"""

from __future__ import annotations


class RainbowError(Exception):
    """Base class for all errors raised by the Rainbow library."""


class ConfigurationError(RainbowError):
    """An invalid or inconsistent Rainbow configuration was supplied."""


class SimulationError(RainbowError):
    """The discrete-event simulation kernel was used incorrectly."""


class NetworkError(RainbowError):
    """A network-level failure (unknown endpoint, closed network)."""


class RpcTimeout(NetworkError):
    """A request/reply exchange did not complete within its timeout."""

    def __init__(self, message: str = "rpc timed out", *, destination: str | None = None):
        super().__init__(message)
        self.destination = destination


class CatalogError(RainbowError):
    """The name-server catalog was queried for unknown items or sites."""


class TransactionAborted(RainbowError):
    """A transaction was aborted.

    ``cause`` records which protocol family is responsible, matching the
    paper's abort-rate breakdown: ``"RCP"`` (replication control could not
    assemble the required copies/quorum), ``"CCP"`` (concurrency control
    rejected or deadlock victim), ``"ACP"`` (atomic commitment voted no or
    timed out), or ``"SYSTEM"`` (injected failure outside the protocols).
    """

    def __init__(self, cause: str, detail: str = ""):
        super().__init__(f"aborted [{cause}] {detail}".rstrip())
        self.cause = cause
        self.detail = detail


class ReplicationAbort(TransactionAborted):
    """Replication control (RCP) could not complete an operation."""

    def __init__(self, detail: str = ""):
        super().__init__("RCP", detail)


class ConcurrencyAbort(TransactionAborted):
    """Concurrency control (CCP) rejected an operation or chose a victim."""

    def __init__(self, detail: str = ""):
        super().__init__("CCP", detail)


class CommitAbort(TransactionAborted):
    """Atomic commitment (ACP) aborted the transaction."""

    def __init__(self, detail: str = ""):
        super().__init__("ACP", detail)


class SystemAbort(TransactionAborted):
    """The transaction died with its site or another injected failure."""

    def __init__(self, detail: str = ""):
        super().__init__("SYSTEM", detail)


class ProtocolError(RainbowError):
    """A protocol implementation violated its contract."""


class WorkloadError(RainbowError):
    """A workload specification was invalid."""


class WebTierError(RainbowError):
    """The web middle tier refused or could not route a request."""


class AuthorizationError(WebTierError):
    """A GUI request failed Rainbow's access authorisation."""
