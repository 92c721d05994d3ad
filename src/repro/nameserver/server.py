"""The Rainbow name server.

"The name server stores metadata of all Rainbow sites, such as the id and
end point specifications.  Also maintained in the name server are the
database fragmentation, replication and distribution schema.  Any site can
query the name server to get pertinent information."

The name server is a normal networked component: it owns an endpoint whose
served mailbox answers ``NS_*`` messages, and is crashable by the fault
injector.  There is exactly one name server per Rainbow instance (as in the
paper); its metadata survives crashes (it is the *service* that goes down,
not the catalog).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError
from repro.nameserver.catalog import Catalog
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator

__all__ = ["SiteInfo", "NameServer"]


@dataclass
class SiteInfo:
    """Metadata the name server keeps per Rainbow site."""

    name: str
    address: str  # network endpoint address, e.g. "hostA/site1"
    host: str

    def to_dict(self) -> dict:
        return {"name": self.name, "address": self.address, "host": self.host}


class NameServer:
    """Site registry + catalog service, reachable over the network."""

    def __init__(self, sim: Simulator, network: Network, host: str, name: str = "nameserver"):
        self.sim = sim
        self.network = network
        self.name = name
        self.host = host
        self.endpoint = network.endpoint(host, name)
        self.catalog = Catalog()
        self._registry: dict[str, SiteInfo] = {}
        self.up = True
        self.queries_served = 0
        self.endpoint.serve(self._handle)

    @property
    def address(self) -> str:
        """The name server's network address."""
        return self.endpoint.address

    # -- local (administrator) interface ------------------------------------
    def register_site(self, name: str, address: str, host: str) -> SiteInfo:
        """Register a site's id and endpoint specification."""
        if name in self._registry:
            raise CatalogError(f"site {name!r} already registered")
        info = SiteInfo(name=name, address=address, host=host)
        self._registry[name] = info
        return info

    def site_info(self, name: str) -> SiteInfo:
        """Metadata for one site."""
        try:
            return self._registry[name]
        except KeyError:
            raise CatalogError(f"unknown site {name!r}") from None

    def sites(self) -> list[SiteInfo]:
        """All registered sites, sorted by name."""
        return [self._registry[name] for name in sorted(self._registry)]

    def site_names(self) -> list[str]:
        """All registered site names, sorted."""
        return sorted(self._registry)

    def address_of(self, site_name: str) -> str:
        """Endpoint address of a registered site."""
        return self.site_info(site_name).address

    # -- fault surface ----------------------------------------------------------
    def crash(self) -> None:
        """Take the name-server service down (metadata is durable)."""
        self.up = False
        self.endpoint.set_down()

    def recover(self) -> None:
        """Bring the service back; serve the mailbox again."""
        self.up = True
        self.endpoint.set_up()
        self.endpoint.serve(self._handle)

    # -- network service -----------------------------------------------------------
    def _handle(self, msg: Message) -> None:
        self.queries_served += 1
        if msg.mtype == MessageType.NS_REGISTER:
            payload = msg.payload or {}
            self.register_site(payload["name"], payload["address"], payload["host"])
            self.endpoint.reply(msg, MessageType.NS_REPLY, payload={"ok": True})
        elif msg.mtype == MessageType.NS_LOOKUP:
            wanted = (msg.payload or {}).get("site")
            if wanted is None:
                payload = {"sites": [info.to_dict() for info in self.sites()]}
            else:
                info = self._registry.get(wanted)
                payload = {"sites": [info.to_dict()] if info else []}
            # Reply size reflects the directory entries returned, so
            # byte-weighted latency models price the lookup realistically.
            self.endpoint.reply(
                msg,
                MessageType.NS_REPLY,
                payload=payload,
                size=max(1, len(payload["sites"])),
            )
        elif msg.mtype == MessageType.NS_CATALOG:
            # The schema object itself: every site of the instance shares
            # the one copy.  ``size`` still prices a full schema transfer.
            self.endpoint.reply(
                msg,
                MessageType.NS_REPLY,
                payload={"catalog": self.catalog},
                size=max(1, len(self.catalog)),
            )
        else:
            self.endpoint.reply(
                msg, MessageType.NS_REPLY, payload={"error": f"unknown request {msg.mtype}"}
            )
