"""The Rainbow GUI applet, as a programmatic façade.

"Rainbow GUI is downloaded to the user host as a Java applet when the user
clicks a Web URL link to the Rainbow home … Rainbow GUI applet can only
communicate with the host it is downloaded from, i.e. the Rainbow home
host."

:class:`GuiApplet` reproduces both facts: it is created by *downloading*
from a home-host URL, and every request it sends is checked to target the
home host's ServletRunner only — reaching any other host goes through the
two-level servlet arrangement, exactly as in the paper.

Methods come in two flavours: generator methods (suffix-free, usable inside
simulation processes) and the synchronous :meth:`call` helper that drives
the simulator until the reply arrives (for scripts and notebooks).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import AuthorizationError, NetworkError, RpcTimeout, WebTierError
from repro.net.message import MessageType
from repro.web.requests import WebRequest, WebResponse
from repro.web.tier import RainbowWebTier

__all__ = ["GuiApplet", "rainbow_url"]


def rainbow_url(home_host: str, port: int = 8080) -> str:
    """The well-known Rainbow URL of the paper's §4.1."""
    return f"http://{home_host}:{port}/RainbowDemo.html"


class GuiApplet:
    """A downloaded Rainbow GUI instance bound to one user host."""

    def __init__(self, tier: RainbowWebTier, user_host: str = "user-host"):
        self.tier = tier
        self.sim = tier.instance.sim
        self.user_host = user_host
        self.home_address = tier.home_address
        self.url = rainbow_url(tier.home_host)
        self.endpoint = tier.instance.network.endpoint(
            user_host, f"applet{next(tier.applet_numbers)}"
        )
        self.token: Optional[str] = None
        self.role: Optional[str] = None

    # -- transport (generator) -----------------------------------------------------
    def request(self, servlet: str, action: str, args: Optional[dict] = None):
        """Send one request to the Rainbow home (generator → WebResponse).

        The applet-only-talks-to-home restriction is enforced here: there
        is no way to address any other host from the GUI.
        """
        payload = WebRequest(
            servlet=servlet, action=action, args=args or {}, token=self.token
        ).to_payload()
        try:
            reply = yield self.endpoint.request(
                self.home_address, MessageType.WEB_REQUEST, payload, timeout=120.0
            )
        except (RpcTimeout, NetworkError) as failure:
            return WebResponse.failure(f"Rainbow home unreachable: {failure}")
        return WebResponse.from_payload(reply.payload)

    def call(self, servlet: str, action: str, args: Optional[dict] = None) -> WebResponse:
        """Synchronous convenience: drive the simulation until the reply.

        Only usable from *outside* the simulation (scripts, tests); inside a
        process use :meth:`request` with ``yield from``.
        """
        process = self.sim.process(
            self.request(servlet, action, args), name="applet:call"
        )
        return self.sim.run(until=process)

    # -- session ---------------------------------------------------------------------
    def download_page(self) -> WebResponse:
        """Fetch RainbowDemo.html (the downloading applet of Figure 3)."""
        return self.call("auth", "download_page")

    def login(self, user: str, password: str) -> str:
        """Authenticate; returns the role ("admin" or "student")."""
        response = self.call("auth", "login", {"user": user, "password": password})
        if not response.ok:
            raise AuthorizationError(response.error)
        self.token = response.data["token"]
        self.role = response.data["role"]
        return self.role

    def logout(self) -> None:
        """End the GUI session."""
        self.call("auth", "logout")
        self.token = None
        self.role = None

    # -- menus (synchronous wrappers) ----------------------------------------------------
    def _checked(self, servlet: str, action: str, args: Optional[dict] = None) -> Any:
        response = self.call(servlet, action, args)
        if not response.ok:
            raise WebTierError(f"{servlet}.{action}: {response.error}")
        return response.data

    def lookup_sites(self) -> list[dict]:
        """Name-server site registry (Administration → Name Server menu)."""
        return self._checked("nsrunnerlet", "lookup_sites")["sites"]

    def get_catalog(self) -> dict:
        """The fragmentation/replication/distribution schema."""
        return self._checked("nsrunnerlet", "get_catalog")["catalog"]

    def ns_status(self) -> dict:
        """Name-server health and load."""
        return self._checked("nsrunnerlet", "ns_status")

    def save_configuration(self, path) -> dict:
        """Download the instance configuration and save it for reuse.

        Admin-only; the returned dict is also written to ``path`` as JSON
        (loadable with :meth:`repro.core.RainbowConfig.load`).
        """
        import json
        from pathlib import Path

        data = self._checked("nsrunnerlet", "get_config")["config"]
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))
        return data

    def site_stats(self, site: str) -> dict:
        """One site's counters (Tx Processing menu, per-site view)."""
        return self._checked("siterunnerlet", "site_stats", {"site": site})

    def crash_site(self, site: str) -> dict:
        """Inject a site failure (the GUI's failure-injection control)."""
        return self._checked("siterunnerlet", "crash_site", {"site": site})

    def recover_site(self, site: str) -> dict:
        """Inject a site recovery."""
        return self._checked("siterunnerlet", "recover_site", {"site": site})

    def submit_transaction(self, txn) -> dict:
        """Manual workload generation: submit one composed transaction."""
        return self._checked("wlglet", "submit_txn", {"txn": txn})

    def start_workload(self, spec) -> int:
        """Simulated workload generation: start a WorkloadSpec run."""
        return self._checked("wlglet", "start_workload", {"spec": spec})["workload_id"]

    def workload_status(self, workload_id: int) -> dict:
        """Progress of a started workload."""
        return self._checked("wlglet", "workload_status", {"workload_id": workload_id})

    def statistics(self) -> dict:
        """The §3 output statistics (Tx Processing menu)."""
        return self._checked("pmlet", "statistics")

    def site_statistics(self) -> dict:
        """Per-site statistics gathered through the Sitelets."""
        return self._checked("pmlet", "site_statistics")

    def timeseries(self) -> dict:
        """The progress monitor's sampled time series (Display menu)."""
        return self._checked("pmlet", "timeseries")
