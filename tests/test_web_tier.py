"""Tests for the web middle tier: runners, servlets, routing, auth."""

import pytest

from repro.chaos.invariants import check_serializability
from repro.errors import AuthorizationError, WebTierError
from repro.gui.applet import GuiApplet
from repro.net.message import MessageType
from repro.txn.transaction import Operation, Transaction
from repro.web.requests import WebRequest, WebResponse
from repro.web.tier import RainbowWebTier
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance


@pytest.fixture
def domain():
    instance = quick_instance(n_sites=4, n_items=8, settle_time=20)
    instance.start()
    tier = RainbowWebTier(instance)
    return instance, tier


def logged_in_applet(tier, user="student", password="student"):
    applet = GuiApplet(tier)
    applet.login(user, password)
    return applet


class TestEnvelopes:
    def test_request_roundtrip(self):
        request = WebRequest("pmlet", "statistics", {"a": 1}, token="t")
        clone = WebRequest.from_payload(request.to_payload())
        assert clone == request

    def test_response_roundtrip(self):
        response = WebResponse.success({"x": 1})
        clone = WebResponse.from_payload(response.to_payload())
        assert clone.ok and clone.data == {"x": 1}

    def test_failure_helper(self):
        response = WebResponse.failure("nope")
        assert not response.ok
        assert response.error == "nope"


class TestPlacementRules:
    def test_home_host_has_four_jumpoff_servlets(self, domain):
        _instance, tier = domain
        home = tier.runners[tier.home_host]
        for name in ("nsrunnerlet", "siterunnerlet", "wlglet", "pmlet", "auth"):
            assert home.has(name)

    def test_nslet_only_on_ns_host(self, domain):
        _instance, tier = domain
        assert tier.runners[tier.ns_host].has("nslet")
        assert not tier.runners[tier.home_host].has("nslet")

    def test_sitelet_on_every_site_host(self, domain):
        instance, tier = domain
        for host in {site.host for site in instance.sites.values()}:
            assert tier.runners[host].has("sitelet")

    def test_every_domain_host_has_a_runner(self, domain):
        instance, tier = domain
        hosts = {site.host for site in instance.sites.values()}
        hosts.add(tier.ns_host)
        hosts.add(tier.home_host)
        assert set(tier.runners) == hosts

    def test_placement_table_lists_servlets(self, domain):
        _instance, tier = domain
        table = dict(tier.placement_table())
        assert "sitelet" in table[list(table)[0]] or any(
            "sitelet" in servlets for servlets in table.values()
        )


class TestAuth:
    def test_login_logout(self, domain):
        _instance, tier = domain
        applet = GuiApplet(tier)
        role = applet.login("admin", "admin")
        assert role == "admin"
        assert tier.role_of(applet.token) == "admin"
        applet.logout()
        assert applet.token is None

    def test_bad_password_rejected(self, domain):
        _instance, tier = domain
        applet = GuiApplet(tier)
        with pytest.raises(AuthorizationError):
            applet.login("student", "wrong")

    def test_unauthenticated_request_refused(self, domain):
        _instance, tier = domain
        applet = GuiApplet(tier)
        response = applet.call("pmlet", "statistics")
        assert not response.ok
        assert "not logged in" in response.error

    def test_admin_only_action_refused_for_student(self, domain):
        _instance, tier = domain
        applet = logged_in_applet(tier)
        response = applet.call(
            "nsrunnerlet", "configure_quorums",
            {"item": "x1", "read_quorum": 1, "write_quorum": 3},
        )
        assert not response.ok
        assert "requires role" in response.error

    def test_admin_can_reconfigure_quorums(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier, "admin", "admin")
        response = applet.call(
            "nsrunnerlet", "configure_quorums",
            {"item": "x1", "read_quorum": 1, "write_quorum": 3},
        )
        assert response.ok
        assert instance.nameserver.catalog.item("x1").read_quorum == 1

    def test_rejected_quorum_change_touches_no_catalog(self, domain):
        instance, tier = domain
        served = instance.nameserver.catalog
        admin = logged_in_applet(tier, "admin", "admin")
        response = admin.call(
            "nsrunnerlet", "configure_quorums",
            {"item": "x1", "read_quorum": 1, "write_quorum": 1},  # r+w <= V
        )
        assert not response.ok
        assert instance.nameserver.catalog is served
        for site in instance.sites.values():
            spec = site.catalog.item("x1")
            assert (spec.read_quorum, spec.write_quorum) == (None, None)
        # Quorums still intersect, so a session after the rejection stays
        # one-copy serializable.
        result = instance.run_workload(
            WorkloadSpec(n_transactions=30, arrival_rate=1.0, read_fraction=0.5)
        )
        assert result.serializable is True
        assert check_serializability(instance, result) == []

    def test_accepted_quorum_change_stays_at_name_server(self, domain):
        instance, tier = domain
        admin = logged_in_applet(tier, "admin", "admin")
        response = admin.call(
            "nsrunnerlet", "configure_quorums",
            {"item": "x1", "read_quorum": 1, "write_quorum": 3},
        )
        assert response.ok
        served = admin.call("nsrunnerlet", "get_catalog").data["catalog"]
        assert served["items"]["x1"]["read_quorum"] == 1
        # Sites keep the snapshot they fetched at bring-up, so coordinators
        # never see quorums change part way through a transaction.
        for site in instance.sites.values():
            assert site.catalog is instance.catalog
        assert instance.catalog.item("x1").read_quorum is None

    def test_custom_user_table(self):
        instance = quick_instance(n_sites=2, n_items=4)
        instance.start()
        tier = RainbowWebTier(instance, users={"ta": ("secret", "admin")})
        applet = GuiApplet(tier)
        assert applet.login("ta", "secret") == "admin"
        with pytest.raises(AuthorizationError):
            GuiApplet(tier).login("student", "student")


class TestRouting:
    def test_applet_only_talks_to_home(self, domain):
        """Every applet request targets the home runner's address."""
        instance, tier = domain
        applet = logged_in_applet(tier)
        seen = []
        instance.network.subscribers.append(
            lambda msg, outcome: seen.append(msg.dst)
            if msg.mtype == MessageType.WEB_REQUEST and msg.src == applet.endpoint.address
            else None
        )
        applet.site_stats("site3")
        assert seen
        assert all(dst == tier.home_address for dst in seen)

    def test_site_stats_forwarded_two_hops(self, domain):
        """site_stats crosses home -> sitelet host when site is remote."""
        instance, tier = domain
        applet = logged_in_applet(tier)
        stats = applet.site_stats("site2")
        assert stats["up"] is True
        assert stats["items"] > 0
        # A forwarded WEB_REQUEST must have left the home host.
        forwards = instance.network.stats.by_type.get(MessageType.WEB_REQUEST, 0)
        assert forwards >= 2  # applet->home plus home->sitelet

    def test_unknown_servlet_reported(self, domain):
        _instance, tier = domain
        applet = logged_in_applet(tier)
        response = applet.call("ghostlet", "x")
        assert not response.ok
        assert "no servlet" in response.error

    def test_unknown_action_reported(self, domain):
        _instance, tier = domain
        applet = logged_in_applet(tier)
        response = applet.call("pmlet", "dance")
        assert not response.ok

    def test_unknown_site_reported(self, domain):
        _instance, tier = domain
        applet = logged_in_applet(tier)
        with pytest.raises(WebTierError):
            applet.site_stats("ghost")


class TestManagementActions:
    def test_lookup_sites_and_catalog(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier)
        sites = applet.lookup_sites()
        assert [s["name"] for s in sites] == ["site1", "site2", "site3", "site4"]
        catalog = applet.get_catalog()
        assert set(catalog["items"]) == set(instance.catalog.item_names())

    def test_ns_status(self, domain):
        _instance, tier = domain
        applet = logged_in_applet(tier)
        status = applet.ns_status()
        assert status["up"] is True
        assert status["n_sites"] == 4

    def test_crash_and_recover_site(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier)
        assert applet.crash_site("site2")["up"] is False
        assert not instance.sites["site2"].up
        assert applet.recover_site("site2")["up"] is True
        # The injector logged both events.
        assert [e.kind for e in instance.injector.log] == ["crash", "recover"]

    def test_submit_transaction_via_wlglet(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier)
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        outcome = applet.submit_transaction(txn)
        assert outcome["status"] == "COMMITTED"
        assert instance.monitor.submitted == 1

    def test_start_workload_and_poll(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier)
        workload_id = applet.start_workload(
            WorkloadSpec(n_transactions=6, arrival_rate=1.0, min_ops=2, max_ops=3)
        )
        instance.sim.run(until=instance.sim.now + 200)
        status = applet.workload_status(workload_id)
        assert status["done"] is True
        assert status["outcomes"] == 6

    def test_workload_spec_as_dict(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier)
        workload_id = applet.start_workload(
            {"n_transactions": 2, "arrival_rate": 1.0, "min_ops": 1, "max_ops": 2}
        )
        instance.sim.run(until=instance.sim.now + 150)
        assert applet.workload_status(workload_id)["done"]

    def test_statistics_through_pmlet(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier)
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        applet.submit_transaction(txn)
        stats = applet.statistics()
        assert stats["committed"] == 1
        assert stats["messages_total"] > 0

    def test_site_statistics_fanout(self, domain):
        _instance, tier = domain
        applet = logged_in_applet(tier)
        merged = applet.site_statistics()
        assert set(merged) == {"site1", "site2", "site3", "site4"}
        assert all("messages_handled" in stats for stats in merged.values())

    def test_timeseries_exposed(self, domain):
        instance, tier = domain
        applet = logged_in_applet(tier)
        instance.monitor.sample()
        series = applet.timeseries()
        assert "t" in series and len(series["t"]) == 1

    def test_site_state_snapshot(self, domain):
        _instance, tier = domain
        applet = logged_in_applet(tier)
        response = applet.call("siterunnerlet", "site_state", {"site": "site1"})
        assert response.ok
        assert isinstance(response.data["snapshot"], dict)
