"""Edge-case tests across modules (error paths and rarely-hit branches)."""

import pytest

from repro.errors import (
    AuthorizationError,
    CommitAbort,
    ConcurrencyAbort,
    RainbowError,
    ReplicationAbort,
    SystemAbort,
    TransactionAborted,
    WebTierError,
)
from repro.gui.applet import GuiApplet
from repro.net.message import Message, MessageType
from repro.txn.transaction import Operation, Transaction
from repro.web.requests import WebRequest, WebResponse
from repro.web.tier import RainbowWebTier
from repro.workload.spec import WorkloadSpec
from tests.conftest import drive, quick_instance


class TestErrorHierarchy:
    def test_abort_causes(self):
        assert ReplicationAbort("x").cause == "RCP"
        assert ConcurrencyAbort("x").cause == "CCP"
        assert CommitAbort("x").cause == "ACP"
        assert SystemAbort("x").cause == "SYSTEM"

    def test_aborts_are_transaction_aborted(self):
        for error in (ReplicationAbort(), ConcurrencyAbort(), CommitAbort(), SystemAbort()):
            assert isinstance(error, TransactionAborted)
            assert isinstance(error, RainbowError)

    def test_authorization_is_webtier_error(self):
        assert isinstance(AuthorizationError("x"), WebTierError)

    def test_abort_message_format(self):
        error = ConcurrencyAbort("lock timeout")
        assert "CCP" in str(error)
        assert "lock timeout" in str(error)


class TestKernelOdds:
    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(7)
        assert sim.peek() == 7.0

    def test_run_until_none_with_no_events(self, sim):
        sim.run()
        assert sim.now == 0.0

    def test_event_repr_is_stable(self, sim):
        event = sim.event("named")
        assert "named" in repr(event)


class TestMessageOdds:
    def test_sent_at_stamped_on_send(self, sim, network):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        sim.run(until=3)
        msg = a.send("h2/b", "X")
        assert msg.sent_at == 3.0

    def test_reply_defaults_size(self):
        request = Message(src="a/1", dst="b/2", mtype="X", size=10)
        reply = request.reply("Y")
        assert reply.size == 1


class TestWebTierErrorPaths:
    @pytest.fixture
    def applet(self):
        instance = quick_instance(n_items=8, settle_time=10)
        instance.start()
        tier = RainbowWebTier(instance)
        applet = GuiApplet(tier)
        applet.login("student", "student")
        return applet

    def test_wlglet_unknown_home_site(self, applet):
        txn = Transaction(ops=[Operation.read("x1")], home_site="ghost")
        response = applet.call("wlglet", "submit_txn", {"txn": txn})
        assert not response.ok
        assert "unknown home site" in response.error

    def test_wlglet_unknown_workload_id(self, applet):
        response = applet.call("wlglet", "workload_status", {"workload_id": 424242})
        assert not response.ok

    def test_stale_token_rejected(self, applet):
        applet.token = "tok-forged"
        response = applet.call("pmlet", "statistics")
        assert not response.ok
        assert "not logged in" in response.error

    def test_logout_invalidates_token(self, applet):
        token = applet.token
        applet.logout()
        applet.token = token
        response = applet.call("pmlet", "statistics")
        assert not response.ok

    def test_configure_quorums_validates(self, applet):
        admin = GuiApplet(applet.tier)
        admin.login("admin", "admin")
        response = admin.call(
            "nsrunnerlet", "configure_quorums",
            {"item": "x1", "read_quorum": 1, "write_quorum": 1},  # r+w <= V
        )
        assert not response.ok

    def test_web_request_roundtrip_defaults(self):
        request = WebRequest.from_payload({})
        assert request.servlet == ""
        assert request.args == {}
        response = WebResponse.from_payload(None)
        assert not response.ok


class TestWorkloadOdds:
    def test_think_time_slows_closed_loop(self):
        fast = quick_instance(n_items=32, seed=42, settle_time=10)
        slow = quick_instance(n_items=32, seed=42, settle_time=10)
        spec_fast = WorkloadSpec(n_transactions=6, arrival="closed", mpl=2,
                                 think_time=0.0)
        spec_slow = WorkloadSpec(n_transactions=6, arrival="closed", mpl=2,
                                 think_time=25.0)
        fast.run_workload(spec_fast)
        slow.run_workload(spec_slow)
        assert slow.sim.now > fast.sim.now

    def test_manual_workload_time_ordering(self):
        instance = quick_instance(n_items=8, settle_time=20)
        manual = instance.manual_workload()
        late = Transaction(ops=[Operation.read("x1")], home_site="site1")
        early = Transaction(ops=[Operation.write("x1", 1)], home_site="site2")
        manual.add(late, at=50.0).add(early, at=0.0)  # added out of order
        instance.run_manual(manual)
        assert early.decided_at < late.decided_at
        assert late.reads["x1"] == 1  # saw the earlier write

    def test_min_equals_max_ops(self):
        import random

        from repro.workload.generator import WorkloadGenerator

        instance = quick_instance(n_items=32)
        spec = WorkloadSpec(min_ops=3, max_ops=3)
        generator = WorkloadGenerator(
            instance.sim, instance.network, instance.directory, instance.catalog,
            spec, random.Random(0), monitor=instance.monitor, name="wlg-eq",
        )
        assert all(len(generator.make_transaction().ops) <= 3 for _ in range(10))


class TestMonitorOdds:
    def test_aborted_txn_still_gets_message_count(self):
        instance = quick_instance(n_items=8, settle_time=20)
        instance.start()
        txn = Transaction(ops=[Operation.write("x2", 1)], home_site="site1", txn_id=1)
        instance.sites["site2"].cc.doom(txn.txn_id)
        process = instance.submit(txn)
        instance.sim.run(until=process)
        record = next(r for r in instance.monitor.records if r.txn_id == txn.txn_id)
        assert record.status == "ABORTED"
        assert record.messages > 0

    def test_nameserver_counts_queries(self):
        instance = quick_instance(n_items=4)
        instance.start()
        # Bootstrap: every site asked NS_LOOKUP and NS_CATALOG.
        assert instance.nameserver.queries_served == 2 * len(instance.sites)


class TestPanelsOdds:
    def test_session_panel_without_recent(self, sim, network):
        from repro.gui.panels import render_session_panel
        from repro.monitor.stats import ProgressMonitor

        monitor = ProgressMonitor(sim, network)
        panel = render_session_panel(monitor.output_statistics())
        assert "Recent transactions" not in panel

    def test_replication_panel_without_fragments(self):
        from repro.gui.panels import render_replication_panel
        from repro.nameserver.catalog import Catalog

        catalog = Catalog()
        catalog.add_item("a", placement=["s1"])
        panel = render_replication_panel(catalog)
        assert "Fragments:" not in panel


class TestCliOdds:
    def test_experiment_matrix_via_cli(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import load_balance, protocol_matrix

        # The CLI imports the experiment's module and calls its ``run``.
        monkeypatch.setattr(
            protocol_matrix, "run", lambda: load_balance.run(n_txns=10)
        )
        assert cli.main(["experiment", "matrix"]) == 0
        assert "EXP-LB" in capsys.readouterr().out
