"""Unit tests for the simulated network, messages, latency, RPC."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError, RpcTimeout
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LanWanLatency,
    UniformLatency,
)
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator
from tests.conftest import drive


class TestMessage:
    def test_ids_unique_and_increasing(self):
        network = Network(Simulator())
        sender = network.endpoint("h", "a")
        a = sender.send("h/b", "T")
        b = sender.send("h/b", "T")
        assert (a.msg_id, b.msg_id) == (1, 2)
        # Each network numbers its own messages.
        assert Network(Simulator()).endpoint("h", "a").send("h/b", "T").msg_id == 1

    def test_reply_swaps_endpoints_and_links(self):
        request = Message(src="a/1", dst="b/2", mtype=MessageType.READ, txn_id=9)
        reply = request.reply(MessageType.READ_REPLY, payload={"ok": True})
        assert reply.src == "b/2"
        assert reply.dst == "a/1"
        assert reply.reply_to == request.msg_id
        assert reply.txn_id == 9

    def test_categories(self):
        assert MessageType.category(MessageType.READ) == "data"
        assert MessageType.category(MessageType.VOTE_REQ) == "commit"
        assert MessageType.category(MessageType.NS_LOOKUP) == "nameserver"
        assert MessageType.category(MessageType.WEB_REQUEST) == "web"
        assert MessageType.category("WEIRD") == "other"


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(2.5)
        assert model.delay("a", "b", 1, random.Random(0)) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(1.0, 3.0)
        rng = random.Random(0)
        draws = [model.delay("a", "b", 1, rng) for _ in range(100)]
        assert all(1.0 <= d <= 3.0 for d in draws)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)

    def test_exponential_has_floor(self):
        model = ExponentialLatency(mean=1.0, floor=0.5)
        rng = random.Random(0)
        assert all(model.delay("a", "b", 1, rng) >= 0.5 for _ in range(100))

    def test_exponential_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ExponentialLatency(mean=0)
        with pytest.raises(ValueError):
            ExponentialLatency(mean=1, floor=-1)

    def test_lanwan_local_vs_remote(self):
        model = LanWanLatency(local=0.1, remote_low=1.0, remote_high=2.0)
        rng = random.Random(0)
        assert model.delay("h1", "h1", 1, rng) == 0.1
        assert model.delay("h1", "h2", 1, rng) >= 1.0

    def test_lanwan_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LanWanLatency(local=-1)


class TestEndpoints:
    def test_duplicate_address_rejected(self, sim):
        network = Network(sim)
        network.endpoint("h", "a")
        with pytest.raises(NetworkError):
            network.endpoint("h", "a")

    def test_lookup_unknown_raises(self, sim, network):
        with pytest.raises(NetworkError):
            network.lookup("nope/nothing")

    def test_addresses_sorted(self, sim, network):
        network.endpoint("h2", "b")
        network.endpoint("h1", "a")
        assert network.addresses() == ["h1/a", "h2/b"]

    def test_send_and_receive(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        received = []
        b.serve(lambda msg: received.append((msg.mtype, msg.payload, sim.now)))
        a.send(b.address, "PING", payload=123)
        sim.run()
        assert received == [("PING", 123, 1.0)]  # ConstantLatency(1.0)

    def test_message_delivered_before_serve_is_discarded(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "EARLY")
        sim.run()
        assert network.stats.delivered == 1

        received = []
        b.serve(lambda msg: received.append((msg.mtype, sim.now)))
        a.send(b.address, "PING")
        sim.run()
        assert received == [("PING", 2.0)]


def _mailbox_session(latency: float, script):
    """Run ``script`` against one mailbox; return its deliveries and handles.

    Every step happens at its own time: a send to the mailbox, a crash, a
    recovery, or a (possibly late) ``serve``.  The handler sometimes sends
    again, so deliveries also land at instants the script did not choose.
    Each delivery is logged with whether the script's own model says the
    endpoint was up and served at that moment; the handler logs what it
    handles and whether it runs inside that delivery's kernel event.
    """
    sim = Simulator()
    network = Network(sim, ConstantLatency(latency))
    a = network.endpoint("h1", "a")
    b = network.endpoint("h2", "b")
    model = {"up": True, "served": False}
    deliveries, handled = [], []
    in_delivery = []
    deliver = b._deliver

    def spy(msg):
        deliveries.append((sim.now, msg.payload, model["up"] and model["served"]))
        in_delivery.append(msg)
        deliver(msg)
        in_delivery.pop()

    b._deliver = spy
    payloads = iter(range(1000))

    def handler(msg):
        handled.append((sim.now, msg.payload, in_delivery[-1:] == [msg]))
        if msg.payload % 3 == 0 and msg.payload < 60:
            a.send(b.address, "AGAIN", payload=next(payloads))

    def crash():
        model.update(up=False, served=False)
        b.set_down()

    def recover():
        model["up"] = True
        b.set_up()

    def serve():
        model["served"] = True
        b.serve(handler)

    actions = {"crash": crash, "recover": recover, "serve": serve}
    for kind, at in script:
        if kind == "send":
            sim.defer(at, lambda: a.send(b.address, "PING", payload=next(payloads)))
        else:
            sim.defer(at, actions[kind])
    sim.run()
    return deliveries, handled


_script_steps = st.tuples(
    st.sampled_from(["send", "send", "send", "crash", "recover", "serve"]),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
)


class TestServedMailbox:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(latency=st.sampled_from([0.0, 1.0]), script=st.lists(_script_steps, max_size=25))
    def test_each_live_delivery_is_handled_once_in_its_own_event(self, latency, script):
        deliveries, handled = _mailbox_session(latency, script)
        expected = [(now, payload, True) for now, payload, live in deliveries if live]
        # Exactly once, at the delivery instant, in delivery order, from
        # inside the delivering call; nothing delivered while the endpoint
        # was down or unserved is handled, then or later.
        assert handled == expected

    def test_served_request_costs_one_kernel_event(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        handled = []
        b.serve(handled.append)
        before = sim.processed_events
        for _ in range(5):
            a.send(b.address, "PING")
        sim.run()
        assert len(handled) == 5
        assert sim.processed_events - before == 5

    def test_late_reply_without_handler_leaves_no_state(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")

        def slow_reply(msg):
            yield sim.timeout(10)
            b.reply(msg, "PONG")

        b.serve(lambda msg: sim.process(slow_reply(msg)))

        def client():
            with pytest.raises(RpcTimeout):
                yield a.request(b.address, "PING", timeout=3)

        drive(sim, client())
        sim.run()
        assert network.stats.delivered == 2  # the late reply arrived
        assert a._pending_rpcs == {}
        assert not sim._heap
        # Nothing was kept for a handler installed afterwards.
        got = []
        a.serve(got.append)
        sim.run()
        assert got == []

    def test_answered_rpc_leaves_no_live_expiry_timer(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b.serve(lambda msg: b.reply(msg, "PONG"))

        def client():
            yield a.request(b.address, "PING", timeout=90)

        drive(sim, client())
        assert sim.now == 2.0
        live = [entry for entry in sim._heap if entry[2]._live]
        assert not [entry for entry in live if getattr(entry[2], "fn", None) == a._expire]
        sim.run()
        assert sim.now == 2.0  # the expiry never fires, so the clock stays put


class TestRpc:
    def test_request_reply_roundtrip(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")

        b.serve(lambda msg: b.reply(msg, "PONG", payload=msg.payload + 1))

        def client():
            reply = yield a.request(b.address, "PING", payload=1, timeout=10)
            return reply.payload

        assert drive(sim, client()) == 2
        assert network.stats.round_trips == 1

    def test_request_times_out_when_no_answer(self, sim, network):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")  # never answers

        def client():
            with pytest.raises(RpcTimeout):
                yield a.request("h2/b", "PING", timeout=5)
            return sim.now

        assert drive(sim, client()) == 5.0
        assert network.stats.rpc_timeouts == 1

    def test_request_to_unknown_destination_times_out(self, sim, network):
        a = network.endpoint("h1", "a")

        def client():
            with pytest.raises(RpcTimeout):
                yield a.request("ghost/x", "PING", timeout=3)

        drive(sim, client())
        assert network.stats.dropped == 1

    def test_late_reply_after_timeout_not_matched(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")

        def slow_reply(msg):
            yield sim.timeout(10)
            b.reply(msg, "PONG")

        b.serve(lambda msg: sim.process(slow_reply(msg)))

        def client():
            with pytest.raises(RpcTimeout):
                yield a.request(b.address, "PING", timeout=3)

        got = []
        a.serve(got.append)
        drive(sim, client())
        sim.run()
        # The late reply is delivered to a's handler as an orphan message.
        assert [msg.mtype for msg in got] == ["PONG"]

    def test_invalid_timeout_rejected(self, sim, network):
        a = network.endpoint("h1", "a")
        with pytest.raises(Exception):
            a.request("h1/a", "X", timeout=0)


class TestFailureModes:
    def test_down_endpoint_loses_messages(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b.set_down()
        got = []
        b.serve(got.append)
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1
        assert got == []

    def test_down_endpoint_stops_serving(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        served = []
        b.serve(served.append)
        sim.defer(1.5, b.set_down)
        sim.defer(1.5, b.set_up)
        a.send(b.address, "BEFORE")
        sim.run()
        a.send(b.address, "AFTER")
        sim.run()
        # The crash dropped the handler: the recovered mailbox discards.
        assert [msg.mtype for msg in served] == ["BEFORE"]
        assert network.stats.delivered == 2

    def test_down_endpoint_fails_pending_rpcs(self, sim, network):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")

        def client():
            with pytest.raises(NetworkError):
                yield a.request("h2/b", "PING", timeout=100)
            return sim.now

        process = sim.process(client())
        sim.defer(2, a.set_down)
        assert sim.run(until=process) == 2.0

    def test_source_down_drops_sends(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.set_down()
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1

    def test_recovered_endpoint_receives_again(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b.set_down()
        b.set_up()
        got = []
        b.serve(got.append)
        a.send(b.address, "PING")
        sim.run()
        assert len(got) == 1

    def test_in_flight_messages_lost_on_crash(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        got = []
        b.serve(got.append)
        a.send(b.address, "PING")
        sim.defer(0.5, b.set_down)
        sim.run()
        b.set_up()
        b.serve(got.append)
        sim.run()
        assert got == []
        assert network.stats.dropped == 1


class TestPartitions:
    def _pair(self, sim, network):
        a, b = network.endpoint("h1", "a"), network.endpoint("h2", "b")
        self.got = []
        b.serve(self.got.append)
        return a, b

    def test_partition_drops_cross_group(self, sim, network):
        a, b = self._pair(sim, network)
        network.partition([["h1"], ["h2"]])
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1

    def test_partition_allows_same_group(self, sim, network):
        a, b = self._pair(sim, network)
        network.partition([["h1", "h2"]])
        a.send(b.address, "PING")
        sim.run()
        assert len(self.got) == 1

    def test_unlisted_hosts_form_implicit_group(self, sim, network):
        a, b = self._pair(sim, network)
        c = network.endpoint("h3", "c")
        got = []
        c.serve(got.append)
        network.partition([["h1"]])
        b.send(c.address, "PING")  # h2 and h3 both implicit
        sim.run()
        assert len(got) == 1

    def test_heal_partition(self, sim, network):
        a, b = self._pair(sim, network)
        network.partition([["h1"], ["h2"]])
        network.heal_partition()
        a.send(b.address, "PING")
        sim.run()
        assert len(self.got) == 1

    def test_host_in_two_groups_rejected(self, sim, network):
        with pytest.raises(NetworkError):
            network.partition([["h1"], ["h1"]])

    def test_cut_and_restore_link(self, sim, network):
        a, b = self._pair(sim, network)
        network.cut_link("h1", "h2")
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1
        network.restore_link("h1", "h2")
        a.send(b.address, "PING")
        sim.run()
        assert len(self.got) == 1

    def test_cut_link_does_not_affect_local(self, sim, network):
        a = network.endpoint("h1", "a")
        a2 = network.endpoint("h1", "a2")
        got = []
        a2.serve(got.append)
        network.cut_link("h1", "h1")
        a.send(a2.address, "PING")
        sim.run()
        assert len(got) == 1


class TestLossAndStats:
    def test_random_loss(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7), loss_rate=0.5)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        for _ in range(200):
            a.send(b.address, "PING")
        sim.run()
        assert 40 < network.stats.dropped < 160

    def test_invalid_loss_rate(self, sim):
        with pytest.raises(NetworkError):
            Network(sim, loss_rate=1.0)

    def test_random_loss_counted_separately(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7), loss_rate=0.5)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert network.stats.lost_random == network.stats.dropped
        assert network.stats.lost_by_type["PING"] == network.stats.lost_random

    def test_duplication_delivers_extra_copies(self):
        sim = Simulator()
        network = Network(
            sim, ConstantLatency(0.1), rng=random.Random(7), duplication_rate=0.5
        )
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        got = []
        b.serve(got.append)
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert network.stats.sent == 100
        assert 10 < network.stats.duplicated < 90
        assert len(got) == 100 + network.stats.duplicated
        assert network.stats.delivered == 100 + network.stats.duplicated

    def test_invalid_duplication_rate(self, sim):
        with pytest.raises(NetworkError):
            Network(sim, duplication_rate=1.0)

    def test_by_type_counter(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "X")
        a.send(b.address, "X")
        a.send(b.address, "Y")
        assert network.stats.by_type == {"X": 2, "Y": 1}

    def test_bytes_accounting(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "X", size=10)
        a.send(b.address, "X", size=5)
        assert network.stats.bytes_sent == 15

    def test_observer_sees_outcomes(self, sim, network):
        seen = []
        network.subscribers.append(lambda msg, outcome: seen.append((msg.mtype, outcome)))
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b.set_down()
        a.send(b.address, "DEAD")
        sim.run()
        assert ("DEAD", "endpoint down") in seen

    def test_snapshot_is_plain_dict(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "X")
        snap = network.stats.snapshot()
        assert snap["sent"] == 1
        assert isinstance(snap["by_type"], dict)
        assert snap["lost_random"] == 0
        assert snap["duplicated"] == 0


class TestFlakyLinks:
    def test_flaky_link_overrides_loss_for_one_pair(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7))
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        c = network.endpoint("h3", "c")
        got = []
        c.serve(got.append)
        network.set_link_flakiness("h1", "h2", loss=0.99)
        for _ in range(100):
            a.send(b.address, "PING")
            a.send(c.address, "PING")
        sim.run()
        assert network.stats.lost_random > 80  # h1-h2 very lossy
        assert len(got) == 100  # h1-h3 untouched

    def test_flaky_link_duplicates(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7))
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        got = []
        b.serve(got.append)
        network.set_link_flakiness("h1", "h2", duplicate=0.5)
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert 10 < network.stats.duplicated < 90
        assert len(got) == 100 + network.stats.duplicated

    def test_clear_link_flakiness(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        got = []
        b.serve(got.append)
        network.set_link_flakiness("h1", "h2", loss=0.99)
        network.clear_link_flakiness("h1", "h2")
        a.send(b.address, "PING")
        sim.run()
        assert len(got) == 1

    def test_clear_flaky_links_heals_all(self, sim, network):
        network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        network.set_link_flakiness("h1", "h2", loss=0.5)
        network.clear_flaky_links()
        assert network._flaky_links == {}

    def test_same_host_traffic_unaffected(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7))
        a = network.endpoint("h1", "a")
        a2 = network.endpoint("h1", "a2")
        got = []
        a2.serve(got.append)
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h1", loss=0.5)
        network.set_link_flakiness("h1", "h2", loss=0.99)
        for _ in range(50):
            a.send(a2.address, "PING")
        sim.run()
        assert len(got) == 50

    def test_invalid_rates_rejected(self, sim, network):
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h2", loss=1.0)
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h2", duplicate=-0.1)
