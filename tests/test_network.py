"""Unit tests for the simulated network, messages, latency, RPC."""

import random
from collections import deque

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
        a = Message(src="x", dst="y", mtype="T")
        b = Message(src="x", dst="y", mtype="T")
        assert b.msg_id > a.msg_id

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

    def test_receive_queued_message_immediately(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "PING")
        sim.run()
        assert b.pending_count() == 1

        received = []
        b.serve(lambda msg: received.append((msg.mtype, sim.now)))
        sim.run()
        assert received == [("PING", 1.0)]
        assert b.pending_count() == 0


class _ReceiveLoop:
    """Reference mailbox: a server process blocked on one receive event.

    This is how endpoints were served before :meth:`Endpoint.serve`: a
    delivery to a waiting receiver succeeds its receive event, and the
    process takes the next queued message as soon as it asks again.  It
    takes over the endpoint's deliveries at once and queues them until
    :meth:`start` launches the server process.
    """

    def __init__(self, sim, endpoint):
        self.sim = sim
        self.queue = deque()
        self.receivers = deque()
        endpoint._deliver = self.deliver

    def start(self, handler):
        self.sim.process(self.loop(handler))

    def receive(self):
        event = self.sim.event()
        if self.queue:
            event.succeed(self.queue.popleft())
        else:
            self.receivers.append(event)
        return event

    def deliver(self, msg):
        if self.receivers:
            self.receivers.popleft().succeed(msg)
        else:
            self.queue.append(msg)

    def loop(self, handler):
        while True:
            msg = yield self.receive()
            handler(msg)


def _mailbox_session(reference: bool, latency: float, script) -> list:
    """Log every same-instant occurrence around one served mailbox.

    ``script`` is run at time 0: sends to the mailbox, bare timers and
    processes waking at chosen delays, and the point where the mailbox is
    armed.  The handler reacts to each message by logging it and, by
    payload, deferring a call, triggering an event or sending again.
    """
    sim = Simulator()
    network = Network(sim, ConstantLatency(latency))
    a = network.endpoint("h1", "a")
    b = network.endpoint("h2", "b")
    serve = _ReceiveLoop(sim, b).start if reference else b.serve
    log = []

    def handler(msg):
        log.append((sim.now, "handle", msg.payload))
        reaction = msg.payload % 4
        if reaction == 1:
            sim.defer(0, log.append, (sim.now, "deferred", msg.payload))
        elif reaction == 2:
            event = sim.event()
            event.add_callback(lambda _ev: log.append((sim.now, "event", msg.payload)))
            event.succeed()
        elif reaction == 3 and msg.payload < 40:
            a.send(b.address, "AGAIN", payload=msg.payload + 10)

    def sleeper(tag, delay):
        yield sim.timeout(delay)
        log.append((sim.now, "process", tag))

    for step, (kind, value) in enumerate(script):
        if kind == "serve":
            serve(handler)
        elif kind == "send":
            a.send(b.address, "PING", payload=value)
        elif kind == "timer":
            sim.defer(value, log.append, (value, "timer", step))
        else:
            sim.process(sleeper(step, value))
    sim.run()
    return log


_script_steps = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 40)),
    st.tuples(st.sampled_from(["timer", "process"]), st.sampled_from([0.0, 1.0, 2.0])),
)


class TestServedMailbox:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        latency=st.sampled_from([0.0, 1.0]),
        steps=st.lists(_script_steps, max_size=25),
        serve_at=st.integers(0, 25),
    )
    def test_interleaving_matches_a_receive_loop(self, latency, steps, serve_at):
        script = list(steps)
        script.insert(min(serve_at, len(script)), ("serve", None))
        assert _mailbox_session(True, latency, script) == _mailbox_session(
            False, latency, script
        )

    def test_crash_between_delivery_and_service_drops_message(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        served = []
        b.serve(served.append)
        sim.run()
        a.send(b.address, "PING")
        # Delivered at t=1 first (sent earlier), then the crash, all before
        # the delivery's service call runs at the same instant.
        sim.defer(1.0, b.set_down)
        sim.run()
        assert served == []
        assert network.stats.delivered == 1
        assert b.pending_count() == 0

    def test_crash_and_recovery_at_same_instant_drops_message(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        served = []
        b.serve(served.append)
        sim.run()

        def crash_and_recover():
            b.set_down()
            b.set_up()
            b.serve(served.append)

        a.send(b.address, "LOST")
        sim.defer(1.0, crash_and_recover)
        sim.run()
        assert served == []
        a.send(b.address, "SERVED")
        sim.run()
        assert [msg.mtype for msg in served] == ["SERVED"]

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

        drive(sim, client())
        sim.run()
        # Late reply is delivered to a's queue as an orphan message.
        assert a.pending_count() == 1

    def test_invalid_timeout_rejected(self, sim, network):
        a = network.endpoint("h1", "a")
        with pytest.raises(Exception):
            a.request("h1/a", "X", timeout=0)


class TestFailureModes:
    def test_down_endpoint_loses_messages(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b.set_down()
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1
        assert b.pending_count() == 0

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
        # The crash dropped the handler: the recovered mailbox only queues.
        assert [msg.mtype for msg in served] == ["BEFORE"]
        assert b.pending_count() == 1

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
        a.send(b.address, "PING")
        sim.run()
        assert b.pending_count() == 1

    def test_queued_messages_lost_on_crash(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "PING")
        sim.run()
        assert b.pending_count() == 1
        b.set_down()
        assert b.pending_count() == 0


class TestPartitions:
    def _pair(self, sim, network):
        return network.endpoint("h1", "a"), network.endpoint("h2", "b")

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
        assert b.pending_count() == 1

    def test_unlisted_hosts_form_implicit_group(self, sim, network):
        a, b = self._pair(sim, network)
        c = network.endpoint("h3", "c")
        network.partition([["h1"]])
        b.send(c.address, "PING")  # h2 and h3 both implicit
        sim.run()
        assert c.pending_count() == 1

    def test_heal_partition(self, sim, network):
        a, b = self._pair(sim, network)
        network.partition([["h1"], ["h2"]])
        network.heal_partition()
        a.send(b.address, "PING")
        sim.run()
        assert b.pending_count() == 1

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
        assert b.pending_count() == 1

    def test_cut_link_does_not_affect_local(self, sim, network):
        a = network.endpoint("h1", "a")
        a2 = network.endpoint("h1", "a2")
        network.cut_link("h1", "h1")
        a.send(a2.address, "PING")
        sim.run()
        assert a2.pending_count() == 1


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
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert network.stats.sent == 100
        assert 10 < network.stats.duplicated < 90
        assert b.pending_count() == 100 + network.stats.duplicated
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
        network.add_observer(lambda msg, outcome: seen.append((msg.mtype, outcome)))
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
        network.set_link_flakiness("h1", "h2", loss=0.99)
        for _ in range(100):
            a.send(b.address, "PING")
            a.send(c.address, "PING")
        sim.run()
        assert network.stats.lost_random > 80  # h1-h2 very lossy
        assert c.pending_count() == 100  # h1-h3 untouched

    def test_flaky_link_duplicates(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7))
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        network.set_link_flakiness("h1", "h2", duplicate=0.5)
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert 10 < network.stats.duplicated < 90
        assert b.pending_count() == 100 + network.stats.duplicated

    def test_clear_link_flakiness(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        network.set_link_flakiness("h1", "h2", loss=0.99)
        network.clear_link_flakiness("h1", "h2")
        a.send(b.address, "PING")
        sim.run()
        assert b.pending_count() == 1

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
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h1", loss=0.5)
        network.set_link_flakiness("h1", "h2", loss=0.99)
        for _ in range(50):
            a.send(a2.address, "PING")
        sim.run()
        assert a2.pending_count() == 50

    def test_invalid_rates_rejected(self, sim, network):
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h2", loss=1.0)
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h2", duplicate=-0.1)
