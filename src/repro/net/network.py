"""The simulated network: endpoints, delivery, partitions, accounting.

This is the reproduction of Rainbow's network simulator.  Components obtain
an :class:`Endpoint` (addressed ``host/name``), exchange :class:`Message`
objects through :meth:`Network.send`, and answer requests from a served
mailbox (:meth:`Endpoint.serve`): each delivered request is handed to the
owner's handler in the kernel event that delivers it, with no server
process.
Request/reply exchanges go through :meth:`Endpoint.request`, which handles
correlation ids, cancellable expiry timers, and round-trip accounting.

Failure semantics (driven by the fault injector):

* a *down* endpoint receives nothing — in-flight messages to it are lost,
  like a crashed Java process;
* a *partition* silently drops messages crossing partition boundaries;
* an explicitly cut *link* drops messages in both directions;
* an optional random *loss rate* models an unreliable transport;
* a *flaky link* overrides the loss rate for one host pair and may also
  *duplicate* messages (an independent delivery with its own latency draw),
  stressing the idempotence of decision delivery.

Every send is accounted (by type, by category, delivered/dropped) so the
progress monitor can report "total number of messages generated per time
unit" and "round trip messages" exactly as the paper lists.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Callable, Iterable, Optional

from repro.errors import NetworkError, RpcTimeout, SimulationError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.obs.spans import SpanRef
from repro.sim.kernel import Event, Simulator

__all__ = ["Network", "Endpoint", "NetworkStats"]


class NetworkStats:
    """Message accounting maintained by the network."""

    def __init__(self):
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.round_trips = 0
        self.rpc_timeouts = 0
        self.by_type: Counter[str] = Counter()
        self.dropped_by_type: Counter[str] = Counter()
        # Unreliable-transport accounting: messages dropped by the random
        # loss rate (a subset of ``dropped``) and extra copies injected by
        # link duplication (never counted in ``sent``).
        self.lost_random = 0
        self.lost_by_type: Counter[str] = Counter()
        self.duplicated = 0
        self.duplicated_by_type: Counter[str] = Counter()
        self.bytes_sent = 0
        self.queueing_delay_total = 0.0

    def snapshot(self) -> dict:
        """A plain-dict copy for monitors and panels."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "round_trips": self.round_trips,
            "rpc_timeouts": self.rpc_timeouts,
            "by_type": dict(self.by_type),
            "dropped_by_type": dict(self.dropped_by_type),
            "lost_random": self.lost_random,
            "lost_by_type": dict(self.lost_by_type),
            "duplicated": self.duplicated,
            "duplicated_by_type": dict(self.duplicated_by_type),
            "bytes_sent": self.bytes_sent,
            "queueing_delay_total": self.queueing_delay_total,
        }


class Endpoint:
    """A named mailbox attached to the network.

    Addresses have the form ``host/name`` (e.g. ``"hostA/site1"``); the host
    part drives the latency model and partitioning, mirroring Rainbow's
    "several sites may share one physical host" deployment.

    The owner installs a handler with :meth:`serve`; each delivered request
    is handed to it in the kernel event that delivers it, so no server
    process is needed.  A request delivered while no handler is installed
    is counted as delivered and discarded.
    """

    def __init__(self, network: "Network", host: str, name: str):
        self.network = network
        self.host = host
        self.name = name
        self.address = f"{host}/{name}"
        self.up = True
        self._handler: Optional[Callable[[Message], None]] = None
        # msg_id -> (reply event, expiry timer) of each outstanding RPC.
        self._pending_rpcs: dict[int, tuple[Event, object]] = {}

    # -- lifecycle ----------------------------------------------------------
    def set_down(self) -> None:
        """Crash the endpoint: stop serving.

        The handler is dropped (a recovering owner calls :meth:`serve`
        again).  Pending RPCs issued *by* this endpoint are failed too — the
        caller process died with its site, and Rainbow counts the resulting
        half-done transactions as orphans.
        """
        sim = self.network.sim
        self.up = False
        self._handler = None
        pending, self._pending_rpcs = self._pending_rpcs, {}
        for event, expiry in pending.values():
            sim.cancel(expiry)
            if not event.triggered:
                event.fail(NetworkError(f"endpoint {self.address} went down"))

    def set_up(self) -> None:
        """Recover the endpoint (it serves again once the owner calls :meth:`serve`)."""
        self.up = True

    # -- receive path ---------------------------------------------------------
    def serve(self, handler: Callable[[Message], None]) -> None:
        """Hand every request delivered from now on to ``handler(msg)``."""
        self._handler = handler

    def _deliver(self, msg: Message) -> None:
        if not self.up:
            self.network._account_drop(msg, reason="endpoint down")
            return
        self.network.stats.delivered += 1
        if msg.reply_to is not None and msg.reply_to in self._pending_rpcs:
            event, expiry = self._pending_rpcs.pop(msg.reply_to)
            self.network.sim.cancel(expiry)
            self.network.stats.round_trips += 1
            if not event.triggered:
                event.succeed(msg)
            return
        if self._handler is not None:
            self._handler(msg)

    # -- send path -------------------------------------------------------------
    def send(
        self,
        dst: str,
        mtype: str,
        payload=None,
        *,
        reply_to: Optional[int] = None,
        txn_id: Optional[int] = None,
        size: int = 1,
        span: Optional[SpanRef] = None,
    ) -> Message:
        """Fire-and-forget send.  Returns the message (for correlation)."""
        msg = Message(
            src=self.address,
            dst=dst,
            mtype=mtype,
            payload=payload,
            reply_to=reply_to,
            txn_id=txn_id,
            size=size,
            span=span,
        )
        self.network.send(msg)
        return msg

    def reply(self, request: Message, mtype: str, payload=None, size: int = 1) -> Message:
        """Send the reply to ``request``."""
        msg = request.reply(mtype, payload, size=size)
        self.network.send(msg)
        return msg

    def request(
        self,
        dst: str,
        mtype: str,
        payload=None,
        *,
        timeout: float = 50.0,
        txn_id: Optional[int] = None,
        size: int = 1,
        span: Optional[SpanRef] = None,
    ) -> Event:
        """Request/reply exchange with a timeout.

        Returns an event that succeeds with the reply :class:`Message` or
        fails with :class:`RpcTimeout`.  A crashed destination simply never
        answers — exactly the failure mode 2PC's timeout actions exist for.
        """
        if timeout <= 0:
            raise SimulationError(f"rpc timeout must be positive, got {timeout}")
        sim = self.network.sim
        result = sim.event(name=mtype)
        msg = self.send(dst, mtype, payload, txn_id=txn_id, size=size, span=span)
        # The reply (or a crash of this endpoint) cancels the expiry timer,
        # so the heap only holds timers that may still fire.
        self._pending_rpcs[msg.msg_id] = (result, sim.defer(timeout, self._expire, msg))
        return result

    def _expire(self, msg: Message) -> None:
        """Fail the RPC for ``msg``: its reply has not arrived in time."""
        event, _expiry = self._pending_rpcs.pop(msg.msg_id)
        if not event.triggered:
            self.network.stats.rpc_timeouts += 1
            event.fail(RpcTimeout(f"{msg.mtype} to {msg.dst} timed out", destination=msg.dst))


class Network:
    """Simulated message-passing network with latency, partitions and loss."""

    #: Counter decorrelating the default RNGs of networks built without an
    #: explicit ``rng``/``seed``: every instantiation draws a fresh seed, so
    #: two networks in one process never share loss/latency decisions.
    _default_seed_counter = itertools.count()

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        loss_rate: float = 0.0,
        host_service_time: float = 0.0,
        seed: int | None = None,
        duplication_rate: float = 0.0,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= duplication_rate < 1.0:
            raise NetworkError(
                f"duplication_rate must be in [0, 1), got {duplication_rate}"
            )
        if host_service_time < 0:
            raise NetworkError("host_service_time must be >= 0")
        if rng is not None and seed is not None:
            raise NetworkError("pass either rng or seed, not both")
        self.sim = sim
        self.latency = latency or ConstantLatency(1.0)
        if rng is None:
            # No caller-supplied stream: derive a per-instance seed instead
            # of the old shared ``Random(0)`` fallback, which silently
            # correlated the loss decisions of every network in a process.
            if seed is None:
                seed = 0x52414E42 + next(Network._default_seed_counter)
            rng = random.Random(seed)
        self.rng = rng
        self.loss_rate = loss_rate
        self.duplication_rate = duplication_rate
        # Receiver-side serialisation: each host processes incoming
        # messages one at a time, ``host_service_time * size`` each, so a
        # burst to one host queues up.  0 disables queueing (infinite
        # capacity), which is the default.
        self.host_service_time = host_service_time
        self._busy_until: dict[str, float] = {}
        self.stats = NetworkStats()
        self._endpoints: dict[str, Endpoint] = {}
        self._partition_of: dict[str, int] = {}
        #: Group of the hosts an active partition does not mention.
        self._implicit_group = 0
        self._cut_links: set[frozenset[str]] = set()
        #: host-pair -> (loss, duplicate) probabilities overriding the
        #: network-wide rates for messages crossing that link.
        self._flaky_links: dict[frozenset[str], tuple[float, float]] = {}
        #: Every send is handed, in order, to each ``subscriber(msg,
        #: outcome)``: ``outcome`` is ``"delivered"`` (scheduled for
        #: delivery) or the drop reason.  The progress monitor subscribes.
        self.subscribers: list[Callable[[Message, str], None]] = []
        #: Span tracer (``repro.obs.SpanTracer``) set by
        #: ``RainbowInstance.enable_tracing``; None keeps sends hook-free.
        self.tracer = None
        #: address -> site name (its last path part), so traced messages
        #: share one site string per sender.
        self._site_names: dict[str, str] = {}

    # -- registration -------------------------------------------------------
    def endpoint(self, host: str, name: str) -> Endpoint:
        """Create and register an endpoint; addresses must be unique."""
        endpoint = Endpoint(self, host, name)
        if endpoint.address in self._endpoints:
            raise NetworkError(f"duplicate endpoint address {endpoint.address}")
        self._endpoints[endpoint.address] = endpoint
        return endpoint

    def lookup(self, address: str) -> Endpoint:
        """Return the endpoint registered at ``address``."""
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetworkError(f"unknown endpoint {address!r}") from None

    def addresses(self) -> list[str]:
        """All registered addresses (sorted, for deterministic iteration)."""
        return sorted(self._endpoints)

    def hosts(self) -> list[str]:
        """All hosts with at least one endpoint (sorted)."""
        return sorted({endpoint.host for endpoint in self._endpoints.values()})

    # -- fault surface --------------------------------------------------------
    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Partition *hosts* into groups; cross-group messages are dropped.

        Hosts not mentioned in any group form an implicit final group.
        """
        self._partition_of = {}
        for index, group in enumerate(groups):
            for host in group:
                if host in self._partition_of:
                    raise NetworkError(f"host {host!r} appears in two partition groups")
                self._partition_of[host] = index
        self._implicit_group = max(self._partition_of.values(), default=-1) + 1

    def heal_partition(self) -> None:
        """Remove any active partition."""
        self._partition_of = {}

    def cut_link(self, host_a: str, host_b: str) -> None:
        """Drop all messages between two hosts (both directions)."""
        self._cut_links.add(frozenset((host_a, host_b)))

    def restore_link(self, host_a: str, host_b: str) -> None:
        """Undo :meth:`cut_link` for the pair."""
        self._cut_links.discard(frozenset((host_a, host_b)))

    def restore_all_links(self) -> None:
        """Undo every :meth:`cut_link` (the chaos engine's heal step)."""
        self._cut_links.clear()

    def set_link_flakiness(
        self, host_a: str, host_b: str, loss: float = 0.0, duplicate: float = 0.0
    ) -> None:
        """Make the ``host_a``–``host_b`` link unreliable (both directions).

        ``loss`` replaces the network-wide ``loss_rate`` for messages
        crossing the link; ``duplicate`` is the probability that a message
        surviving loss is delivered *twice* (the second copy draws its own
        latency, so duplicates can arrive out of order).  Same-host traffic
        never crosses a link and is unaffected.
        """
        if not 0.0 <= loss < 1.0:
            raise NetworkError(f"link loss must be in [0, 1), got {loss}")
        if not 0.0 <= duplicate < 1.0:
            raise NetworkError(f"link duplicate must be in [0, 1), got {duplicate}")
        if host_a == host_b:
            raise NetworkError("a flaky link needs two distinct hosts")
        self._flaky_links[frozenset((host_a, host_b))] = (loss, duplicate)

    def clear_link_flakiness(self, host_a: str, host_b: str) -> None:
        """Undo :meth:`set_link_flakiness` for the pair."""
        self._flaky_links.pop(frozenset((host_a, host_b)), None)

    def clear_flaky_links(self) -> None:
        """Undo every :meth:`set_link_flakiness`."""
        self._flaky_links.clear()

    def _hosts_connected(self, src_host: str, dst_host: str) -> bool:
        if frozenset((src_host, dst_host)) in self._cut_links and src_host != dst_host:
            return False
        if self._partition_of:
            group_of = self._partition_of.get
            default = self._implicit_group
            return group_of(src_host, default) == group_of(dst_host, default)
        return True

    # -- transmission -----------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Submit a message for (possibly unsuccessful) delivery."""
        sim = self.sim
        stats = self.stats
        endpoints = self._endpoints
        msg.sent_at = sim._now
        stats.sent += 1
        stats.by_type[msg.mtype] += 1
        stats.bytes_sent += msg.size

        dst = endpoints.get(msg.dst)
        src = endpoints.get(msg.src)
        if dst is None:
            self._account_drop(msg, reason="unknown destination")
            return
        src_host = src.host if src is not None else msg.src.split("/", 1)[0]
        if src is not None and not src.up:
            self._account_drop(msg, reason="source down")
            return
        if (self._cut_links or self._partition_of) and not self._hosts_connected(
            src_host, dst.host
        ):
            self._account_drop(msg, reason="partitioned")
            return
        loss_rate = self.loss_rate
        duplication_rate = self.duplication_rate
        if self._flaky_links and src_host != dst.host:
            flaky = self._flaky_links.get(frozenset((src_host, dst.host)))
            if flaky is not None:
                loss_rate, duplication_rate = flaky
        if loss_rate > 0 and self.rng.random() < loss_rate:
            stats.lost_random += 1
            stats.lost_by_type[msg.mtype] += 1
            self._account_drop(msg, reason="random loss")
            return

        delay = self.latency.delay(src_host, dst.host, msg.size, self.rng)
        if self.host_service_time > 0:
            arrival = sim._now + delay
            start = max(arrival, self._busy_until.get(dst.host, 0.0))
            done = start + self.host_service_time * max(msg.size, 1)
            self._busy_until[dst.host] = done
            queue_wait = done - arrival
            stats.queueing_delay_total += queue_wait
            delay += queue_wait
        sim.defer(delay, dst._deliver, msg)
        if self.tracer is not None and msg.txn_id is not None:
            self._trace_flight(msg, delay)
        if duplication_rate > 0 and self.rng.random() < duplication_rate:
            # The duplicate draws its own latency (it may overtake the
            # original) and bypasses receiver queueing — it is a transport
            # artifact, not a second send, so ``sent`` stays unchanged
            # while ``delivered`` may exceed it.
            stats.duplicated += 1
            stats.duplicated_by_type[msg.mtype] += 1
            extra_delay = self.latency.delay(src_host, dst.host, msg.size, self.rng)
            sim.defer(extra_delay, dst._deliver, msg)
        for subscriber in self.subscribers:
            subscriber(msg, "delivered")

    def _account_drop(self, msg: Message, reason: str) -> None:
        self.stats.dropped += 1
        self.stats.dropped_by_type[msg.mtype] += 1
        if self.tracer is not None and msg.txn_id is not None:
            now = self.sim.now
            self.tracer.record(
                msg.txn_id,
                self._site_name(msg.src),
                "net.msg",
                start=now,
                end=now,
                parent=msg.span,
                mtype=msg.mtype,
                src=msg.src,
                dst=msg.dst,
                outcome=reason,
            )
        for subscriber in self.subscribers:
            subscriber(msg, reason)

    def _trace_flight(self, msg: Message, delay: float) -> None:
        """Record one delivered message as a complete ``net.msg`` span."""
        self.tracer.record(
            msg.txn_id,
            self._site_name(msg.src),
            "net.msg",
            start=msg.sent_at,
            end=msg.sent_at + delay,
            parent=msg.span,
            mtype=msg.mtype,
            src=msg.src,
            dst=msg.dst,
        )

    def _site_name(self, address: str) -> str:
        """Site part of an address (``host/site`` -> ``site``), memoized."""
        name = self._site_names.get(address)
        if name is None:
            name = self._site_names[address] = address.rsplit("/", 1)[-1]
        return name
