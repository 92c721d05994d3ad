"""The workload generator (WLG).

Rainbow offers "either the manual or the simulated workload generation
panel to compose and submit transactions".  Both paths dispatch through the
network: the generator owns an endpoint (the WLGlet's position in the
middle tier) and submits each transaction to its home site as a
``TXN_SUBMIT`` message; the site dedicates a coordinator process to it and
answers with ``TXN_RESULT``.

*Simulated mode* synthesises transactions from a :class:`WorkloadSpec`
(arrival process, size, read/write mix, access skew, home-site policy) and
optionally restarts aborted ones.  *Manual mode*
(:class:`ManualWorkload`) submits hand-written transactions at chosen
times — the classroom path for stepping through a scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import NetworkError, RpcTimeout, WorkloadError
from repro.nameserver.catalog import Catalog
from repro.net.message import MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.randoms import cumulative_weights, weighted_choice, zipf_weights
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec

__all__ = ["WorkloadGenerator", "ManualWorkload", "SubmissionOutcome"]


@dataclass
class SubmissionOutcome:
    """What the WLG learned about one submitted transaction."""

    txn_id: int
    template_id: int
    status: str  # "COMMITTED" | "ABORTED" | "LOST"
    cause: Optional[str] = None
    attempts: int = 1


class _Submitter:
    """Shared submit-and-maybe-restart machinery for both WLG modes."""

    def __init__(self, sim, endpoint, directory, monitor, spec):
        self.sim = sim
        self.endpoint = endpoint
        self.directory = directory
        self.monitor = monitor
        self.spec = spec
        self.outcomes: list[SubmissionOutcome] = []

    def submit_tracked(self, txn: Transaction):
        """Submit ``txn``; on abort, restart per the spec (generator)."""
        attempts = 0
        current = txn
        while True:
            attempts += 1
            status, cause = yield from self._submit_once(current)
            restartable = (
                status == "ABORTED"
                and self.spec.restart_on_abort
                and attempts <= self.spec.max_restarts
            )
            if not restartable:
                outcome = SubmissionOutcome(
                    txn_id=current.txn_id,
                    template_id=current.template_id,
                    status=status,
                    cause=cause,
                    attempts=attempts,
                )
                self.outcomes.append(outcome)
                return outcome
            yield self.sim.timeout(self.spec.restart_delay)
            current = current.restarted()

    def _submit_once(self, txn: Transaction):
        if txn.home_site not in self.directory:
            raise WorkloadError(f"unknown home site {txn.home_site!r}")
        if self.monitor is not None:
            self.monitor.txn_submitted(txn)
        else:
            txn.submitted_at = self.sim.now
        try:
            reply = yield self.endpoint.request(
                self.directory[txn.home_site],
                MessageType.TXN_SUBMIT,
                {"txn_spec": txn},
                timeout=self.spec.result_timeout,
                txn_id=txn.txn_id,
            )
        except (RpcTimeout, NetworkError):
            # The home site crashed (or is unreachable): the WLG never
            # learns the outcome.  The monitor may still have recorded it
            # through the coordinator; the WLG marks it LOST and moves on.
            return "LOST", "no TXN_RESULT (home site unreachable)"
        payload = reply.payload or {}
        outcome = payload.get("outcome") or {}
        return outcome.get("status", "LOST"), outcome.get("cause")


class WorkloadGenerator:
    """Simulated workload generation over a catalog and a site directory."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: dict[str, str],
        catalog: Catalog,
        spec: WorkloadSpec,
        rng: random.Random,
        monitor=None,
        host: str = "wlg-host",
        name: str = "wlg",
    ):
        spec.validate()
        if not directory:
            raise WorkloadError("empty site directory")
        self.sim = sim
        self.spec = spec
        self.rng = rng
        self.catalog = catalog
        self.items = catalog.item_names()
        if not self.items:
            raise WorkloadError("catalog has no items to generate accesses for")
        self.sites = sorted(directory)
        self.endpoint = network.endpoint(host, name)
        self._submitter = _Submitter(sim, self.endpoint, directory, monitor, spec)
        self._home_cursor = 0
        self._access_weights = self._build_access_weights()
        self._value_counter = 0

    @property
    def outcomes(self) -> list[SubmissionOutcome]:
        """Per-transaction outcomes observed so far."""
        return self._submitter.outcomes

    # -- synthesis -----------------------------------------------------------
    def _build_access_weights(self) -> Optional[list[float]]:
        """Cumulative access weights over ``items``; None for uniform access."""
        if self.spec.access == "uniform":
            return None
        if self.spec.access == "zipf":
            return cumulative_weights(zipf_weights(len(self.items), self.spec.zipf_theta))
        # hotspot: the first ceil(f*n) items share hotspot_probability.
        n = len(self.items)
        hot = max(1, round(self.spec.hotspot_fraction * n))
        if hot >= n:
            return None
        hot_weight = self.spec.hotspot_probability / hot
        cold_weight = (1.0 - self.spec.hotspot_probability) / (n - hot)
        return cumulative_weights([hot_weight] * hot + [cold_weight] * (n - hot))

    def _pick_item(self) -> str:
        if self._access_weights is None:
            return self.rng.choice(self.items)
        return self.items[weighted_choice(self.rng, self._access_weights)]

    def _pick_home(self) -> str:
        policy = self.spec.home_policy
        if policy == "round_robin":
            site = self.sites[self._home_cursor % len(self.sites)]
            self._home_cursor += 1
            return site
        if policy == "random":
            return self.rng.choice(self.sites)
        weights = self.spec.home_weights or {}
        names = sorted(weights)
        total = sum(weights[name] for name in names)
        normalised = [weights[name] / total for name in names]
        return names[weighted_choice(self.rng, cumulative_weights(normalised))]

    def _pick_mix_class(self):
        """Draw a mix class (or None for a homogeneous workload)."""
        if not self.spec.mix:
            return None
        total = sum(mix_class.weight for mix_class in self.spec.mix)
        point = self.rng.random() * total
        acc = 0.0
        for mix_class in self.spec.mix:
            acc += mix_class.weight
            if point <= acc:
                return mix_class
        return self.spec.mix[-1]

    def make_transaction(self) -> Transaction:
        """Synthesise one transaction per the spec (or its drawn mix class)."""
        mix_class = self._pick_mix_class()
        if mix_class is None:
            min_ops, max_ops = self.spec.min_ops, self.spec.max_ops
            read_fraction = self.spec.read_fraction
            increment_fraction = self.spec.increment_fraction
        else:
            min_ops, max_ops = mix_class.min_ops, mix_class.max_ops
            read_fraction = mix_class.read_fraction
            increment_fraction = mix_class.increment_fraction
        n_ops = self.rng.randint(min_ops, max_ops)
        ops: list[Operation] = []
        used: set[str] = set()
        for _index in range(n_ops):
            item = self._pick_item()
            if self.spec.distinct_items:
                tries = 0
                while item in used and tries < 20:
                    item = self._pick_item()
                    tries += 1
                if item in used:
                    continue
                used.add(item)
            if self.rng.random() < read_fraction:
                ops.append(Operation.read(item))
            elif self.rng.random() < increment_fraction:
                ops.append(Operation.increment(item, 1))
            else:
                self._value_counter += 1
                ops.append(Operation.write(item, self._value_counter))
        if not ops:
            ops.append(Operation.read(self._pick_item()))
        return Transaction(ops=ops, home_site=self._pick_home())

    # -- execution -----------------------------------------------------------
    def run(self):
        """Start the workload; returns a process that ends when all done."""
        if self.spec.arrival == "closed":
            return self.sim.process(self._closed_loop(), name="wlg:closed")
        return self.sim.process(self._open_loop(), name="wlg:open")

    def _open_loop(self):
        trackers = []
        for _index in range(self.spec.n_transactions):
            if self.spec.arrival == "poisson":
                gap = self.rng.expovariate(self.spec.arrival_rate)
            else:
                gap = 1.0 / self.spec.arrival_rate
            yield self.sim.timeout(gap)
            txn = self.make_transaction()
            trackers.append(
                self.sim.process(
                    self._submitter.submit_tracked(txn), name=f"wlg:t{txn.txn_id}"
                )
            )
        if trackers:
            yield self.sim.all_of(trackers)
        return self.outcomes

    def _closed_loop(self):
        total = self.spec.n_transactions
        mpl = min(self.spec.mpl, max(total, 1))
        quotas = [total // mpl + (1 if index < total % mpl else 0) for index in range(mpl)]
        terminals = [
            self.sim.process(self._terminal(quota), name=f"wlg:term{index}")
            for index, quota in enumerate(quotas)
            if quota > 0
        ]
        if terminals:
            yield self.sim.all_of(terminals)
        return self.outcomes

    def _terminal(self, quota: int):
        for _index in range(quota):
            txn = self.make_transaction()
            yield from self._submitter.submit_tracked(txn)
            if self.spec.think_time > 0:
                yield self.sim.timeout(self.spec.think_time)


class ManualWorkload:
    """Manual workload generation: submit hand-composed transactions.

    This is the programmatic face of the paper's Manual Workload Generation
    panel (Figure A-2): the user composes explicit transactions and
    dispatches them, optionally at chosen simulated times.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: dict[str, str],
        monitor=None,
        spec: Optional[WorkloadSpec] = None,
        host: str = "wlg-host",
        name: str = "wlg-manual",
    ):
        self.sim = sim
        self.endpoint = network.endpoint(host, name)
        self._submitter = _Submitter(
            sim, self.endpoint, directory, monitor, spec or WorkloadSpec()
        )
        self._queue: list[tuple[float, Transaction]] = []

    @property
    def outcomes(self) -> list[SubmissionOutcome]:
        """Outcomes of the submitted transactions, in completion order."""
        return self._submitter.outcomes

    def add(self, txn: Transaction, at: float = 0.0) -> "ManualWorkload":
        """Queue ``txn`` for submission at simulated time ``at`` (chainable)."""
        self._queue.append((at, txn))
        return self

    def run(self):
        """Dispatch the queued transactions; process ends when all finish."""
        return self.sim.process(self._dispatch(), name="wlg:manual")

    def _dispatch(self):
        trackers = []
        for at, txn in sorted(self._queue, key=lambda pair: pair[0]):
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            trackers.append(
                self.sim.process(
                    self._submitter.submit_tracked(txn), name=f"wlg:m{txn.txn_id}"
                )
            )
        if trackers:
            yield self.sim.all_of(trackers)
        return self.outcomes
