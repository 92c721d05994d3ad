"""The workload generator (WLG): one client, two modes.

Rainbow offers "either the manual or the simulated workload generation
panel to compose and submit transactions".  Both modes are one client
(:class:`_Client`): it owns an endpoint (the WLGlet's position in the
middle tier) and sends each transaction to its home site as one
``TXN_SUBMIT`` request (:func:`submit_request`, which the WLGlet's own
``submit_txn`` also calls); the site dedicates a coordinator process to it
and answers with ``TXN_RESULT``.  Each submission runs as its own process,
restarting an aborted transaction if the spec says so, and ends with one
outcome row, a plain tuple read through :class:`SubmissionOutcome`.  A
session waits on a count of finished submissions, so a finished
submission's process is freed at once; the first submission that raises
ends the session with that exception.

*Simulated mode* (:class:`WorkloadGenerator`) synthesises transactions
from a :class:`WorkloadSpec` (arrival process, size, read/write mix, access
skew, home-site policy) and submits them as an open stream or from a closed
set of terminals.  *Manual mode* (:class:`ManualWorkload`) submits
hand-written transactions at chosen times — the classroom path for
stepping through a scenario.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from repro.errors import NetworkError, RpcTimeout, WorkloadError
from repro.nameserver.catalog import Catalog
from repro.net.message import MessageType
from repro.net.network import Endpoint, Network
from repro.sim.kernel import Event, Process, Simulator
from repro.sim.randoms import cumulative_weights, weighted_choice, zipf_weights
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec

__all__ = ["WorkloadGenerator", "ManualWorkload", "SubmissionOutcome", "submit_request"]


class SubmissionOutcome(NamedTuple):
    """What the WLG learned about one submitted transaction.

    The client keeps each outcome as a plain tuple of atomics, which the
    garbage collector stops tracking; this named view is built on demand.
    """

    txn_id: int
    template_id: int
    status: str  # "COMMITTED" | "ABORTED" | "LOST"
    cause: Optional[str] = None
    attempts: int = 1


def submit_request(
    endpoint: Endpoint, directory: dict[str, str], monitor, txn: Transaction, timeout: float
) -> Event:
    """Send ``txn`` to its home site as one ``TXN_SUBMIT`` request.

    Stamps the submission on the monitor (which gives a transaction
    without an id the session's next) and returns the request's reply
    event.  Raises :class:`WorkloadError` for a home site not in
    ``directory``.
    """
    address = directory.get(txn.home_site)
    if address is None:
        raise WorkloadError(f"unknown home site {txn.home_site!r}")
    monitor.txn_submitted(txn)
    return endpoint.request(
        address, MessageType.TXN_SUBMIT, {"txn_spec": txn}, timeout=timeout, txn_id=txn.txn_id
    )


class _Client:
    """The WLG client both modes share: submit, restart, count, join.

    A client runs one workload: its ``run`` starts the submissions and
    ends when all of them have.
    """

    def __init__(self, sim, network, directory, monitor, spec, host, name):
        self.sim = sim
        self.endpoint = network.endpoint(host, name)
        self.directory = directory
        self.monitor = monitor
        self.spec = spec
        self.outcome_rows: list[tuple] = []  # SubmissionOutcome fields, as plain tuples
        # A run sets the number of submissions it will start; the join
        # fires when that many have finished.
        self._unfinished = 0
        self._joined = sim.event()

    def submit_tracked(self, txn: Transaction):
        """Submit ``txn``; on abort, restart per the spec (generator)."""
        attempts = 0
        while True:
            attempts += 1
            status, cause = yield from self._submit_once(txn)
            restartable = (
                status == "ABORTED"
                and self.spec.restart_on_abort
                and attempts <= self.spec.max_restarts
            )
            if not restartable:
                outcome = (txn.txn_id, txn.template_id, status, cause, attempts)
                self.outcome_rows.append(outcome)
                return SubmissionOutcome._make(outcome)
            yield self.sim.timeout(self.spec.restart_delay)
            txn = txn.restarted().stamp(self.monitor.txn_ids)

    @property
    def outcomes(self) -> list[SubmissionOutcome]:
        """Finished submissions in finishing order (a fresh list of views)."""
        return list(map(SubmissionOutcome._make, self.outcome_rows))

    def _submit_once(self, txn: Transaction):
        try:
            reply = yield submit_request(
                self.endpoint, self.directory, self.monitor, txn, self.spec.result_timeout
            )
        except (RpcTimeout, NetworkError):
            # The home site crashed (or is unreachable): the WLG never
            # learns the outcome.  The monitor may still have recorded it
            # through the coordinator; the WLG marks it LOST and moves on.
            return "LOST", "no TXN_RESULT (home site unreachable)"
        payload = reply.payload or {}
        outcome = payload.get("outcome") or {}
        return outcome.get("status", "LOST"), outcome.get("cause")

    # -- the join --------------------------------------------------------------
    def _start(self, submission, name: str) -> None:
        """Run ``submission`` (a generator) as one process the join counts."""
        self.sim.process(submission, name=name).add_callback(self._finished)

    def _finished(self, submission: Process) -> None:
        if self._joined.triggered:
            return
        if not submission.ok:
            self._joined.fail(submission.value)
            return
        self._unfinished -= 1
        if not self._unfinished:
            self._joined.succeed()

    def _join(self):
        """Wait for the ``_unfinished`` submissions a run set out to start.

        Re-raises the first one's exception; waits on nothing (and pushes
        no event) when the run starts none.
        """
        if self._unfinished:
            yield self._joined


def _home_weights(spec: WorkloadSpec, directory) -> tuple[list[str], list[float]]:
    """Site names and cumulative weights of the weighted home policy."""
    if spec.home_policy != "weighted":
        return [], []
    weights = spec.home_weights
    names = sorted(weights)
    for name in names:
        if name not in directory:
            raise WorkloadError(f"home_weights names unknown site {name!r}")
        if weights[name] < 0:
            raise WorkloadError(f"home_weights[{name!r}] is negative: {weights[name]}")
    total = sum(weights[name] for name in names)
    if total <= 0:
        raise WorkloadError(f"home_weights sum to zero: {weights}")
    return names, cumulative_weights([weights[name] / total for name in names])


class WorkloadGenerator(_Client):
    """Simulated workload generation over a catalog and a site directory."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: dict[str, str],
        catalog: Catalog,
        spec: WorkloadSpec,
        rng: random.Random,
        monitor,
        host: str = "wlg-host",
        name: str = "wlg",
    ):
        spec.validate()
        if not directory:
            raise WorkloadError("empty site directory")
        self.rng = rng
        self.catalog = catalog
        self.items = catalog.item_names()
        if not self.items:
            raise WorkloadError("catalog has no items to generate accesses for")
        self.sites = sorted(directory)
        self._home_names, self._home_weights = _home_weights(spec, directory)
        super().__init__(sim, network, directory, monitor, spec, host, name)
        self._home_cursor = 0
        self._access_weights = self._build_access_weights()
        self._value_counter = 0

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
        return self._home_names[weighted_choice(self.rng, self._home_weights)]

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
        return Transaction(ops=ops, home_site=self._pick_home()).stamp(self.monitor.txn_ids)

    # -- execution -----------------------------------------------------------
    def run(self) -> Process:
        """Start the workload; returns a process that ends when all done."""
        if self.spec.arrival == "closed":
            return self.sim.process(self._closed_loop(), name="wlg:closed")
        return self.sim.process(self._open_loop(), name="wlg:open")

    def _open_loop(self):
        self._unfinished = self.spec.n_transactions
        for _index in range(self.spec.n_transactions):
            if self.spec.arrival == "poisson":
                gap = self.rng.expovariate(self.spec.arrival_rate)
            else:
                gap = 1.0 / self.spec.arrival_rate
            yield self.sim.timeout(gap)
            txn = self.make_transaction()
            self._start(self.submit_tracked(txn), f"wlg:t{txn.txn_id}")
        yield from self._join()

    def _closed_loop(self):
        total = self.spec.n_transactions
        mpl = self._unfinished = min(self.spec.mpl, total)
        for index in range(mpl):
            quota = total // mpl + (1 if index < total % mpl else 0)
            self._start(self._terminal(quota), f"wlg:term{index}")
        yield from self._join()

    def _terminal(self, quota: int):
        for _index in range(quota):
            txn = self.make_transaction()
            yield from self.submit_tracked(txn)
            if self.spec.think_time > 0:
                yield self.sim.timeout(self.spec.think_time)


class ManualWorkload(_Client):
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
        monitor,
        spec: Optional[WorkloadSpec] = None,
        host: str = "wlg-host",
        name: str = "wlg-manual",
    ):
        super().__init__(sim, network, directory, monitor, spec or WorkloadSpec(), host, name)
        self._queue: list[tuple[float, Transaction]] = []

    def add(self, txn: Transaction, at: float = 0.0) -> "ManualWorkload":
        """Queue ``txn`` for submission at simulated time ``at`` (chainable)."""
        self._queue.append((at, txn))
        return self

    def run(self) -> Process:
        """Dispatch the queued transactions; process ends when all finish."""
        return self.sim.process(self._dispatch(), name="wlg:manual")

    def _dispatch(self):
        queue = sorted(self._queue, key=lambda pair: pair[0])
        self._unfinished = len(queue)
        for at, txn in queue:
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            txn.stamp(self.monitor.txn_ids)
            self._start(self.submit_tracked(txn), f"wlg:m{txn.txn_id}")
        yield from self._join()
