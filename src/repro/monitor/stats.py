"""The progress monitor (PM): Rainbow's measurement facility.

"The performance of transaction processing and several dynamics of the
distributed database system can be monitored and measured.  Rainbow offers
an extensible set of output statistics including: number of committed
transactions, number of aborted transactions (and rate) due to RCP, ACP,
and CCP, transaction commit rate, transaction abort rates for each type of
aborts, total number of messages generated per time unit, transaction
throughput and response time measures, other parameters such as number of
orphan transactions, round trip messages and other load balance/imbalance
indicators."

:class:`ProgressMonitor` collects transaction events from the coordinators
and computes exactly that set in :meth:`output_statistics`.  A sampler
process additionally records a time series of the cumulative counters so
sessions can plot progress over simulated time (the GUI's Display menu).
"""

from __future__ import annotations

import statistics as stats_lib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.txn.history import HistoryRecorder
from repro.txn.transaction import Transaction, TxnStatus

__all__ = ["TxnRecord", "OutputStatistics", "ProgressMonitor"]

ABORT_CAUSES = ("RCP", "CCP", "ACP", "SYSTEM")


class TxnRecord(NamedTuple):
    """Summary of one finished transaction (the Tx Processing table rows).

    The monitor stores each summary as a plain tuple of atomics, which the
    garbage collector stops tracking; :attr:`ProgressMonitor.records` builds
    these named views on demand.
    """

    txn_id: int
    home_site: str
    status: str
    abort_cause: Optional[str]
    abort_detail: str
    submitted_at: float
    response_time: Optional[float]
    n_ops: int
    n_reads: int
    n_writes: int
    attempt: int
    messages: int = 0  # network messages attributable to this transaction


@dataclass
class OutputStatistics:
    """The paper's §3 statistics for one session (or one sample window)."""

    elapsed: float
    submitted: int
    finished: int
    committed: int
    aborted: int
    aborts_by_cause: dict[str, int]
    commit_rate: float  # committed / finished
    abort_rate: float
    abort_rates_by_cause: dict[str, float]
    throughput: float  # committed per time unit
    messages_total: int
    messages_per_time_unit: float
    messages_by_type: dict[str, int]
    mean_messages_per_txn: float
    round_trips: int
    rpc_timeouts: int
    mean_response_time: Optional[float]
    median_response_time: Optional[float]
    p95_response_time: Optional[float]
    orphans_current: int
    orphan_events: int
    orphans_resolved: int
    home_txns_by_site: dict[str, int]
    messages_handled_by_site: dict[str, int]
    load_imbalance: float  # coefficient of variation of per-site home txns
    # Fault-induced message pathologies (alongside dropped_by_type in the
    # network snapshot): messages deterministically dropped by partitions,
    # cut links, and crashed hosts; lost to probabilistic loss; and
    # duplicated by flaky links.
    messages_dropped: int = 0
    messages_lost_random: int = 0
    messages_duplicated: int = 0
    # Message-economy optimizations (docs/PERF.md): round trips the
    # coordinators avoided via batching and piggybacked prepares, and the
    # number of copy accesses that traveled inside BATCH_ACCESS messages.
    # Both stay 0 (and off the panel) unless the optimizations are enabled.
    round_trips_saved: int = 0
    batched_ops: int = 0
    # The paper's "number of orphan transactions" from the coordinator's
    # point of view: transactions whose home site died before a decision
    # was logged.  (``orphan_events``/``orphans_resolved`` above count the
    # participant side of the same phenomenon.)
    orphaned_txns: int = 0
    # Per-phase latency breakdown (mean/max per finished transaction, by
    # repro.obs phase taxonomy); populated only when span tracing is on,
    # so default sessions keep the exact historical panel bytes.
    phase_breakdown: dict[str, dict[str, float]] = field(default_factory=dict)
    # Simulator self-measurement: how fast the kernel ran this session in
    # real time.  These depend on the host machine — unlike every field
    # above, they are NOT deterministic and are excluded from experiment
    # tables, which must stay byte-identical run to run.
    processed_events: int = 0
    wall_clock_seconds: float = 0.0
    events_per_second: float = 0.0

    def as_rows(self) -> list[tuple[str, str]]:
        """(label, value) rows, in the order the Figure 5 panel lists them."""

        def fmt(value) -> str:
            if value is None:
                return "n/a"
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        rows = [
            ("Elapsed (sim time)", fmt(self.elapsed)),
            ("Transactions submitted", fmt(self.submitted)),
            ("Transactions finished", fmt(self.finished)),
            ("Committed transactions", fmt(self.committed)),
            ("Aborted transactions", fmt(self.aborted)),
        ]
        for cause in ABORT_CAUSES:
            rows.append(
                (
                    f"  aborts due to {cause}",
                    f"{self.aborts_by_cause.get(cause, 0)}"
                    f" (rate {self.abort_rates_by_cause.get(cause, 0.0):.3f})",
                )
            )
        rows += [
            ("Commit rate", fmt(self.commit_rate)),
            ("Abort rate", fmt(self.abort_rate)),
            ("Throughput (commits/time)", fmt(self.throughput)),
            ("Messages total", fmt(self.messages_total)),
            ("Messages per time unit", fmt(self.messages_per_time_unit)),
            ("Mean messages per transaction", fmt(self.mean_messages_per_txn)),
            ("Round-trip messages", fmt(self.round_trips)),
            ("RPC timeouts", fmt(self.rpc_timeouts)),
        ]
        # Only rendered when an optimization actually fired, so sessions
        # with the flags off keep the exact historical panel bytes.
        if self.round_trips_saved:
            rows.append(("Round trips saved (optimizations)", fmt(self.round_trips_saved)))
        if self.batched_ops:
            rows.append(("Batched copy accesses", fmt(self.batched_ops)))
        rows += [
            ("Messages dropped (faults)", fmt(self.messages_dropped)),
            ("Messages lost (random)", fmt(self.messages_lost_random)),
            ("Messages duplicated", fmt(self.messages_duplicated)),
            ("Mean response time", fmt(self.mean_response_time)),
            ("Median response time", fmt(self.median_response_time)),
            ("P95 response time", fmt(self.p95_response_time)),
            ("Orphan transactions (now)", fmt(self.orphans_current)),
            ("Orphan events (cumulative)", fmt(self.orphan_events)),
            ("Orphans resolved", fmt(self.orphans_resolved)),
        ]
        # Conditional rows (same byte-identity rule as the optimization
        # counters): orphaned coordinators only appear in crash sessions,
        # the phase breakdown only when span tracing was enabled.
        if self.orphaned_txns:
            rows.append(("Orphaned transactions (dead coordinator)", fmt(self.orphaned_txns)))
        if self.phase_breakdown:
            rows.append(("Per-phase latency (mean/max per txn)", ""))
            for phase, entry in self.phase_breakdown.items():
                rows.append(
                    (
                        f"  {phase}",
                        f"{entry['mean_per_txn']:.3f} / {entry['max_per_txn']:.3f}",
                    )
                )
        rows += [
            ("Load imbalance (CV of home txns)", fmt(self.load_imbalance)),
            ("Kernel events processed", fmt(self.processed_events)),
            ("Wall clock (s)", fmt(self.wall_clock_seconds)),
            ("Kernel events per second", f"{self.events_per_second:,.0f}"),
        ]
        return rows


class ProgressMonitor:
    """Collects transaction outcomes and computes the output statistics."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        sites=None,
        sample_interval: Optional[float] = None,
    ):
        self.sim = sim
        self.network = network
        self.sites = list(sites or [])
        self.history = HistoryRecorder()
        self._records: list[tuple] = []  # TxnRecord fields, as plain tuples
        self.submitted = 0
        self.started = 0
        self.committed = 0
        self.aborted = 0
        self.aborts_by_cause: Counter[str] = Counter()
        self.response_times: list[float] = []
        # Message-economy counters fed by the coordinators.
        self.round_trips_saved = 0
        self.batched_ops = 0
        # Coordinator-side orphans (txn.orphaned, set on home-site crash).
        self.orphaned_txns = 0
        # Span tracer (repro.obs.SpanTracer) when the instance has tracing
        # enabled; feeds the per-phase latency breakdown.
        self.span_tracer = None
        self.session_started_at = sim.now
        # Wall-clock/event baselines so the session self-reports simulator
        # performance (events/sec) alongside the paper's statistics.
        self._wall_started = time.perf_counter()
        self._events_at_start = sim.processed_events
        # Per-transaction message attribution (messages tagged txn_id),
        # held only while a transaction runs: from txn_submitted to
        # txn_finished.  Later messages (the TXN_RESULT reply, a late
        # DECISION_REQ) are not the transaction's work and leave no entry.
        self._txn_messages: dict[int, int] = {}
        network.subscribers.append(self._observe_message)
        self.series: dict[str, list[float]] = {
            "t": [],
            "committed": [],
            "aborted": [],
            "messages": [],
            "orphans": [],
        }
        if sample_interval:
            sim.process(self._sample_loop(sample_interval), name="pm:sampler")

    def _observe_message(self, msg, outcome) -> None:
        if msg.txn_id in self._txn_messages:
            self._txn_messages[msg.txn_id] += 1

    # -- event intake ---------------------------------------------------------
    def txn_submitted(self, txn: Transaction) -> None:
        """A transaction entered the system (workload generator event)."""
        self.submitted += 1
        txn.submitted_at = self.sim.now
        self._txn_messages.setdefault(txn.txn_id, 0)

    def txn_started(self, txn: Transaction) -> None:
        """The home-site thread picked the transaction up."""
        self.started += 1

    def note_round_trips_saved(self, n: int = 1) -> None:
        """A coordinator avoided ``n`` request/reply round trips."""
        self.round_trips_saved += n

    def note_batched_ops(self, n_ops: int, saved: int) -> None:
        """``n_ops`` copy accesses traveled in one BATCH_ACCESS message."""
        self.batched_ops += n_ops
        self.round_trips_saved += saved

    def txn_finished(self, txn: Transaction, ctx=None) -> None:
        """The coordinator thread finished (committed or aborted)."""
        n_reads = sum(1 for op in txn.ops if op.kind == "R")
        self._records.append(
            (
                txn.txn_id,
                txn.home_site,
                txn.status,
                txn.abort_cause,
                txn.abort_detail,
                txn.submitted_at,
                txn.response_time,
                len(txn.ops),
                n_reads,
                len(txn.ops) - n_reads,
                txn.attempt,
                self._txn_messages.pop(txn.txn_id, 0),
            )
        )
        if txn.committed:
            self.committed += 1
            if txn.response_time is not None:
                self.response_times.append(txn.response_time)
            self.history.record_commit(
                txn.txn_id,
                txn.read_versions,
                txn.write_versions,
                committed_at=txn.decided_at or self.sim.now,
            )
        else:
            self.aborted += 1
            self.aborts_by_cause[txn.abort_cause or "SYSTEM"] += 1
            if getattr(txn, "orphaned", False):
                self.orphaned_txns += 1

    @property
    def records(self) -> list[TxnRecord]:
        """Finished transactions in finishing order (a fresh list of views)."""
        return list(map(TxnRecord._make, self._records))

    # -- sampling ---------------------------------------------------------------
    def _sample_loop(self, interval: float):
        while True:
            yield self.sim.timeout(interval)
            self.sample()

    def sample(self) -> None:
        """Append one point of the cumulative-counter time series."""
        self.series["t"].append(self.sim.now)
        self.series["committed"].append(self.committed)
        self.series["aborted"].append(self.aborted)
        self.series["messages"].append(self.network.stats.sent)
        self.series["orphans"].append(self._orphans_current())

    # -- statistics ---------------------------------------------------------------
    def _orphans_current(self) -> int:
        return sum(site.in_doubt_count() for site in self.sites)

    def output_statistics(self) -> OutputStatistics:
        """Compute the full §3 statistics block for the session so far."""
        elapsed = max(self.sim.now - self.session_started_at, 1e-12)
        finished = self.committed + self.aborted
        finished_nz = max(finished, 1)
        net = self.network.stats

        response = sorted(self.response_times)
        mean_rt = stats_lib.fmean(response) if response else None
        median_rt = stats_lib.median(response) if response else None
        p95_rt = response[min(len(response) - 1, int(0.95 * len(response)))] if response else None

        wall_clock = max(time.perf_counter() - self._wall_started, 1e-9)
        processed = self.sim.processed_events - self._events_at_start

        home_by_site = {site.name: site.stats.home_txns_started for site in self.sites}
        handled_by_site = {site.name: site.stats.messages_handled for site in self.sites}
        orphan_events = sum(site.stats.orphan_events for site in self.sites)
        orphans_resolved = sum(site.stats.orphans_resolved for site in self.sites)

        phase_breakdown: dict[str, dict[str, float]] = {}
        if self.span_tracer is not None:
            from repro.obs.analyze import aggregate_phase_stats

            phase_breakdown = aggregate_phase_stats(
                self.span_tracer.spans,
                txn_ids=[record.txn_id for record in self.records],
            )

        return OutputStatistics(
            elapsed=elapsed,
            submitted=self.submitted,
            finished=finished,
            committed=self.committed,
            aborted=self.aborted,
            aborts_by_cause=dict(self.aborts_by_cause),
            commit_rate=self.committed / finished_nz,
            abort_rate=self.aborted / finished_nz,
            abort_rates_by_cause={
                cause: self.aborts_by_cause.get(cause, 0) / finished_nz
                for cause in ABORT_CAUSES
            },
            throughput=self.committed / elapsed,
            messages_total=net.sent,
            messages_per_time_unit=net.sent / elapsed,
            messages_by_type=dict(net.by_type),
            mean_messages_per_txn=(
                sum(record.messages for record in self.records) / finished_nz
            ),
            round_trips=net.round_trips,
            rpc_timeouts=net.rpc_timeouts,
            messages_dropped=net.dropped,
            messages_lost_random=net.lost_random,
            messages_duplicated=net.duplicated,
            round_trips_saved=self.round_trips_saved,
            batched_ops=self.batched_ops,
            mean_response_time=mean_rt,
            median_response_time=median_rt,
            p95_response_time=p95_rt,
            orphans_current=self._orphans_current(),
            orphan_events=orphan_events,
            orphans_resolved=orphans_resolved,
            orphaned_txns=self.orphaned_txns,
            phase_breakdown=phase_breakdown,
            home_txns_by_site=home_by_site,
            messages_handled_by_site=handled_by_site,
            load_imbalance=self._imbalance(list(home_by_site.values())),
            processed_events=processed,
            wall_clock_seconds=wall_clock,
            events_per_second=processed / wall_clock,
        )

    @staticmethod
    def _imbalance(values: list[int]) -> float:
        """Coefficient of variation: 0 = perfectly balanced."""
        if len(values) < 2:
            return 0.0
        mean = stats_lib.fmean(values)
        if mean == 0:
            return 0.0
        return stats_lib.pstdev(values) / mean

    def window_summary(self, t0: float, t1: float) -> dict:
        """Statistics restricted to decisions inside ``[t0, t1)``.

        Lets a session be sliced into before/during/after-failure windows
        ("measure the performance resulting from executing a Rainbow
        instance" — per phase).  A transaction belongs to the window of
        its decision instant.
        """
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        committed = aborted = 0
        response_times = []
        for record in self.records:
            if record.response_time is None:
                continue
            decided_at = record.submitted_at + record.response_time
            if not t0 <= decided_at < t1:
                continue
            if record.status == TxnStatus.COMMITTED:
                committed += 1
                response_times.append(record.response_time)
            else:
                aborted += 1
        finished = committed + aborted
        return {
            "t0": t0,
            "t1": t1,
            "committed": committed,
            "aborted": aborted,
            "commit_rate": committed / finished if finished else 0.0,
            "throughput": committed / (t1 - t0),
            "mean_response_time": (
                stats_lib.fmean(response_times) if response_times else None
            ),
        }

    # -- convenience ---------------------------------------------------------------
    def check_serializable(self):
        """Run the 1SR check over the committed history."""
        return self.history.check_serializable()
