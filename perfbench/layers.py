"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` replaces public entry points of each ``repro`` layer
with wrappers that record one span per call — or, for generator entry
points, one span per resume — and restores the originals afterwards.  A span
holds its layer, start, end, parent span and transaction id, kept in flat
arrays in memory and written out once the session is over.  A layer's self
time is the time inside its spans minus the time inside their child spans.

The wrappers pass every argument, yielded event, sent value and exception
through unchanged, so a traced session simulates exactly what an untraced
one does; the benchmark checks that its simulated counters agree.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from array import array
from pathlib import Path

import repro.core.instance
from repro.monitor.stats import ProgressMonitor
from repro.net.network import Endpoint, Network
from repro.obs.spans import SpanTracer
from repro.protocols.acp import ThreePhaseCommit, TwoPhaseCommit
from repro.protocols.ccp import (
    MultiversionTimestampController,
    OptimisticController,
    TimestampOrderingController,
    TwoPhaseLockingController,
)
from repro.protocols.rcp import (
    AvailableCopiesController,
    QuorumConsensusController,
    RowaController,
)
from repro.sim.kernel import Simulator
from repro.site.locks import LockManager
from repro.site.site import Site
from repro.site.storage import LocalStore
from repro.site.wal import WriteAheadLog
from repro.txn.coordinator import TxnContext
from repro.workload.generator import WorkloadGenerator

clock = time.perf_counter_ns
_MISSING = object()


def _arg1(args, kwargs):
    return args[1]


def _arg1_txn_id(args, kwargs):
    return args[1].txn_id


def _kw_txn(args, kwargs):
    return kwargs.get("txn_id")


def _ctx0_txn(args, kwargs):
    return args[0].txn.txn_id


def _ctx1_txn(args, kwargs):
    return args[1].txn.txn_id


def _apply_txn(args, kwargs):
    return args[4] if len(args) > 4 else kwargs.get("txn_id")


def _no_txn(args, kwargs):
    return None


_CCP_CLASSES = (
    TwoPhaseLockingController,
    TimestampOrderingController,
    MultiversionTimestampController,
    OptimisticController,
)
_RCP_CLASSES = (RowaController, AvailableCopiesController, QuorumConsensusController)
_ACP_CLASSES = (TwoPhaseCommit, ThreePhaseCommit)
_TXN_METHODS = (
    "access_read",
    "access_prewrite",
    "access_read_many",
    "access_prewrite_many",
    "collect_votes",
    "broadcast",
)


def entry_points():
    """``(owner, attribute, layer, txn_of)`` for every wrapped public call.

    Layer names are the ``repro`` modules.  ``Simulator.run`` is the root
    span, so ``sim`` self time is the kernel plus whatever unwrapped code
    it resumes.  ``Simulator.process`` is only counted (``txn_of`` None).
    """
    points = [
        (Simulator, "run", "sim", _no_txn),
        (Simulator, "process", "sim", None),
        (Network, "send", "net", _arg1_txn_id),
        (Endpoint, "request", "net", _kw_txn),
        (Endpoint, "reply", "net", _arg1_txn_id),
    ]
    points += [
        (Site, name, "site", _arg1)
        for name in (
            "local_read",
            "local_prewrite",
            "local_prepare",
            "local_precommit",
            "local_commit",
            "local_abort",
            "decision_of",
        )
    ]
    points += [
        (LockManager, "acquire", "site.locks", _arg1),
        (LockManager, "release_all", "site.locks", _arg1),
    ]
    points += [
        (WriteAheadLog, name, "site.wal", _arg1)
        for name in ("log_prepare", "log_precommit", "log_commit", "log_abort", "log_end")
    ]
    points += [
        (LocalStore, "read", "site.storage", _no_txn),
        (LocalStore, "version", "site.storage", _no_txn),
        (LocalStore, "apply", "site.storage", _apply_txn),
    ]
    points += [
        (cls, name, "protocols.ccp", _arg1)
        for cls in _CCP_CLASSES
        for name in (
            "read",
            "prewrite",
            "commit",
            "abort",
            "validate",
            "buffered_writes",
            "is_doomed",
        )
    ]
    points += [
        (cls, name, "protocols.rcp", _ctx1_txn)
        for cls in _RCP_CLASSES
        for name in ("do_read", "do_write")
    ]
    points += [(cls, "run", "protocols.acp", _ctx1_txn) for cls in _ACP_CLASSES]
    points += [(repro.core.instance, "run_transaction", "txn", _ctx0_txn)]
    points += [(TxnContext, name, "txn", _ctx0_txn) for name in _TXN_METHODS]
    points += [
        (ProgressMonitor, name, "monitor", _no_txn)
        for name in (
            "txn_submitted",
            "txn_started",
            "txn_finished",
            "check_serializable",
            "output_statistics",
        )
    ]
    points += [(WorkloadGenerator, "make_transaction", "workload", _no_txn)]
    points += [
        (SpanTracer, "begin", "obs", _arg1),
        (SpanTracer, "record", "obs", _arg1),
        (SpanTracer, "finish", "obs", _arg1_txn_id),
    ]
    return points


class LayerTracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.methods: list[tuple[str, str]] = []  # (layer, "Owner.attr")
        self.calls: list[int] = []  # per method
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and call count recorded so far."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        self.span_method = array("H")
        self.span_parent = array("q")
        self.span_txn = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(self.methods)

    # -- recording ------------------------------------------------------------
    def _open(self, method: int, txn) -> int:
        index = len(self.span_start)
        self.span_method.append(method)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_txn.append(-1 if txn is None else txn)
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(clock())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = clock()
        self._stack.pop()

    # -- wrapping -------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point (restore with :meth:`uninstall`)."""
        for owner, attr, layer, txn_of in entry_points():
            self._wrap(owner, attr, layer, txn_of)
        self.calls = [0] * len(self.methods)

    def uninstall(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, layer: str, txn_of) -> None:
        fn = getattr(owner, attr)
        method = len(self.methods)
        self.methods.append((layer, f"{owner.__name__}.{attr}"))
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        tracer = self

        if txn_of is None:

            def counted(*args, **kwargs):
                tracer.calls[method] += 1
                return fn(*args, **kwargs)

            wrapper = counted
        elif inspect.isgeneratorfunction(fn):

            def generator(*args, **kwargs):
                tracer.calls[method] += 1
                return _timed(tracer, method, txn_of(args, kwargs), fn(*args, **kwargs))

            wrapper = generator
        else:

            def call(*args, **kwargs):
                tracer.calls[method] += 1
                index = tracer._open(method, txn_of(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)

            wrapper = call
        setattr(owner, attr, functools.wraps(fn)(wrapper))

    # -- analysis -------------------------------------------------------------
    def layers(self) -> list[str]:
        """Layer names in first-wrapped order, without repeats."""
        return list(dict.fromkeys(layer for layer, _name in self.methods))

    def durations(self) -> list[int]:
        return [end - start for start, end in zip(self.span_start, self.span_end)]

    def self_ns(self) -> dict[str, int]:
        """Self time per layer: span time minus time in child spans."""
        durations = self.durations()
        inner = [0] * len(durations)
        for child, parent in enumerate(self.span_parent):
            if parent >= 0:
                inner[parent] += durations[child]
        totals = dict.fromkeys(self.layers(), 0)
        layer_of = [layer for layer, _name in self.methods]
        for index, method in enumerate(self.span_method):
            totals[layer_of[method]] += durations[index] - inner[index]
        return totals

    def top_level_ns(self) -> int:
        """Time inside spans that have no parent span."""
        return sum(
            end - start
            for start, end, parent in zip(self.span_start, self.span_end, self.span_parent)
            if parent < 0
        )

    def inclusive_ns(self, qualified_name: str) -> int:
        """Total time inside spans of one method (children included)."""
        wanted = {i for i, (_layer, name) in enumerate(self.methods) if name == qualified_name}
        return sum(
            end - start
            for method, start, end in zip(self.span_method, self.span_start, self.span_end)
            if method in wanted
        )

    def calls_of(self, *qualified_suffixes: str, layer: str | None = None) -> int:
        """Calls to methods of ``layer`` or with a name ending in a suffix."""
        return sum(
            count
            for (method_layer, name), count in zip(self.methods, self.calls)
            if (layer is not None and method_layer == layer)
            or (qualified_suffixes and name.endswith(qualified_suffixes))
        )

    def write_csv(self, path: Path, origin_ns: int) -> None:
        """Write every span (times in µs from ``origin_ns``) as CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "layer", "method", "start_us", "end_us", "parent", "txn"])
            for index, method in enumerate(self.span_method):
                layer, name = self.methods[method]
                txn = self.span_txn[index]
                writer.writerow(
                    [
                        index,
                        layer,
                        name,
                        (self.span_start[index] - origin_ns) / 1000,
                        (self.span_end[index] - origin_ns) / 1000,
                        self.span_parent[index],
                        "" if txn < 0 else txn,
                    ]
                )


def _timed(tracer: LayerTracer, method: int, txn, gen):
    """Drive ``gen``, recording one span per resume; transparent otherwise."""
    send = None
    error = None
    while True:
        index = tracer._open(method, txn)
        try:
            target = gen.send(send) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer._close(index)
        send = error = None
        try:
            send = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            error = exc
