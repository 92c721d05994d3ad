"""Deterministic discrete-event simulation kernel.

This is the execution substrate that replaces the Java threads of the
original Rainbow system.  Every active component of the reproduction — site
servers, transaction coordinator threads, the workload generator, the fault
injector, the progress-monitor sampler — is a :class:`Process`: a Python
generator that yields events (timeouts, received messages, completions of
other processes) and is resumed when they fire.

The kernel is intentionally SimPy-like but self-contained:

* :class:`Simulator` owns the virtual clock and the event heap.
* :class:`Event` is a one-shot occurrence that can *succeed* with a value or
  *fail* with an exception.
* :class:`Timeout` succeeds after a fixed delay.
* :class:`Process` wraps a generator; yielding an event suspends the process
  until the event fires.  A failed event is re-raised inside the generator so
  processes handle protocol failures with ordinary ``try/except``.
* :class:`AllOf` joins events that must all succeed; :class:`Countdown`
  joins a fan-out whose children may fail.
* :meth:`Process.interrupt` throws :class:`Interrupt` into a suspended
  process — used to kill in-flight work when a site crashes.
* :meth:`Simulator.defer` schedules a bare callback (the one timer API)
  and returns a handle for :meth:`Simulator.cancel`, so an RPC answered
  in time takes its expiry timer off the heap instead of letting it fire
  for nothing.

Order contract.  What the kernel promises, and all that callers may rely on:

* the same seed gives the same run, so classroom assignments and
  experiments repeat exactly;
* a process's bootstrap runs before its first resume;
* one event's callbacks run in the order they were registered.

Nothing else about the order of work due at the same instant is promised.
Ties are broken by a sequence number (FIFO), but that is an implementation
detail: the tie-order fuzz tests break them by a seeded draw instead and
expect the same verdicts.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Countdown",
    "Interrupt",
    "Simulator",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

# Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

# Hoisted heap bindings: the event loop pays for these every iteration.
_heappush = heapq.heappush
_heappop = heapq.heappop


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    ``cause`` is whatever the interrupter supplied (for Rainbow this is
    usually a site-crash notice).
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class Event:
    """A one-shot occurrence inside a :class:`Simulator`.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    moves it to *triggered* and schedules its callbacks to run at the
    current simulation instant; once callbacks have run it is *processed*.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "name")

    #: Every heap entry answers ``_live``; only a cancelled :class:`_Call`
    #: (see :meth:`Simulator.cancel`) is ever dead.
    _live = True

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = PENDING
        self.name = name

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (value or failure)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        # succeed() is the hottest call in the kernel, so it queues itself
        # on the heap directly, without a method hop.
        sim = self.sim
        sim._sequence += 1
        _heappush(sim._heap, (sim._now, sim._sequence, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        The exception is raised inside any process waiting on the event.
        """
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        sim = self.sim
        sim._sequence += 1
        _heappush(sim._heap, (sim._now, sim._sequence, self))
        return self

    def _run_callbacks(self) -> None:
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (same instant), preserving at-most-once semantics.
        """
        if self._state == PROCESSED:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        return f"<{label} state={self._state}>"


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ with a static name: formatting a
        # per-instance label was measurable on timeout-heavy workloads.
        self.sim = sim
        self.callbacks = []
        self.name = "Timeout"
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        sim._sequence += 1
        _heappush(sim._heap, (sim._now + delay, sim._sequence, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout({self.delay}) state={self._state}>"


#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = object()


class _Call:
    """A scheduled bare callback: the cheapest thing the heap can hold.

    Used by :meth:`Simulator.defer` for timers (message delivery, RPC and
    lock-wait expirations) where a full :class:`Event` — with its callback
    list, state machine, and waiter support — is overhead.  The event loop
    only requires ``_live`` and ``_run_callbacks``.  A call is live from
    scheduling until it runs or is cancelled; then it lets go of ``fn`` and
    ``arg``, so a handle kept by what the callback holds (a lock request's
    expiry timer) forms no reference cycle.
    """

    __slots__ = ("fn", "arg", "_live")

    def __init__(self, fn: Callable, arg: Any = _NO_ARG):
        self.fn = fn
        self.arg = arg
        self._live = True

    def _run_callbacks(self) -> None:
        self._live = False
        fn, arg = self.fn, self.arg
        self.fn = self.arg = None
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)


class AllOf(Event):
    """Succeeds once every child event has succeeded.

    Fails as soon as any child fails (with that child's exception).  The
    success value is a dict of the child events mapped to their values.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="AllOf")
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            # Only *processed* children count: a Timeout is born triggered
            # but has not occurred until its callbacks ran.
            self.succeed({e: e.value for e in self.events if e.processed and e.ok})


class Countdown(Event):
    """Succeeds once ``count`` children have reported; never fails.

    The join of a fan-out whose children may fail (an RPC timeout is an
    outcome, not an error): unlike :class:`AllOf` it neither fails early
    nor needs its children up front.  A child reports by calling
    :meth:`tick`, directly or as a callback of the event it waits on.
    """

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", count: int):
        super().__init__(sim, name="Countdown")
        self._remaining = count
        if count <= 0:
            self.succeed()

    def tick(self, _event: Optional[Event] = None) -> None:
        """Report one child outcome."""
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()


class Process(Event):
    """A running generator; completes when the generator returns.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds the process resumes with the event's value; when it fails the
    exception is thrown into the generator.  The process event itself
    succeeds with the generator's return value, or fails with any uncaught
    exception.
    """

    __slots__ = ("generator", "_waiting_on", "_interrupts")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        # Start the process at the current instant (but not synchronously,
        # so the creator finishes its own step first).  An interrupt that
        # arrives before the first step lands in ``_interrupts`` and is
        # delivered by the bootstrap step itself.
        sim._sequence += 1
        _heappush(sim._heap, (sim._now, sim._sequence, _Call(self._bootstrap)))

    def _bootstrap(self) -> None:
        if not self.triggered:
            self._step(send=None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        Interrupting a finished process is a no-op; interrupting a process
        that is not currently suspended delivers the interrupt at its next
        suspension point.
        """
        if self.triggered:
            return
        interrupt = Interrupt(cause)
        if self._waiting_on is not None:
            target, self._waiting_on = self._waiting_on, None
            # Detach: the original event may still fire later; ignore it.
            delivery = Event(self.sim, name=f"interrupt:{self.name}")
            delivery.add_callback(lambda _ev: self._step(throw=interrupt))
            delivery.succeed(None)
            # Ensure a late firing of `target` does not also resume us.
            self._disarm(target)
        else:
            self._interrupts.append(interrupt)

    def _disarm(self, event: Event) -> None:
        try:
            event.callbacks.remove(self._resume)
        except ValueError:
            pass

    # -- stepping ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state is not PENDING:
            return
        if self._waiting_on is not event:
            return  # stale wake-up after an interrupt detached us
        self._waiting_on = None
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: BaseException | None = None) -> None:
        if self._state is not PENDING:
            return
        try:
            if self._interrupts and throw is None:
                throw = self._interrupts.pop(0)
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as interrupt:
            # An uncaught interrupt terminates the process quietly: the
            # process was killed on purpose (e.g. its site crashed).
            self.succeed(interrupt)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberate funnel
            self.fail(exc)
            return

        # One getattr replaces the isinstance + ownership pair on the hot
        # path; the slow path below recovers the precise error.
        if getattr(target, "sim", None) is not self.sim:
            if not isinstance(target, Event):
                self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            else:
                self.fail(SimulationError("process yielded event from another simulator"))
            return
        if self._interrupts:
            # An interrupt arrived while the process body was executing:
            # deliver it at this suspension point instead of waiting.
            interrupt = self._interrupts.pop(0)
            delivery = Event(self.sim, name=f"interrupt:{self.name}")
            delivery.add_callback(lambda _ev: self._step(throw=interrupt))
            delivery.succeed(None)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Simulator:
    """The discrete-event simulator: virtual clock plus event heap."""

    def __init__(self):
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._processed_events = 0
        # Cancelled calls still on the heap: the loop skips them, and the
        # heap is compacted once they outnumber the live entries.
        self._dead = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (a work measure)."""
        return self._processed_events

    # -- event construction -------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Launch ``generator`` as a process starting at the current instant."""
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator (did you call the function?)")
        return Process(self, generator, name=name)

    def defer(self, delay: float, fn: Callable, arg: Any = _NO_ARG) -> _Call:
        """Schedule ``fn(arg)`` (or ``fn()``) after ``delay`` time units.

        The kernel's one timer API.  No :class:`Event` is allocated; the
        returned handle only serves :meth:`cancel`.  A callback that must be
        waited on should trigger an event of its own.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        call = _Call(fn, arg)
        self._sequence += 1
        _heappush(self._heap, (self._now + delay, self._sequence, call))
        return call

    def cancel(self, call: _Call) -> None:
        """Stop a :meth:`defer` call from running.

        A no-op once the call has run or been cancelled.  The entry stays on
        the heap, dead, until it is popped or the heap is compacted; since
        ``(when, seq)`` keys are unique, neither changes the pop order of
        the live entries.
        """
        if not call._live:
            return
        call._live = False
        call.fn = call.arg = None
        self._dead += 1
        heap = self._heap
        if self._dead * 2 > len(heap):
            # In place: a running loop holds a reference to this list.
            heap[:] = [entry for entry in heap if entry[2]._live]
            heapq.heapify(heap)
            self._dead = 0

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    # -- execution ----------------------------------------------------------
    def step(self) -> bool:
        """Process one event.  Returns False if no live event remains."""
        heap = self._heap
        while heap:
            when, _seq, event = _heappop(heap)
            if not event._live:
                self._dead -= 1
                continue
            if when < self._now:
                raise SimulationError("event scheduled in the past")
            self._now = when
            self._processed_events += 1
            event._run_callbacks()
            return True
        return False

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        * ``until`` is None: run until no events remain.
        * ``until`` is a number: run until the clock would pass it (the
          clock is left exactly at ``until``).
        * ``until`` is an :class:`Event`: run until that event is processed
          and return its value (raising if it failed).

        All three modes drain the heap with inlined loops rather than
        per-event :meth:`step` calls — scheduling guarantees events are
        never in the past, so the loop only pops, skips cancelled calls
        (they neither move the clock nor count), advances the clock, and
        runs callbacks.
        """
        heap = self._heap
        heappop = _heappop
        if until is None:
            while heap:
                when, _seq, event = heappop(heap)
                if event._live:
                    self._now = when
                    self._processed_events += 1
                    event._run_callbacks()
                else:
                    self._dead -= 1
            return None

        if isinstance(until, Event):
            sentinel = until
            while sentinel._state != PROCESSED:
                if not heap:
                    raise SimulationError("simulation ran dry before the awaited event fired")
                when, _seq, event = heappop(heap)
                if event._live:
                    self._now = when
                    self._processed_events += 1
                    event._run_callbacks()
                else:
                    self._dead -= 1
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value

        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"cannot run to {deadline}: clock already at {self._now}")
        while heap and heap[0][0] <= deadline:
            when, _seq, event = heappop(heap)
            if event._live:
                self._now = when
                self._processed_events += 1
                event._run_callbacks()
            else:
                self._dead -= 1
        self._now = deadline
        return None

    def peek(self) -> float:
        """Time of the next live event, or +inf if none."""
        heap = self._heap
        while heap and not heap[0][2]._live:
            _heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else float("inf")
