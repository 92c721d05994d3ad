"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import AllOf, AnyOf, Event, Interrupt, Simulator, Timeout
from tests.conftest import drive


class TestEvent:
    def test_new_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_carries_exception(self, sim):
        event = sim.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_on_processing(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        event.succeed("x")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["x"]

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == [7]


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        fired = []
        sim.timeout(5.0).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_timeout_carries_value(self, sim):
        def proc():
            value = yield sim.timeout(1, value="hello")
            return value

        assert drive(sim, proc()) == "hello"

    def test_zero_delay_allowed(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_same_time_fifo_order(self, sim):
        order = []
        for index in range(5):
            sim.timeout(1.0).add_callback(lambda ev, i=index: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(2)
            return "done"

        assert drive(sim, proc()) == "done"
        assert sim.now == 2.0

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()

        def proc():
            try:
                yield event
            except ValueError as error:
                return f"caught {error}"

        process = sim.process(proc())
        sim.defer(1, lambda: event.fail(ValueError("bad")))
        assert sim.run(until=process) == "caught bad"

    def test_uncaught_exception_fails_process(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("oops")

        process = sim.process(proc())
        with pytest.raises(RuntimeError, match="oops"):
            sim.run(until=process)

    def test_yield_non_event_fails_process(self, sim):
        def proc():
            yield 42

        process = sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run(until=process)

    def test_process_waits_on_other_process(self, sim):
        def child():
            yield sim.timeout(3)
            return 10

        def parent():
            value = yield sim.process(child())
            return value * 2

        assert drive(sim, parent()) == 20

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(5)

        process = sim.process(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(1)
            return "inner"

        def outer():
            value = yield from inner()
            yield sim.timeout(1)
            return value + "-outer"

        assert drive(sim, outer()) == "inner-outer"
        assert sim.now == 2.0


class TestInterrupt:
    def test_interrupt_during_wait(self, sim):
        def proc():
            try:
                yield sim.timeout(100)
                return "not interrupted"
            except Interrupt as interrupt:
                return f"interrupted: {interrupt.cause}"

        process = sim.process(proc())
        sim.defer(5, lambda: process.interrupt("crash"))
        assert sim.run(until=process) == "interrupted: crash"
        assert sim.now == 5.0

    def test_uncaught_interrupt_terminates_quietly(self, sim):
        def proc():
            yield sim.timeout(100)

        process = sim.process(proc())
        sim.defer(5, lambda: process.interrupt())
        value = sim.run(until=process)
        assert isinstance(value, Interrupt)

    def test_interrupt_finished_process_is_noop(self, sim):
        def proc():
            yield sim.timeout(1)
            return "ok"

        process = sim.process(proc())
        sim.run(until=process)
        process.interrupt("late")  # must not raise
        assert process.value == "ok"

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """The original awaited event firing later must not resume the process."""
        resumed = []

        def proc():
            try:
                yield sim.timeout(10)
                resumed.append("timeout")
            except Interrupt:
                yield sim.timeout(20)  # keep living past t=10
                resumed.append("post-interrupt")

        process = sim.process(proc())
        sim.defer(5, lambda: process.interrupt())
        sim.run()
        assert resumed == ["post-interrupt"]
        assert sim.now >= 25.0

    def test_interrupt_while_running_delivered_at_next_yield(self, sim):
        log = []

        def proc():
            # Interrupt self while the body is executing (not suspended).
            process.interrupt("self")
            log.append("before yield")
            try:
                yield sim.timeout(100)
                log.append("slept")
            except Interrupt:
                log.append("interrupted")

        process = sim.process(proc())
        sim.run()
        assert log == ["before yield", "interrupted"]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def proc():
            t1, t2 = sim.timeout(2, "a"), sim.timeout(5, "b")
            results = yield sim.all_of([t1, t2])
            return sorted(results.values())

        assert drive(sim, proc()) == ["a", "b"]
        assert sim.now == 5.0

    def test_any_of_fires_on_first(self, sim):
        def proc():
            t1, t2 = sim.timeout(2, "fast"), sim.timeout(5, "slow")
            results = yield sim.any_of([t1, t2])
            return list(results.values())

        assert drive(sim, proc()) == ["fast"]
        assert sim.now == 2.0

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_all_of_fails_fast(self, sim):
        bad = sim.event()

        def proc():
            try:
                yield sim.all_of([sim.timeout(10), bad])
            except ValueError:
                return sim.now

        process = sim.process(proc())
        sim.defer(1, lambda: bad.fail(ValueError()))
        assert sim.run(until=process) == 1.0

    def test_any_of_fails_only_when_all_fail(self, sim):
        e1, e2 = sim.event(), sim.event()

        def proc():
            try:
                yield sim.any_of([e1, e2])
                return "ok"
            except RuntimeError:
                return "all failed"

        process = sim.process(proc())
        sim.defer(1, lambda: e1.fail(RuntimeError()))
        sim.defer(2, lambda: e2.fail(RuntimeError()))
        assert sim.run(until=process) == "all failed"

    def test_any_of_with_one_failure_and_one_success(self, sim):
        e1, e2 = sim.event(), sim.event()

        def proc():
            results = yield sim.any_of([e1, e2])
            return list(results.values())

        process = sim.process(proc())
        sim.defer(1, lambda: e1.fail(RuntimeError()))
        sim.defer(2, lambda: e2.succeed("late win"))
        assert sim.run(until=process) == ["late win"]

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([other.event()])

    def test_all_of_with_already_processed_event(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()

        def proc():
            results = yield sim.all_of([done, sim.timeout(3, "late")])
            return sorted(results.values())

        assert drive(sim, proc()) == ["early", "late"]


class TestRun:
    def test_run_until_time_stops_clock_exactly(self, sim):
        sim.timeout(10)
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_until_past_raises(self, sim):
        sim.run(until=5)
        with pytest.raises(SimulationError):
            sim.run(until=3)

    def test_run_until_event_returns_value(self, sim):
        def proc():
            yield sim.timeout(4)
            return "v"

        assert sim.run(until=sim.process(proc())) == "v"

    def test_run_until_never_firing_event_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError, match="ran dry"):
            sim.run(until=event)

    def test_run_drains_everything(self, sim):
        sim.timeout(3)
        sim.timeout(9)
        sim.run()
        assert sim.now == 9.0
        assert sim.peek() == float("inf")

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_processed_events_counter(self, sim):
        sim.timeout(1)
        sim.timeout(2)
        sim.run()
        assert sim.processed_events == 2

    def test_defer_runs_function(self, sim):
        seen = []
        sim.defer(3, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_defer_negative_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.defer(-1, lambda: None)

    def test_determinism_two_identical_runs(self):
        def build():
            sim = Simulator()
            log = []

            def worker(name, delay):
                yield sim.timeout(delay)
                log.append((name, sim.now))
                yield sim.timeout(delay)
                log.append((name, sim.now))

            sim.process(worker("a", 2))
            sim.process(worker("b", 2))
            sim.process(worker("c", 3))
            sim.run()
            return log

        assert build() == build()


class TestCancel:
    def test_cancelled_call_never_runs(self, sim):
        seen = []
        doomed = sim.defer(3, seen.append, "doomed")
        sim.defer(5, seen.append, "kept")
        sim.cancel(doomed)
        sim.run()
        assert seen == ["kept"]
        assert sim.processed_events == 1

    def test_cancelled_call_does_not_move_the_clock(self, sim):
        sim.defer(2, lambda: None)
        sim.cancel(sim.defer(90, lambda: None))
        sim.run()
        assert sim.now == 2.0
        assert sim.peek() == float("inf")
        assert sim.step() is False

    def test_cancel_after_fire_is_noop(self, sim):
        seen = []
        fired = sim.defer(1, seen.append, "fired")
        sim.run()
        sim.cancel(fired)
        sim.cancel(fired)
        assert seen == ["fired"]
        assert sim._dead == 0
        # The count stays exact: one live and one cancelled entry.
        pending = sim.defer(1, seen.append, "late")
        sim.defer(2, seen.append, "later")
        sim.cancel(pending)
        sim.cancel(pending)
        assert sim._dead == 1
        sim.run()
        assert seen == ["fired", "later"]
        assert sim._dead == 0

    def test_peek_and_step_skip_cancelled_calls(self, sim):
        seen = []
        sim.cancel(sim.defer(1, seen.append, "dead"))
        sim.defer(4, seen.append, "live")
        sim.timeout(9)
        assert sim.peek() == 4.0
        assert sim.step() is True
        assert seen == ["live"]
        assert sim.now == 4.0

    def test_heap_compacts_once_dead_entries_outnumber_live(self, sim):
        calls = [sim.defer(i, lambda: None) for i in range(10)]
        for call in calls[:5]:
            sim.cancel(call)
        assert (len(sim._heap), sim._dead) == (10, 5)
        sim.cancel(calls[5])
        assert (len(sim._heap), sim._dead) == (4, 0)
        sim.run()
        assert sim.processed_events == 4
        assert sim.now == 9.0


class _NeverCompacts(Simulator):
    """Reference kernel: cancelled entries stay on the heap until popped."""

    def cancel(self, call) -> None:
        if call._live:
            call._live = False
            self._dead += 1


def _run_schedule(sim: Simulator, ops) -> tuple:
    """Run a random program of defers, cancels and event triggers.

    Each op is scheduled up front; when it fires it logs itself and does
    its action: defer a new call, trigger an event at the current instant,
    cancel one call scheduled so far (fired ones included), or sweep every
    third call from some index on, the way a crash cancels a batch of
    timers.
    """
    log = []
    calls = []

    def fire(step):
        label, action = step
        log.append((sim.now, label))
        if action is None:
            return
        kind, delay, target = action
        if kind == "defer":
            calls.append(sim.defer(delay, fire, (f"{label}/d", None)))
        elif kind == "cancel":
            sim.cancel(calls[target % len(calls)])
        elif kind == "sweep":
            for call in calls[target % len(calls) :: 3]:
                sim.cancel(call)
        else:
            event = sim.event()
            event.add_callback(lambda _ev: log.append((sim.now, f"{label}/e")))
            event.succeed()

    for index, (delay, action) in enumerate(ops):
        calls.append(sim.defer(delay, fire, (str(index), action)))
    sim.run()
    return log, sim.now, sim.processed_events


_delays = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_kinds = st.sampled_from(["defer", "cancel", "sweep", "succeed"])
_actions = st.one_of(st.none(), st.tuples(_kinds, _delays, st.integers(0, 99)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.tuples(_delays, _actions), min_size=1, max_size=60))
def test_cancel_and_compaction_keep_pop_order(ops):
    """Compaction never changes which entries run, in what order, or when."""
    assert _run_schedule(Simulator(), ops) == _run_schedule(_NeverCompacts(), ops)
