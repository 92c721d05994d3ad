"""Unit tests for the fault/recovery injector."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.network import Network
from repro.sim.kernel import Simulator


class FakeTarget:
    """Minimal Crashable."""

    def __init__(self, name):
        self.name = name
        self.up = True
        self.transitions = []

    def crash(self):
        self.up = False
        self.transitions.append("crash")

    def recover(self):
        self.up = True
        self.transitions.append("recover")


@pytest.fixture
def injector(sim, network):
    return FaultInjector(sim, network)


class TestRegistry:
    def test_register_and_lookup(self, injector):
        target = FakeTarget("s1")
        injector.register(target)
        assert injector.target("s1") is target
        assert injector.targets() == ["s1"]

    def test_duplicate_rejected(self, injector):
        injector.register(FakeTarget("s1"))
        with pytest.raises(ConfigurationError):
            injector.register(FakeTarget("s1"))

    def test_unknown_target_rejected(self, injector):
        with pytest.raises(ConfigurationError):
            injector.target("ghost")


class TestScheduledFaults:
    def test_crash_and_recover_at_times(self, sim, injector):
        target = FakeTarget("s1")
        injector.register(target)
        injector.schedule_crash("s1", at=10)
        injector.schedule_recovery("s1", at=20)
        sim.run(until=15)
        assert not target.up
        sim.run(until=25)
        assert target.up
        assert [e.kind for e in injector.log] == ["crash", "recover"]
        assert [e.time for e in injector.log] == [10, 20]

    def test_crash_now(self, injector):
        target = FakeTarget("s1")
        injector.register(target)
        injector.crash_now("s1")
        assert not target.up

    def test_schedule_in_past_fires_immediately(self, sim, injector):
        target = FakeTarget("s1")
        injector.register(target)
        sim.run(until=10)
        injector.schedule_crash("s1", at=5)
        sim.run(until=10.1)
        assert not target.up
        assert injector.log[0].time == 10.0

    def test_partition_and_heal_scheduled(self, sim, network, injector):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        got = []
        b.serve(got.append)
        injector.schedule_partition([["h1"], ["h2"]], at=5)
        injector.schedule_heal(at=15)
        sim.run(until=6)
        a.send(b.address, "X")
        sim.run(until=16)
        assert network.stats.dropped == 1
        a.send(b.address, "X")
        sim.run()
        assert len(got) == 1

    def test_link_cut_with_restore(self, sim, network, injector):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        got = []
        b.serve(got.append)
        injector.schedule_link_cut("h1", "h2", at=2, restore_at=8)
        sim.run(until=3)
        a.send(b.address, "X")
        sim.run(until=9)
        assert network.stats.dropped == 1
        a.send(b.address, "X")
        sim.run()
        assert len(got) == 1
        kinds = [e.kind for e in injector.log]
        assert kinds == ["link_cut", "link_restore"]

    def test_restore_before_cut_rejected(self, injector):
        with pytest.raises(ConfigurationError):
            injector.schedule_link_cut("a", "b", at=10, restore_at=5)

    def test_apply_schedule(self, sim, injector):
        target = FakeTarget("s1")
        injector.register(target)
        schedule = FaultSchedule(crashes=[("s1", 3)], recoveries=[("s1", 6)])
        injector.apply_schedule(schedule)
        sim.run()
        assert target.transitions == ["crash", "recover"]

    def test_flaky_link_window(self, sim, network, injector):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        injector.schedule_flaky_link("h1", "h2", start=5, end=15, loss=0.5)
        sim.run(until=6)
        assert frozenset(("h1", "h2")) in network._flaky_links
        sim.run(until=16)
        assert network._flaky_links == {}
        kinds = [e.kind for e in injector.log]
        assert kinds == ["flaky_link", "flaky_clear"]
        assert a.up  # nothing crashed

    def test_flaky_window_must_be_positive(self, injector):
        with pytest.raises(ConfigurationError):
            injector.schedule_flaky_link("h1", "h2", start=10, end=10)

    def test_apply_schedule_installs_flaky_links(self, sim, network, injector):
        network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        schedule = FaultSchedule(flaky_links=[("h1", "h2", 2.0, 8.0, 0.3, 0.1)])
        injector.apply_schedule(schedule)
        sim.run(until=3)
        assert network._flaky_links[frozenset(("h1", "h2"))] == (0.3, 0.1)
        sim.run()
        assert network._flaky_links == {}


class TestScheduleValidation:
    def test_unknown_crash_target(self, injector):
        with pytest.raises(ConfigurationError, match="unknown target 'ghost'"):
            injector.apply_schedule(FaultSchedule(crashes=[("ghost", 5)]))

    def test_recovery_not_after_crash(self, injector):
        injector.register(FakeTarget("s1"))
        with pytest.raises(ConfigurationError, match="not after its crash"):
            injector.apply_schedule(
                FaultSchedule(crashes=[("s1", 10)], recoveries=[("s1", 10)])
            )

    def test_more_recoveries_than_crashes(self, injector):
        injector.register(FakeTarget("s1"))
        with pytest.raises(ConfigurationError, match="recoveries for"):
            injector.apply_schedule(
                FaultSchedule(crashes=[("s1", 5)], recoveries=[("s1", 8), ("s1", 12)])
            )

    def test_paired_crash_recover_cycles_validate(self, sim, injector):
        injector.register(FakeTarget("s1"))
        injector.apply_schedule(
            FaultSchedule(
                crashes=[("s1", 5), ("s1", 20)], recoveries=[("s1", 10), ("s1", 25)]
            )
        )

    def test_partition_unknown_host(self, network, injector):
        network.endpoint("h1", "a")
        with pytest.raises(ConfigurationError, match="unknown host 'mars'"):
            injector.apply_schedule(
                FaultSchedule(partitions=[(5.0, [["h1"], ["mars"]])])
            )

    def test_partition_host_in_two_groups(self, network, injector):
        network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        with pytest.raises(ConfigurationError, match="in two groups"):
            injector.apply_schedule(
                FaultSchedule(partitions=[(5.0, [["h1"], ["h1", "h2"]])])
            )

    def test_link_cut_unknown_host(self, network, injector):
        network.endpoint("h1", "a")
        with pytest.raises(ConfigurationError, match="unknown host 'mars'"):
            injector.apply_schedule(
                FaultSchedule(link_cuts=[("h1", "mars", 2.0, None)])
            )

    def test_rejected_link_cut_window_cuts_nothing(self, sim, network, injector):
        network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        with pytest.raises(ConfigurationError, match="link cut 'h1'~'h2'.*not after"):
            injector.apply_schedule(
                FaultSchedule(link_cuts=[("h1", "h2", 10.0, 5.0)])
            )
        sim.run()
        assert network._cut_links == set()
        assert injector.log == []

    def test_link_cut_window_checked_before_arming(self, sim, network, injector):
        with pytest.raises(ConfigurationError):
            injector.schedule_link_cut("h1", "h2", at=10, restore_at=10)
        sim.run()
        assert network._cut_links == set()
        assert injector.log == []

    def test_flaky_link_bad_rate(self, network, injector):
        network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        with pytest.raises(ConfigurationError, match="must be in"):
            injector.apply_schedule(
                FaultSchedule(flaky_links=[("h1", "h2", 2.0, 8.0, 1.5, 0.0)])
            )

    def test_invalid_schedule_installs_nothing(self, sim, injector):
        target = FakeTarget("s1")
        injector.register(target)
        with pytest.raises(ConfigurationError):
            injector.apply_schedule(
                FaultSchedule(crashes=[("s1", 5)], recoveries=[("ghost", 8)])
            )
        sim.run()
        assert target.transitions == []  # validation happens before install


class TestRandomFaults:
    def test_crash_recover_cycles(self, sim, injector):
        target = FakeTarget("s1")
        injector.register(target)
        injector.random_crash_recover(["s1"], mttf=10, mttr=5, rng=random.Random(1), until=200)
        sim.run()
        assert injector.crash_count() >= 3
        # Left healed at horizon.
        assert target.up

    def test_invalid_mttf_rejected(self, injector):
        injector.register(FakeTarget("s1"))
        with pytest.raises(ConfigurationError):
            injector.random_crash_recover(["s1"], mttf=0, mttr=5, rng=random.Random(0))

    def test_unknown_random_target_rejected(self, injector):
        with pytest.raises(ConfigurationError):
            injector.random_crash_recover(["ghost"], mttf=5, mttr=5, rng=random.Random(0))


class TestDowntimeReport:
    def test_downtime_accumulates(self, sim, injector):
        target = FakeTarget("s1")
        injector.register(target)
        injector.schedule_crash("s1", at=10)
        injector.schedule_recovery("s1", at=30)
        injector.schedule_crash("s1", at=50)
        injector.schedule_recovery("s1", at=55)
        sim.run()
        assert injector.downtime_report() == {"s1": 25.0}

    def test_still_down_counts_to_now(self, sim, injector):
        target = FakeTarget("s1")
        injector.register(target)
        injector.schedule_crash("s1", at=10)
        sim.timeout(40)
        sim.run()
        assert injector.downtime_report() == {"s1": 30.0}

    def test_empty_log_empty_report(self, injector):
        assert injector.downtime_report() == {}


class SteppingTarget(FakeTarget):
    """A FakeTarget with an execution stream its test drives by hand."""

    def __init__(self, name):
        super().__init__(name)
        self.subscribers = []

    def emit(self, kind, txn):
        for subscriber in self.subscribers:
            subscriber(kind, self.name, txn, None, None, None)


class TestCrashBeforeStep:
    def test_crashes_once_at_the_kth_step_of_one_transaction(self, injector):
        target = SteppingTarget("s1")
        injector.register(target)
        injector.crash_before_step("s1", 2)
        seen = []
        target.subscribers.append(lambda kind, _site, txn, *_: seen.append((kind, txn)))
        target.emit("prepare", 1)  # not a step
        target.emit("step", 1)
        target.emit("step", 2)  # the first step of each transaction
        assert target.transitions == []
        target.emit("step", 2)
        assert target.transitions == ["crash"]
        assert [event.kind for event in injector.log] == ["crash"]
        # The later subscriber still saw the step the plan crashed before.
        assert seen == [("prepare", 1), ("step", 1), ("step", 2), ("step", 2)]
        injector.recover_now("s1")
        target.emit("step", 1)  # the plan is spent
        assert target.transitions == ["crash", "recover"]
        assert len(target.subscribers) == 1

    def test_unknown_site_rejected(self, injector):
        with pytest.raises(ConfigurationError):
            injector.crash_before_step("ghost", 1)
