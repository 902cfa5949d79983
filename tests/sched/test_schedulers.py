"""Unit tests for the baseline schedulers and the decision protocol."""

import math

import pytest

from repro.energy.predictor import OraclePredictor
from repro.energy.source import ConstantSource
from repro.energy.storage import IdealStorage
from repro.sched.base import Decision, EnergyOutlook
from repro.sched.edf import GreedyEdfScheduler, StretchEdfScheduler
from repro.sched.lsa import LazyScheduler
from repro.tasks.job import Job
from repro.tasks.queue import EdfReadyQueue
from repro.tasks.task import AperiodicTask


def make_ready(*specs):
    queue = EdfReadyQueue()
    for release, deadline, wcet, name in specs:
        task = AperiodicTask(
            arrival=release, relative_deadline=deadline - release,
            wcet=wcet, name=name,
        )
        job = Job(task=task, release=release, absolute_deadline=deadline,
                  wcet=wcet)
        job.mark_released()
        queue.push(job)
    return queue


def outlook(stored, capacity=1000.0, harvest=0.0):
    storage = IdealStorage(capacity=capacity, initial=stored)
    return EnergyOutlook(storage, OraclePredictor(ConstantSource(harvest)))


class TestDecisionValidation:
    def test_idle_cannot_carry_level(self, xscale):
        with pytest.raises(ValueError, match="idle decision"):
            Decision(job=None, level=xscale.max_level)

    def test_dispatch_requires_level(self):
        queue = make_ready((0.0, 10.0, 1.0, "t"))
        with pytest.raises(ValueError, match="requires a level"):
            Decision(job=queue.peek(), level=None)

    def test_nan_reconsider_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Decision.idle(reconsider_at=math.nan)

    def test_factories(self, xscale):
        queue = make_ready((0.0, 10.0, 1.0, "t"))
        idle = Decision.idle(reconsider_at=5.0)
        assert idle.is_idle and idle.reconsider_at == 5.0
        run = Decision.run(queue.peek(), xscale.max_level)
        assert not run.is_idle


class TestLazyScheduler:
    def test_empty_queue_idles(self, two_speed):
        decision = LazyScheduler(two_speed).decide(
            0.0, EdfReadyQueue(), outlook(10.0)
        )
        assert decision.is_idle

    def test_motivational_start_time(self, two_speed):
        """Section 2: LSA starts tau1 at time 12 (s* = 16 - 32/8)."""
        ready = make_ready((0.0, 16.0, 4.0, "tau1"))
        decision = LazyScheduler(two_speed).decide(
            0.0, ready, outlook(24.0, harvest=0.5)
        )
        assert decision.is_idle
        assert decision.reconsider_at == pytest.approx(12.0)

    def test_starts_when_budget_reached(self, two_speed):
        ready = make_ready((0.0, 16.0, 4.0, "tau1"))
        # At t=12 with exact prediction: E_avail = 30 + 0.5*4 = 32,
        # sr_max = 4, s* = max(12, 12) = 12 -> dispatch now.
        decision = LazyScheduler(two_speed).decide(
            12.0, ready, outlook(30.0, harvest=0.5)
        )
        assert not decision.is_idle
        assert decision.level.speed == 1.0

    def test_always_full_speed(self, xscale):
        ready = make_ready((0.0, 100.0, 1.0, "t"))
        decision = LazyScheduler(xscale).decide(0.0, ready, outlook(1000.0))
        assert decision.level.speed == 1.0
        assert decision.switch_to_max_at is None

    def test_infinite_energy_immediate(self, xscale):
        storage = IdealStorage(capacity=math.inf, initial=math.inf)
        view = EnergyOutlook(storage, OraclePredictor(ConstantSource(0.0)))
        ready = make_ready((0.0, 100.0, 1.0, "t"))
        decision = LazyScheduler(xscale).decide(0.0, ready, view)
        assert not decision.is_idle


class TestGreedyEdf:
    def test_dispatches_immediately_regardless_of_energy(self, xscale):
        ready = make_ready((0.0, 100.0, 1.0, "t"))
        decision = GreedyEdfScheduler(xscale).decide(0.0, ready, outlook(0.0))
        assert not decision.is_idle
        assert decision.level.speed == 1.0

    def test_edf_priority(self, xscale):
        ready = make_ready((0.0, 50.0, 1.0, "late"), (0.0, 10.0, 1.0, "early"))
        decision = GreedyEdfScheduler(xscale).decide(0.0, ready, outlook(10.0))
        assert decision.job.task.name == "early"

    def test_empty_queue_idles(self, xscale):
        assert GreedyEdfScheduler(xscale).decide(
            0.0, EdfReadyQueue(), outlook(10.0)
        ).is_idle


class TestStretchEdf:
    def test_picks_min_feasible_level(self, xscale):
        # work 4 in window 16 -> S = 0.4 on the XScale ladder.
        ready = make_ready((0.0, 16.0, 4.0, "t"))
        decision = StretchEdfScheduler(xscale).decide(0.0, ready, outlook(0.0))
        assert decision.level.speed == pytest.approx(0.4)
        assert decision.switch_to_max_at is None

    def test_full_speed_when_nothing_slower_fits(self, xscale):
        ready = make_ready((0.0, 10.0, 9.0, "t"))
        decision = StretchEdfScheduler(xscale).decide(0.0, ready, outlook(0.0))
        assert decision.level.speed == 1.0

    def test_best_effort_on_unreachable_deadline(self, xscale):
        # Feasible at release; unreachable once the window shrank below
        # the remaining work.
        ready = make_ready((0.0, 10.0, 3.0, "t"))
        decision = StretchEdfScheduler(xscale).decide(8.0, ready, outlook(0.0))
        assert decision.level.speed == 1.0

    def test_window_shrinks_as_time_passes(self, xscale):
        ready = make_ready((0.0, 16.0, 4.0, "t"))
        scheduler = StretchEdfScheduler(xscale)
        at_zero = scheduler.decide(0.0, ready, outlook(0.0))
        at_ten = scheduler.decide(10.0, ready, outlook(0.0))
        assert at_ten.level.speed > at_zero.level.speed


class TestRegistry:
    def test_all_builtins_available(self):
        from repro.sched.registry import available_schedulers

        assert set(available_schedulers()) >= {
            "ea-dvfs", "lsa", "edf", "stretch-edf",
        }

    def test_make_scheduler(self, xscale):
        from repro.sched.registry import make_scheduler

        scheduler = make_scheduler("lsa", xscale)
        assert isinstance(scheduler, LazyScheduler)
        assert scheduler.scale is xscale

    def test_unknown_name_rejected(self, xscale):
        from repro.sched.registry import make_scheduler

        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("nope", xscale)


class TestRegistryErrors:
    @pytest.fixture
    def registry(self):
        import repro.sched.registry as registry

        yield registry
        # Drop anything a test registered so state cannot leak.
        for name in list(registry._FACTORIES):
            if name.startswith("test-"):
                registry.unregister_scheduler(name)

    def test_duplicate_registration_lists_names(self, registry):
        registry.register_scheduler("test-dup", LazyScheduler)
        with pytest.raises(ValueError, match="already registered") as excinfo:
            registry.register_scheduler("test-dup", LazyScheduler)
        assert "test-dup" in str(excinfo.value)
        assert "lsa" in str(excinfo.value)  # the listing names the others

    def test_builtin_names_are_reserved(self, registry):
        with pytest.raises(ValueError, match="already registered"):
            registry.register_scheduler("lsa", LazyScheduler)

    def test_empty_or_non_string_name_rejected(self, registry):
        with pytest.raises(ValueError, match="non-empty string"):
            registry.register_scheduler("", LazyScheduler)
        with pytest.raises(ValueError, match="non-empty string"):
            registry.register_scheduler(None, LazyScheduler)

    def test_unregister_unknown_lists_available(self, registry):
        with pytest.raises(ValueError, match="unknown scheduler") as excinfo:
            registry.unregister_scheduler("test-ghost")
        assert "lsa" in str(excinfo.value)

    def test_register_unregister_round_trip(self, registry, xscale):
        registry.register_scheduler("test-custom", LazyScheduler)
        assert "test-custom" in registry.available_schedulers()
        assert isinstance(
            registry.make_scheduler("test-custom", xscale), LazyScheduler
        )
        registry.unregister_scheduler("test-custom")
        assert "test-custom" not in registry.available_schedulers()

    def test_early_registration_does_not_suppress_builtins(self, registry):
        # A custom registration arriving before any lookup must still
        # leave every built-in available (the lazy-load guard is a flag,
        # not "is the table empty").
        registry.register_scheduler("test-early", LazyScheduler)
        assert {"ea-dvfs", "lsa", "edf"} <= set(registry.available_schedulers())


class TestEnergyOutlook:
    def test_available_until_sums_stored_and_prediction(self):
        view = outlook(10.0, harvest=2.0)
        assert view.available_until(0.0, 5.0) == pytest.approx(20.0)

    def test_available_until_past_deadline_is_stored_only(self):
        """Regression: a job past its deadline (CONTINUE policy) queries a
        reversed interval; the harvest term must be zero, not an error."""
        view = outlook(10.0, harvest=2.0)
        assert view.available_until(11.0, 10.0) == pytest.approx(10.0)

    def test_schedulers_handle_past_deadline_jobs(self, xscale):
        """LSA and EA-DVFS dispatch overdue jobs at full speed."""
        from repro.core.ea_dvfs import EaDvfsScheduler

        ready = make_ready((0.0, 10.0, 3.0, "overdue"))
        for scheduler in (LazyScheduler(xscale), EaDvfsScheduler(xscale)):
            decision = scheduler.decide(11.0, ready, outlook(100.0))
            assert not decision.is_idle
            assert decision.level.speed == 1.0

    def test_infinite_stored_is_infinite(self):
        storage = IdealStorage(capacity=math.inf, initial=math.inf)
        view = EnergyOutlook(storage, OraclePredictor(ConstantSource(1.0)))
        assert math.isinf(view.available_until(0.0, 5.0))

    def test_storage_passthroughs(self):
        view = outlook(30.0, capacity=100.0)
        assert view.stored == 30.0
        assert view.capacity == 100.0
        assert not view.storage_is_full
