"""Unit tests for offline schedulability / energy-feasibility analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedulability import (
    demand_bound,
    edf_schedulable,
    energy_feasibility,
    full_speed_energy_demand_rate,
    max_energy_deficit,
    min_energy_demand_rate,
)
from repro.energy.source import ConstantSource, DayNightSource
from repro.tasks.task import AperiodicTask, PeriodicTask, TaskSet
from repro.tasks.workload import generate_uunifast_taskset


class TestDemandBound:
    def test_zero_window(self):
        ts = TaskSet([PeriodicTask(period=10.0, wcet=2.0)])
        assert demand_bound(ts, 0.0) == 0.0

    def test_single_task_steps(self):
        ts = TaskSet([PeriodicTask(period=10.0, wcet=2.0)])
        assert demand_bound(ts, 9.99) == 0.0
        assert demand_bound(ts, 10.0) == 2.0
        assert demand_bound(ts, 19.99) == 2.0
        assert demand_bound(ts, 20.0) == 4.0

    def test_constrained_deadline(self):
        ts = TaskSet(
            [PeriodicTask(period=10.0, wcet=2.0, relative_deadline=5.0)]
        )
        assert demand_bound(ts, 5.0) == 2.0
        assert demand_bound(ts, 14.99) == 2.0
        assert demand_bound(ts, 15.0) == 4.0

    def test_additive_over_tasks(self):
        a = TaskSet([PeriodicTask(period=10.0, wcet=2.0, name="a")])
        b = TaskSet([PeriodicTask(period=15.0, wcet=3.0, name="b")])
        both = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=2.0, name="a"),
                PeriodicTask(period=15.0, wcet=3.0, name="b"),
            ]
        )
        for t in (0.0, 10.0, 15.0, 30.0, 100.0):
            assert demand_bound(both, t) == pytest.approx(
                demand_bound(a, t) + demand_bound(b, t)
            )

    def test_negative_window_rejected(self):
        ts = TaskSet([PeriodicTask(period=10.0, wcet=2.0)])
        with pytest.raises(ValueError):
            demand_bound(ts, -1.0)

    def test_aperiodic_rejected(self):
        ts = TaskSet([AperiodicTask(arrival=0.0, relative_deadline=5.0, wcet=1.0)])
        with pytest.raises(ValueError, match="all-periodic"):
            demand_bound(ts, 10.0)


class TestEdfSchedulable:
    def test_implicit_deadlines_utilization_bound(self):
        ok = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=5.0, name="a"),
                PeriodicTask(period=20.0, wcet=10.0, name="b"),
            ]
        )
        assert ok.utilization == pytest.approx(1.0)
        assert edf_schedulable(ok)

    def test_overutilized_fails(self):
        # Individually feasible (w <= p) but jointly over-utilized.
        bad = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=6.0, name="a"),
                PeriodicTask(period=10.0, wcet=6.0, name="b"),
            ]
        )
        assert not edf_schedulable(bad)

    def test_constrained_deadlines_feasible(self):
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=2.0, relative_deadline=5.0,
                             name="a"),
                PeriodicTask(period=20.0, wcet=4.0, relative_deadline=10.0,
                             name="b"),
            ]
        )
        assert edf_schedulable(ts)

    def test_constrained_deadlines_infeasible(self):
        # U = 0.9 < 1 but both demands concentrate in tight windows:
        # dbf(4) = 3 + 3 = 6 > 4.
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=3.0, relative_deadline=4.0,
                             name="a"),
                PeriodicTask(period=5.0, wcet=3.0, relative_deadline=4.0,
                             name="b"),
            ]
        )
        assert not edf_schedulable(ts)

    def test_arbitrary_deadlines_rejected(self):
        ts = TaskSet(
            [PeriodicTask(period=10.0, wcet=2.0, relative_deadline=15.0)]
        )
        with pytest.raises(ValueError, match="not supported"):
            edf_schedulable(ts)

    @given(
        n=st.integers(min_value=1, max_value=8),
        u=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_implicit_deadline_sets_always_schedulable(self, n, u, seed):
        """Any U <= 1 implicit-deadline set passes (Liu & Layland)."""
        ts = generate_uunifast_taskset(n_tasks=n, utilization=u, seed=seed)
        assert edf_schedulable(ts)


class TestEnergyDemandRates:
    def test_full_speed_rate(self, xscale):
        ts = TaskSet([PeriodicTask(period=10.0, wcet=4.0)])
        assert full_speed_energy_demand_rate(ts, xscale) == pytest.approx(
            0.4 * 3.2
        )

    def test_min_rate_uses_slowest_feasible_level(self, xscale):
        # w=4, d=10: slowest feasible level is S=0.4 (4/0.4 = 10 <= 10),
        # energy-per-work = 0.4/0.4 = 1.0 -> rate = 0.4 * 1.0.
        ts = TaskSet([PeriodicTask(period=10.0, wcet=4.0)])
        assert min_energy_demand_rate(ts, xscale) == pytest.approx(0.4)

    def test_min_rate_below_full_speed(self, xscale):
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=1.0, name="a"),
                PeriodicTask(period=50.0, wcet=10.0, name="b"),
            ]
        )
        assert min_energy_demand_rate(ts, xscale) < (
            full_speed_energy_demand_rate(ts, xscale)
        )

    def test_min_rate_full_speed_only_task(self, xscale):
        """A task with zero stretching room is charged at P_max."""
        ts = TaskSet(
            [PeriodicTask(period=10.0, wcet=4.0, relative_deadline=4.0)]
        )
        assert min_energy_demand_rate(ts, xscale) == pytest.approx(0.4 * 3.2)


class TestEnergyFeasibility:
    def test_abundant_source(self, xscale):
        ts = TaskSet([PeriodicTask(period=10.0, wcet=4.0)])
        fx = energy_feasibility(ts, ConstantSource(10.0), xscale)
        assert fx.feasible_at_full_speed
        assert fx.feasible_with_dvfs
        assert fx.headroom == pytest.approx(10.0 - 1.28)

    def test_dvfs_only_regime(self, xscale):
        """Source covers the stretched demand but not full speed."""
        ts = TaskSet([PeriodicTask(period=10.0, wcet=4.0)])
        fx = energy_feasibility(ts, ConstantSource(0.8), xscale)
        assert not fx.feasible_at_full_speed
        assert fx.feasible_with_dvfs

    def test_hopeless_regime(self, xscale):
        ts = TaskSet([PeriodicTask(period=10.0, wcet=4.0)])
        fx = energy_feasibility(ts, ConstantSource(0.1), xscale)
        assert not fx.feasible_at_full_speed
        assert not fx.feasible_with_dvfs


class TestMaxEnergyDeficit:
    def test_constant_surplus_has_no_deficit(self):
        assert max_energy_deficit(ConstantSource(5.0), 2.0, 100.0) == 0.0

    def test_constant_shortfall_grows_linearly(self):
        deficit = max_energy_deficit(ConstantSource(1.0), 2.0, 100.0)
        assert deficit == pytest.approx(100.0)

    def test_day_night_deficit_is_one_night(self):
        source = DayNightSource(day_power=4.0, night_power=0.0,
                                day_length=50.0, night_length=50.0)
        # demand 1.0: deficit accumulates 1.0/unit for 50 night units.
        deficit = max_energy_deficit(source, 1.0, 300.0)
        assert deficit == pytest.approx(50.0, rel=0.05)

    def test_deficit_bounds_simulated_capacity(self, xscale):
        """A storage below the deficit cannot avoid stalls in simulation."""
        from repro.energy.predictor import OraclePredictor
        from repro.energy.storage import IdealStorage
        from repro.sched.edf import GreedyEdfScheduler
        from repro.sim.simulator import (
            HarvestingRtSimulator,
            SimulationConfig,
        )

        source = DayNightSource(day_power=4.0, night_power=0.0,
                                day_length=50.0, night_length=50.0)
        ts = TaskSet([PeriodicTask(period=10.0, wcet=4.0)])  # draws 1.28
        deficit = max_energy_deficit(source, 1.28, 400.0)
        sim = HarvestingRtSimulator(
            taskset=ts,
            source=source,
            storage=IdealStorage(capacity=deficit / 2),
            scheduler=GreedyEdfScheduler(xscale),
            predictor=OraclePredictor(source),
            config=SimulationConfig(horizon=400.0),
        )
        assert sim.run().stall_count > 0

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            max_energy_deficit(ConstantSource(1.0), -1.0, 10.0)
        with pytest.raises(ValueError):
            max_energy_deficit(ConstantSource(1.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            max_energy_deficit(ConstantSource(1.0), 1.0, 10.0, quantum=0.0)
