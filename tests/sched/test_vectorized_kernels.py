"""Property tests: vectorized decision kernels vs the scalar oracles.

The batch engine's contract (``docs/batch-simulation.md``) is that every
kernel performs the *same* IEEE float64 operations in the *same* order
as its scalar counterpart, element-wise.  These tests enforce the
contract at the kernel level: random lane vectors are pushed through
:mod:`repro.sched.vectorized` and every lane is re-derived with the
scalar functions (:func:`repro.core.slowdown.compute_plan`, the analytic
oracles of :mod:`repro.verify.oracles`, :func:`repro.timeutils.time_le`)
— comparisons are bit-exact, not approximate.

Also pinned here: the numpy facts the engine's bit-exactness argument
rests on (row-wise ``np.cumsum`` accumulates strictly left to right;
masked ``+ 0.0`` never perturbs a float64 accumulator; ``np.mod``,
``np.nextafter`` and ``astype(int64)`` match their scalar twins; array
``np.power`` does *not* and is banned from the kernels), so a numpy
behaviour change fails loudly instead of silently skewing energies.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slowdown import compute_plan
from repro.cpu.presets import xscale_pxa
from repro.sched.vectorized import (
    SCHED_EA_DVFS,
    SCHED_EA_DVFS_NOSLOWDOWN,
    SCHED_EDF,
    SCHED_LSA,
    SCHEDULER_KINDS,
    batch_compute_plan,
    batch_decide,
    batch_min_feasible_level,
    batch_time_le,
)
from repro.sched.registry import available_schedulers
from repro.tasks.job import Job
from repro.tasks.task import PeriodicTask
from repro.timeutils import time_le
from repro.verify.oracles import (
    expected_ea_dvfs_decision,
    expected_lazy_decision,
)

SCALE = xscale_pxa()
SPEEDS = np.asarray([level.speed for level in SCALE.levels])
POWERS = np.asarray([level.power for level in SCALE.levels])


def _tile(row: np.ndarray, n: int) -> np.ndarray:
    return np.tile(row, (n, 1))


# -- lane strategies ------------------------------------------------------

finite_times = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
windows = st.floats(
    min_value=-50.0, max_value=500.0, allow_nan=False, allow_infinity=False
)
works = st.floats(
    min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False
)
energies = st.one_of(
    st.floats(
        min_value=-10.0, max_value=2000.0,
        allow_nan=False, allow_infinity=False,
    ),
    st.just(math.inf),
    st.just(0.0),
)

lanes = st.lists(
    st.tuples(finite_times, windows, works, energies),
    min_size=1, max_size=24,
)


class _FixedOutlook:
    """EnergyOutlook stub returning a predetermined available energy."""

    def __init__(self, available: float, full: bool = False) -> None:
        self._available = available
        self.storage_is_full = full

    def available_until(self, now: float, until: float) -> float:
        return self._available


def _job(now: float, deadline: float, work: float) -> Job:
    task = PeriodicTask(period=1000.0, wcet=max(work, 1e-6), name="t0")
    return Job(
        task,
        release=0.0,
        absolute_deadline=deadline,
        wcet=max(work, 1e-6),
    )


# -- batch_compute_plan vs compute_plan -----------------------------------


@settings(max_examples=200, deadline=None)
@given(lanes)
def test_batch_compute_plan_matches_scalar(lane_params):
    n = len(lane_params)
    now = np.asarray([p[0] for p in lane_params])
    deadline = now + np.asarray([p[1] for p in lane_params])
    work = np.asarray([p[2] for p in lane_params])
    energy = np.asarray([p[3] for p in lane_params])
    plan = batch_compute_plan(
        now, deadline, work, energy, _tile(SPEEDS, n), _tile(POWERS, n)
    )
    for i in range(n):
        scalar = compute_plan(
            float(now[i]), float(deadline[i]), float(work[i]),
            float(energy[i]), SCALE,
        )
        level = SCALE.levels[int(plan.level[i])]
        # Bit-exact on purpose: both sides perform identical float64
        # operations, so any difference is a real kernel divergence.
        assert level == scalar.level
        assert plan.s1[i] == scalar.s1  # repro-lint: disable=RPR102 -- bit-exact kernel contract
        assert plan.s2[i] == scalar.s2  # repro-lint: disable=RPR102 -- bit-exact kernel contract
        assert plan.start_at[i] == scalar.start_at  # repro-lint: disable=RPR102 -- bit-exact kernel contract
        if scalar.switch_to_max_at is None:
            assert math.isnan(plan.switch_at[i])
        else:
            assert plan.switch_at[i] == scalar.switch_to_max_at  # repro-lint: disable=RPR102 -- bit-exact kernel contract
        assert bool(plan.sufficient_energy[i]) == scalar.sufficient_energy
        assert bool(plan.deadline_reachable[i]) == scalar.deadline_reachable


@settings(max_examples=100, deadline=None)
@given(lanes)
def test_batch_min_feasible_level_matches_scale(lane_params):
    n = len(lane_params)
    work = np.asarray([p[2] for p in lane_params])
    window = np.asarray([p[1] for p in lane_params])
    index = batch_min_feasible_level(work, window, _tile(SPEEDS, n))
    for i in range(n):
        scalar = SCALE.min_feasible_level(float(work[i]), float(window[i]))
        if scalar is None:
            assert index[i] == -1
        else:
            assert SCALE.levels[int(index[i])] == scalar


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite_times, windows), min_size=1, max_size=32))
def test_batch_time_le_matches_scalar(pairs):
    a = np.asarray([p[0] for p in pairs])
    b = a + np.asarray([p[1] for p in pairs])
    result = batch_time_le(a, b)
    for i in range(len(pairs)):
        assert bool(result[i]) == time_le(float(a[i]), float(b[i]))


# -- batch_decide vs the analytic decision oracles ------------------------


@settings(max_examples=200, deadline=None)
@given(
    lanes,
    st.lists(
        st.sampled_from(sorted(SCHEDULER_KINDS.values())),
        min_size=24, max_size=24,
    ),
    st.lists(st.booleans(), min_size=24, max_size=24),
)
def test_batch_decide_matches_decision_oracles(lane_params, kinds, fulls):
    # Scalar deciders require live jobs: positive work, deadline after
    # release.  The deadline-passed and zero-work paths are exercised by
    # the simulator-level equivalence suite instead.
    lane_params = [
        (now, window, work, energy)
        for now, window, work, energy in lane_params
        if window > 1e-6 and work > 1e-6  # repro-lint: disable=RPR101 -- strategy filter, not a semantic compare
    ]
    if not lane_params:
        return
    n = len(lane_params)
    now = np.asarray([p[0] for p in lane_params])
    deadline = now + np.asarray([p[1] for p in lane_params])
    work = np.asarray([p[2] for p in lane_params])
    energy = np.asarray([p[3] for p in lane_params])
    kind = np.asarray(kinds[:n], dtype=np.int64)
    full = np.asarray(fulls[:n], dtype=np.bool_)
    decision = batch_decide(
        kind, now, deadline, work,
        np.where(energy < 0.0, 0.0, energy),  # repro-lint: disable=RPR101 -- exact clamp, mirrors outlooks
        full, _tile(SPEEDS, n), _tile(POWERS, n),
    )
    for i in range(n):
        job = _job(float(now[i]), float(deadline[i]), float(work[i]))
        outlook = _FixedOutlook(
            max(0.0, float(energy[i])), full=bool(full[i])
        )
        if kind[i] == SCHED_EDF:
            expected = None  # always run at max speed
        elif kind[i] == SCHED_EA_DVFS:
            expected = expected_ea_dvfs_decision(
                float(now[i]), job, outlook, SCALE
            )
        else:  # LSA and EA-DVFS-noslowdown share the s2-only rule
            expected = expected_lazy_decision(
                float(now[i]), job, outlook, SCALE
            )
        if expected is None or not expected.is_idle:
            assert bool(decision.run[i]), f"lane {i}: expected run, got idle"
            level = SCALE.levels[int(decision.level[i])]
            if expected is None:
                assert level == SCALE.max_level
            else:
                assert level == expected.level
                if expected.switch_to_max_at is None:
                    assert math.isnan(decision.switch_at[i])
                else:
                    assert decision.switch_at[i] == expected.switch_to_max_at  # repro-lint: disable=RPR102 -- bit-exact kernel contract
        else:
            assert not bool(decision.run[i]), (
                f"lane {i}: expected idle until "
                f"{expected.reconsider_at!r}, got run"
            )
            assert decision.reconsider_at[i] == expected.reconsider_at  # repro-lint: disable=RPR102 -- bit-exact kernel contract


# -- edge cases -----------------------------------------------------------


class TestEdgeCases:
    def test_empty_batch(self):
        empty = np.zeros(0)
        plan = batch_compute_plan(
            empty, empty, empty, empty, np.zeros((0, 5)), np.zeros((0, 5))
        )
        assert plan.level.shape == (0,)
        decision = batch_decide(
            np.zeros(0, dtype=np.int64), empty, empty, empty, empty,
            np.zeros(0, dtype=np.bool_), np.zeros((0, 5)), np.zeros((0, 5)),
        )
        assert decision.run.shape == (0,)

    def test_batch_of_one_matches_scalar(self):
        plan = batch_compute_plan(
            np.asarray([10.0]), np.asarray([60.0]), np.asarray([8.0]),
            np.asarray([40.0]), _tile(SPEEDS, 1), _tile(POWERS, 1),
        )
        scalar = compute_plan(10.0, 60.0, 8.0, 40.0, SCALE)
        assert SCALE.levels[int(plan.level[0])] == scalar.level
        assert plan.s1[0] == scalar.s1  # repro-lint: disable=RPR102 -- bit-exact kernel contract
        assert plan.s2[0] == scalar.s2  # repro-lint: disable=RPR102 -- bit-exact kernel contract

    def test_all_lanes_miss_run_best_effort_at_max(self):
        # Deadlines already passed: unreachable lanes run at full speed
        # (the scalar best-effort plan) instead of idling forever.
        n = 4
        now = np.full(n, 100.0)
        deadline = np.full(n, 90.0)
        work = np.full(n, 5.0)
        energy = np.full(n, 1000.0)
        kind = np.asarray(
            sorted(SCHEDULER_KINDS.values()), dtype=np.int64
        )
        decision = batch_decide(
            kind, now, deadline, work, energy,
            np.zeros(n, dtype=np.bool_), _tile(SPEEDS, n), _tile(POWERS, n),
        )
        # LSA's rule is energy-only (it never checks reachability): with
        # plentiful energy it still dispatches immediately.
        assert decision.run.all()
        assert (decision.level == len(SCALE.levels) - 1).all()

    def test_storage_pinned_at_zero_idles_until_deadline(self):
        # No stored energy and no predicted harvest: every energy-aware
        # policy waits; s1 == s2 == deadline.
        n = 3
        now = np.zeros(n)
        deadline = np.full(n, 50.0)
        work = np.full(n, 5.0)
        energy = np.zeros(n)
        kind = np.asarray(
            [SCHED_LSA, SCHED_EA_DVFS, SCHED_EA_DVFS_NOSLOWDOWN],
            dtype=np.int64,
        )
        decision = batch_decide(
            kind, now, deadline, work, energy,
            np.zeros(n, dtype=np.bool_), _tile(SPEEDS, n), _tile(POWERS, n),
        )
        assert not decision.run.any()
        assert (decision.reconsider_at == 50.0).all()  # repro-lint: disable=RPR101 -- exact: idle waits to the deadline instant

    def test_storage_pinned_at_capacity_fast_path(self):
        # EA-DVFS's full-storage fast path runs at max even when the
        # reported outlook would otherwise stretch.
        decision = batch_decide(
            np.asarray([SCHED_EA_DVFS], dtype=np.int64),
            np.zeros(1), np.asarray([50.0]), np.asarray([5.0]),
            np.asarray([10.0]),
            np.ones(1, dtype=np.bool_),
            _tile(SPEEDS, 1), _tile(POWERS, 1),
        )
        assert decision.run[0]
        assert decision.level[0] == len(SCALE.levels) - 1
        assert math.isnan(decision.switch_at[0])

    def test_scheduler_kinds_cover_registry_names(self):
        assert set(SCHEDULER_KINDS) <= set(available_schedulers())


# -- numpy facts the engine's bit-exactness argument rests on -------------


class TestNumpyAccumulationContract:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=200,
        )
    )
    def test_cumsum_accumulates_left_to_right(self, values):
        """``np.cumsum`` rounds once per element in walk order.

        ``repro.sim.batch._quantized_energy`` relies on this to keep
        batch energy totals bit-equal to the scalar segment walk.
        """
        row = np.asarray(values)
        total = 0.0
        for value in values:
            total += value
        assert np.cumsum(row)[-1] == total

        block = np.tile(row, (3, 1))
        assert (np.cumsum(block, axis=1)[:, -1] == total).all()

    def test_masked_zero_add_is_identity(self):
        rng = np.random.default_rng(1234)
        values = rng.standard_normal(500) * 1e3
        contribution = np.where(
            np.arange(500) % 2 == 0, values, 0.0
        )
        total = 0.0
        for i in range(0, 500, 2):
            total += values[i]
        assert np.cumsum(contribution)[-1] == total

    def test_rng_vector_draw_matches_sequential(self):
        """One vectorized draw == n sequential draws (same seed).

        The array job-generation path depends on this equivalence for
        stochastic sources.
        """
        vector = np.random.default_rng(7).standard_normal(64)
        sequential = np.asarray(
            [np.random.default_rng(7).standard_normal(64)[i]
             for i in range(64)]
        )
        assert (vector == sequential).all()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6),
                st.floats(min_value=1e-9, max_value=1e6),
            ),
            min_size=1, max_size=100,
        )
    )
    def test_mod_matches_python_for_nonnegative(self, pairs):
        """``np.mod`` == ``%`` on non-negative operands.

        The profile-predictor bin walk
        (:func:`repro.energy.vectorized._profile_walk`) folds
        ``t0`` into the cycle with ``np.mod`` where the scalar predictor
        uses ``%``.
        """
        a = np.asarray([p[0] for p in pairs])
        b = np.asarray([p[1] for p in pairs])
        out = np.mod(a, b)
        for x, y, o in zip(a.tolist(), b.tolist(), out.tolist()):
            assert o == x % y

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9),
            min_size=1, max_size=100,
        ),
        st.booleans(),
    )
    def test_nextafter_matches_math(self, values, upward):
        """``np.nextafter`` == ``math.nextafter`` (the tail snap).

        ``_batch_snap_tail`` nudges final segment durations by ulps to
        restore exact window coverage, mirroring the scalar
        ``_snap_tail`` loop.
        """
        target = math.inf if upward else -math.inf
        row = np.asarray(values)
        out = np.nextafter(row, target)
        for x, o in zip(values, out.tolist()):
            assert o == math.nextafter(x, target)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e15),
            min_size=1, max_size=100,
        )
    )
    def test_astype_int64_truncates_like_int(self, values):
        """``.astype(np.int64)`` == ``int()`` for non-negative floats.

        The bin walk derives each lane's starting bin by truncating
        ``position / bin_width`` exactly as the scalar predictor's
        ``int(...)`` does.
        """
        row = np.asarray(values)
        out = row.astype(np.int64)
        for x, o in zip(values, out.tolist()):
            assert o == int(x)

    def test_array_power_not_trusted_for_ewma(self):
        """numpy's vectorized ``np.power`` is NOT bit-compatible with
        ``**`` — a SIMD path deviates from libm ``pow`` by one ulp on a
        few percent of inputs (observed on numpy 2.4.6).  The EWMA decay
        factors therefore route through
        :func:`repro.energy.vectorized._libm_pow` (element-wise libm),
        which IS bit-compatible.  If the first assertion ever fails,
        np.power became bit-exact and ``_libm_pow`` can be retired.

        The static side of this contract is RPR402: ``np.power`` sits in
        ``repro.lint.rules_numpy.DEFAULT_DIVERGENT_UFUNCS``, so a
        doctrine module cannot call it without a justified suppression.
        Retiring ``_libm_pow`` therefore takes one PR that (1) shows
        this canary's divergence assertion failing, (2) drops ``power``/
        ``float_power`` from the ufunc table, and (3) refreshes the
        affected parity pins (``python -m repro.lint.parity --print``) —
        the ``pow`` vs ``pow[simd]`` fingerprint tokens are deliberately
        distinct so the swap cannot happen silently.
        """
        from repro.energy.vectorized import _libm_pow

        rng = np.random.default_rng(42)
        base = rng.uniform(0.0, 1.0, size=20000)
        expo = rng.uniform(0.0, 30.0, size=20000)
        simd = np.power(base, expo)
        libm = _libm_pow(base, expo)
        assert (simd != libm).any()
        for b, e, o in zip(
            base[:2000].tolist(), expo[:2000].tolist(), libm[:2000].tolist()
        ):
            assert o == b**e
