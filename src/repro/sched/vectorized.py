"""Vectorized decision kernels mirroring the scalar scheduling policies.

These kernels reproduce, lane by lane, the float arithmetic of the
scalar deciders — :class:`repro.core.ea_dvfs.EaDvfsScheduler` (both
slowdown variants, eqs. (5)–(9) via :func:`repro.core.slowdown.
compute_plan`), :class:`repro.sched.lsa.LazyScheduler` and
:class:`repro.sched.edf.GreedyEdfScheduler` — over a batch of scenarios
at once.  A "lane" is one scenario that needs a decision now; inputs
are one numpy float64 entry per lane.

Bit-exactness doctrine: every operation below performs the *same* IEEE
float64 arithmetic in the *same* order as its scalar counterpart, just
element-wise.  numpy's float64 scalar kernels match CPython's float
semantics operation-for-operation, so a lane pushed through these
kernels yields bit-identical ``s1``/``s2``/``sr`` instants and identical
branch outcomes to the scalar scheduler.  This is what the differential
equivalence suite (``tests/sim/test_batch_equivalence.py``) and the
Hypothesis property tests (``tests/sched/test_vectorized_kernels.py``)
enforce.  See ``docs/batch-simulation.md``.
"""

# repro: float-doctrine -- the RPR4xx bit-exactness rules apply here.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.timeutils import EPSILON

__all__ = [
    "SCHEDULER_KINDS",
    "SCHED_EDF",
    "SCHED_LSA",
    "SCHED_EA_DVFS",
    "SCHED_EA_DVFS_NOSLOWDOWN",
    "BatchDecision",
    "BatchPlan",
    "batch_compute_plan",
    "batch_decide",
    "batch_min_feasible_level",
    "batch_time_le",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

#: Scheduler kind codes carried per lane, so heterogeneous batches (one
#: scenario on EDF, the next on EA-DVFS) decide in a single call.
SCHED_EDF = 0
SCHED_LSA = 1
SCHED_EA_DVFS = 2
SCHED_EA_DVFS_NOSLOWDOWN = 3

#: Registry names (see ``repro.sched.registry``) the kernels cover.
SCHEDULER_KINDS: dict[str, int] = {
    "edf": SCHED_EDF,
    "lsa": SCHED_LSA,
    "ea-dvfs": SCHED_EA_DVFS,
    "ea-dvfs-noslowdown": SCHED_EA_DVFS_NOSLOWDOWN,
}


def batch_time_le(a: FloatArray, b: FloatArray, eps: float = EPSILON) -> BoolArray:
    """Element-wise :func:`repro.timeutils.time_le` (``time_cmp <= 0``).

    Mirrors the scalar short-circuit exactly: equal bits compare equal,
    a difference within ``eps`` counts as equal, otherwise the sign of
    the single-rounded difference decides.
    """
    diff = a - b
    equal = (a == b) | (np.abs(diff) <= eps)
    result: BoolArray = equal | (diff < 0.0)
    return result


def batch_min_feasible_level(
    work: FloatArray, window: FloatArray, speeds: FloatArray
) -> IntArray:
    """Element-wise :meth:`repro.cpu.dvfs.FrequencyScale.min_feasible_level`.

    ``speeds`` is ``(lanes, levels)`` ascending per lane.  Returns the
    index of the slowest level finishing ``work`` within ``window``
    (scalar rule: first level with ``work / speed <= window + EPSILON``),
    or ``-1`` where no level is feasible or the window is negative.
    ``work`` must be non-negative (the scalar method raises; callers
    guarantee it here).
    """
    # One (lanes, levels) comparison; argmax picks the first feasible
    # column, i.e. the slowest feasible level, like the scalar scan.
    fits = work[:, None] / speeds <= (window + EPSILON)[:, None]
    window_ok = window >= 0.0  # repro-lint: disable=RPR101 -- exact sign gate, mirrors the scalar raise
    index: IntArray = np.where(
        window_ok & fits.any(axis=1), fits.argmax(axis=1), -1
    )
    return index


@dataclass(frozen=True)
class BatchPlan:
    """Array-of-lanes twin of :class:`repro.core.slowdown.SlowdownPlan`.

    ``switch_at`` uses NaN where the scalar plan carries ``None`` (no
    planned speed-up).  ``level`` already resolves the scalar fallback:
    it holds the max-level index for unreachable deadlines and for the
    degenerate single-phase case.
    """

    level: IntArray
    s1: FloatArray
    s2: FloatArray
    start_at: FloatArray
    switch_at: FloatArray
    sufficient_energy: BoolArray
    deadline_reachable: BoolArray


def batch_compute_plan(
    now: FloatArray,
    deadline: FloatArray,
    remaining_work: FloatArray,
    available_energy: FloatArray,
    speeds: FloatArray,
    powers: FloatArray,
) -> BatchPlan:
    """Element-wise :func:`repro.core.slowdown.compute_plan` (eqs. (5)–(9)).

    ``speeds``/``powers`` are ``(lanes, levels)`` ascending; the last
    column is the max level.  Negative available energy clamps to zero,
    infinite energy degenerates to the immediate-max-speed plan, exactly
    as in the scalar function.
    """
    n_lanes, n_levels = speeds.shape
    max_index = n_levels - 1
    energy = np.where(available_energy < 0.0, 0.0, available_energy)  # repro-lint: disable=RPR101 -- exact clamp mirror
    window = deadline - now
    feasible = batch_min_feasible_level(remaining_work, window, speeds)
    reachable = feasible >= 0
    level_index = np.where(reachable, feasible, max_index)
    lanes = np.arange(n_lanes)
    power_n = powers[lanes, level_index]
    power_max = powers[:, max_index]
    # inf / P == inf, so the scalar's isinf() short-circuit computes the
    # same values this division does.
    sr_n = energy / power_n
    sr_max = energy / power_max
    s1 = np.where(reachable, np.maximum(now, deadline - sr_n), now)
    s2 = np.where(reachable, np.maximum(now, deadline - sr_max), now)
    single_phase = reachable & (s2 - s1 <= EPSILON)
    plan_level = np.where(single_phase | ~reachable, max_index, level_index)
    start_at = np.where(reachable, np.where(single_phase, s2, s1), now)
    switch_at = np.where(reachable & ~single_phase, s2, np.nan)
    sufficient = single_phase & (s2 - now <= EPSILON)
    return BatchPlan(
        level=plan_level.astype(np.int64),
        s1=s1,
        s2=s2,
        start_at=start_at,
        switch_at=switch_at,
        sufficient_energy=sufficient,
        deadline_reachable=reachable,
    )


@dataclass(frozen=True)
class BatchDecision:
    """Array-of-lanes twin of :class:`repro.sched.base.Decision`.

    ``run`` False means idle; ``level`` is ``-1`` for idle lanes;
    ``switch_at`` NaN means no planned switch; ``reconsider_at`` is
    ``+inf`` where the scalar decision carries no revisit instant.
    """

    run: BoolArray
    level: IntArray
    switch_at: FloatArray
    reconsider_at: FloatArray


def batch_decide(
    kind: IntArray,
    now: FloatArray,
    deadline: FloatArray,
    remaining_work: FloatArray,
    available_energy: FloatArray,
    storage_full: BoolArray,
    speeds: FloatArray,
    powers: FloatArray,
) -> BatchDecision:
    """Decide for every lane; each lane must hold an EDF-earliest job.

    ``kind`` selects the policy per lane (``SCHEDULER_KINDS`` codes);
    ``available_energy`` is the lane's ``EnergyOutlook.available_until``
    value at the job's deadline (ignored by EDF lanes); ``storage_full``
    feeds EA-DVFS's full-storage fast path.  Branch precedence follows
    each scalar ``decide`` verbatim.
    """
    n_lanes = now.shape[0]
    max_index = speeds.shape[1] - 1
    run = np.ones(n_lanes, dtype=np.bool_)
    level = np.full(n_lanes, max_index, dtype=np.int64)
    switch_at = np.full(n_lanes, np.nan)
    reconsider_at = np.full(n_lanes, np.inf)

    def _idle(rows: IntArray, at: FloatArray) -> None:
        run[rows] = False
        level[rows] = -1
        reconsider_at[rows] = at

    # -- lsa: wait until the max-speed start instant --------------------
    lsa = kind == SCHED_LSA
    if lsa.any():
        # isinf(available) yields start == now here, matching the scalar
        # early return to run-at-max.
        start = np.maximum(
            now, deadline - available_energy / powers[:, max_index]
        )
        wait = (lsa & (start > now + EPSILON)).nonzero()[0]
        _idle(wait, start[wait])

    # -- ea-dvfs variants: only their lanes read the slowdown plan ------
    ea = kind == SCHED_EA_DVFS
    noslow = kind == SCHED_EA_DVFS_NOSLOWDOWN
    rows = (ea | noslow).nonzero()[0]
    if rows.size:
        if rows.size < n_lanes:
            now, deadline, remaining_work = (
                now[rows], deadline[rows], remaining_work[rows]
            )
            available_energy, storage_full = (
                available_energy[rows], storage_full[rows]
            )
            speeds, powers = speeds[rows], powers[rows]
            ea, noslow = ea[rows], noslow[rows]
        plan = batch_compute_plan(
            now, deadline, remaining_work, available_energy, speeds, powers
        )
        if ea.any():
            # ea-dvfs (with the slowdown phase).  Full storage fast path
            # and unreachable deadlines both run at max speed — the
            # preset default.
            pending = ea & ~storage_full & plan.deadline_reachable
            wait = pending & (plan.start_at > now + EPSILON)
            _idle(rows[wait], plan.start_at[wait])
            # A single-phase plan (NaN switch_at) runs at its level.  A
            # degenerate switch instant (reached within the scalar 1e-6
            # guard) runs at max immediately — the preset default; the
            # NaN of a single-phase plan never compares as reached.
            planned = (
                pending & ~wait & ~batch_time_le(plan.switch_at, now, eps=1e-6)
            )
            level[rows[planned]] = plan.level[planned]
            switch_at[rows[planned]] = plan.switch_at[planned]
        if noslow.any():
            # ea-dvfs without slowdown: delayed max-speed start.
            fallback = np.where(
                np.isinf(available_energy),
                now,
                np.maximum(
                    now, deadline - available_energy / powers[:, max_index]
                ),
            )
            start = np.where(plan.deadline_reachable, plan.s2, fallback)
            wait = noslow & (start > now + EPSILON)
            _idle(rows[wait], start[wait])

    # -- edf: always run the earliest deadline at max speed -------------
    # (the preset default: run=True, level=max)

    return BatchDecision(
        run=run, level=level, switch_at=switch_at, reconsider_at=reconsider_at
    )
