"""Vectorized predictor kernels mirroring :mod:`repro.energy.predictor`.

The batch engine (:mod:`repro.sim.batch`) keeps per-lane predictor state
in structure-of-arrays form — one EWMA scalar per lane for the mean and
last-value predictors, one bin-estimate row per lane for the profile
predictor.  The kernels here update and query that state for many lanes
at once.

Bit-exactness doctrine (see ``docs/batch-simulation.md``): every kernel
performs the *same* IEEE float64 operations in the *same* order as its
scalar counterpart in :mod:`repro.energy.predictor`.  The elementwise
span kernels lean on pinned numpy/libm equivalences
(``TestNumpyAccumulationContract`` in
``tests/sched/test_vectorized_kernels.py``), with one deliberate
exception: numpy's *array* ``np.power`` uses a SIMD implementation that
differs from libm ``pow`` (hence from CPython's ``**``) by one ulp on
~5% of inputs (observed on numpy 2.4.6), so the EWMA decay factors go
through :func:`_libm_pow`, an element-wise libm ``pow``.

The profile kernels run the cyclic bin walk of
:func:`repro.energy.predictor.profile_segments` for all participating
lanes at once, as one padded (lanes x ladder steps) array
(:func:`_profile_walk`).  Each step's edge is the scalar walk's float
expression, and the walk's running coverage is checked per step to
telescope exactly, with a column-by-column replay of the scalar
recurrence for lanes where it does not.  The scalar generator stays the
parity twin (``tests/energy/test_vectorized_predictors.py`` compares the
two bit for bit).  Per-lane Python was the slower choice here: the batch
loop is bound by per-call dispatch, and a Python walk costs one
generator step per segment for each of the ~100 lanes deciding or
moving in one step.

All kernels take *dense* per-lane arrays: the caller extracts the lanes
that participate (e.g. only lanes whose elapsed segment exceeds
``EPSILON`` get an observe, matching the scalar gate).  The profile
kernels index the caller's bin-state matrices through ``rows``, so the
state is read and updated in place rather than copied out and back.
"""

# repro: float-doctrine -- the RPR4xx bit-exactness rules apply here.

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

from repro.timeutils import EPSILON

__all__ = [
    "batch_span_predict",
    "batch_mean_observe",
    "batch_last_observe",
    "batch_profile_predict",
    "batch_profile_observe",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]


def _libm_pow(base: FloatArray, expo: FloatArray) -> FloatArray:
    """Element-wise libm ``pow``, bit-identical to CPython's ``**``.

    numpy's vectorized ``np.power`` is *not* (one-ulp SIMD deviations),
    which would leak into the EWMA state and break the doctrine — so the
    decay factors pay for a per-element libm call instead.  This is on
    the hot path: a profile sweep makes one observe call per lockstep
    step, with about a hundred moving lanes each, so the calls go
    through ``map`` and ``np.fromiter`` (no per-element tuple unpacking
    or intermediate list).
    """
    return np.fromiter(
        map(math.pow, base.tolist(), expo.tolist()), np.float64, base.shape[0]
    )


def batch_span_predict(estimate: FloatArray, t0: FloatArray, t1: FloatArray) -> FloatArray:
    """Element-wise ``MeanPowerPredictor``/``LastValuePredictor`` predict.

    Mirrors the scalar empty-window contract: windows no longer than
    ``EPSILON`` predict ``0.0``; otherwise ``estimate * (t1 - t0)``.
    """
    span = t1 - t0
    result: FloatArray = np.where(span <= EPSILON, 0.0, estimate * span)
    return result


def batch_mean_observe(
    estimate: FloatArray, alpha: FloatArray, duration: FloatArray, energy: FloatArray
) -> FloatArray:
    """Element-wise :meth:`MeanPowerPredictor.observe` (returns new estimate).

    Callers must pre-filter to ``duration > EPSILON`` (the scalar gate).
    """
    mean_power = np.maximum(0.0, energy / duration)
    keep = _libm_pow(1.0 - alpha, duration)
    result: FloatArray = keep * estimate + (1.0 - keep) * mean_power
    return result


def batch_last_observe(duration: FloatArray, energy: FloatArray) -> FloatArray:
    """Element-wise :meth:`LastValuePredictor.observe` (returns new estimate).

    Callers must pre-filter to ``duration > EPSILON`` (the scalar gate).
    """
    result: FloatArray = np.maximum(0.0, energy / duration)
    return result


def _batch_snap_tail(covered: FloatArray, span: FloatArray) -> FloatArray:
    """Element-wise :func:`repro.energy.predictor._snap_tail`.

    Nudges the final segment duration by ulps until ``covered + d ==
    span`` exactly; already-exact elements stop being nudged, so each
    element follows the scalar loop bit-for-bit (``np.nextafter``
    matches ``math.nextafter``, pinned).
    """
    d = span - covered
    for _ in range(8):
        total = covered + d
        off = total != span
        if not off.any():
            break
        nudged = np.nextafter(d, np.where(total < span, np.inf, -np.inf))
        d = np.where(off, nudged, d)
    return d


def _profile_walk(
    t0: FloatArray,
    t1: FloatArray,
    period: FloatArray,
    bin_width: FloatArray,
    n_bins: IntArray,
) -> tuple[IntArray, FloatArray]:
    """:func:`repro.energy.predictor.profile_segments` for many lanes.

    Returns ``(index, duration)``, both ``(lanes, steps)``: column ``j``
    of a row is step ``j`` of that lane's walk, holding the bin it lies
    in and the duration the scalar generator yields there, or ``0.0``
    where it yields nothing (a skipped clamped first step, or padding
    past the lane's last step).  Callers pre-filter to
    ``t1 - t0 > EPSILON``.

    The ladder is one 2-D expression over the floats the scalar walk
    computes: ``np.mod`` matches ``%``, truncation matches ``int()`` and
    int64->float64 conversion is exact at these magnitudes (all pinned
    by ``TestNumpyAccumulationContract``).  The scalar's running
    ``covered`` telescopes to the previous positive edge wherever
    ``fl(c + fl(e - c)) == e``; that is checked per step at runtime, and
    lanes where it fails replay the scalar recurrence column by column
    (:func:`_ladder_durations`, :func:`_exact_walk`).
    """
    span = t1 - t0
    position = np.mod(t0, period)
    first = np.minimum((position / bin_width).astype(np.int64), n_bins - 1)
    # In exact arithmetic every walk ends by step floor(span / width) + 1;
    # rounding or a clamped first bin can push it further, which the
    # check below catches by widening the ladder.
    n_steps = int((span / bin_width).max()) + 2
    while True:
        rank = first[:, None] + np.arange(n_steps + 1, dtype=np.int64)
        # ladder[:, k] is the coverage once step k - 1 is walked: that
        # step's edge (first + k) * bin_width - position, clamped at 0.0
        # (a clamped first bin can start with a non-positive edge, which
        # the scalar walk skips); column 0 is the empty start.
        ladder = np.maximum(
            rank.astype(np.float64) * bin_width[:, None] - position[:, None],
            0.0,
        )
        ladder[:, 0] = 0.0
        ends = ladder[:, 1:] >= span[:, None]
        if ends[:, -1].all():
            break
        if not (np.isfinite(span).all() and np.isfinite(position).all()):
            raise ValueError("profile window bounds must be finite")
        n_steps += 2
    # The ladder never decreases, so each row of ``ends`` is False up to
    # the last step (the first edge reaching the span) and True after.
    last = ends.argmax(axis=1)
    if not last.any():
        # Every window ends inside its first bin: the walk yields the
        # snapped span there, which is the span itself (0.0 + span).
        return first[:, None], span[:, None]
    index: IntArray = np.mod(rank[:, :-1], n_bins[:, None])
    return index, _ladder_durations(ladder, ends, last, span)


def _ladder_durations(
    ladder: FloatArray, ends: BoolArray, last: IntArray, span: FloatArray
) -> FloatArray:
    """Segment durations of a walk ladder (see :func:`_profile_walk`).

    ``ends[:, j]`` is ``ladder[:, j + 1] >= span`` and ``last`` its first
    True column.  Steps before ``last`` yield the ladder difference,
    which is the scalar ``edge - covered`` while coverage telescopes
    (checked on every column: a false alarm past a lane's last step only
    sends that lane down the exact replay); the last step yields the
    snapped tail, which is > 0 because that step starts below the span.
    """
    lanes = np.arange(span.shape[0])
    done = ladder[lanes, last]
    step = ladder[:, 1:] - ladder[:, :-1]
    broken = ladder[:, :-1] + step != ladder[:, 1:]
    if broken.any():
        rows = broken.any(axis=1).nonzero()[0]
        step[rows], done[rows] = _exact_walk(ladder[rows, 1:], last[rows])
    duration = np.where(ends, 0.0, step)
    duration[lanes, last] = _batch_snap_tail(done, span)
    return duration


def _exact_walk(edge: FloatArray, last: IntArray) -> tuple[FloatArray, FloatArray]:
    """The scalar walk's ``covered`` recurrence, one ladder column at a time.

    ``edge`` holds each step's (clamped) edge.  Returns the durations of
    the steps before each lane's last (``0.0`` where the walk yields
    nothing) and the coverage the last step starts from, for the rare
    lanes whose coverage does not telescope.
    """
    duration = np.zeros(edge.shape)
    covered = np.zeros(edge.shape[0])
    for j in range(edge.shape[1]):
        taken = (last > j) & (edge[:, j] > covered)
        d = edge[:, j] - covered
        duration[:, j] = np.where(taken, d, 0.0)
        covered = np.where(taken, covered + d, covered)
    return duration, covered


def batch_profile_predict(
    t0: FloatArray,
    t1: FloatArray,
    period: FloatArray,
    bin_width: FloatArray,
    n_bins: IntArray,
    estimates: FloatArray,
    rows: IntArray | None = None,
) -> FloatArray:
    """Element-wise :meth:`ProfilePredictor.predict_energy`.

    ``estimates`` is ``(lanes, max_bins)``; lane ``i`` reads row
    ``rows[i]`` (default: row ``i``).  The segment products
    ``estimate[index] * duration`` of the padded walk accumulate with a
    row-wise ``np.cumsum``, which adds strictly left to right and so
    rounds once per segment in walk order, like the scalar sum; the
    walk's empty cells add ``0.0``, which never perturbs the total.
    """
    span = t1 - t0
    total = np.zeros(t0.shape[0])
    live = (span > EPSILON).nonzero()[0]
    if live.size == 0:
        return total
    if rows is None:
        rows = np.arange(t0.shape[0])
    if live.size < t0.shape[0]:
        t0, t1, period, bin_width, n_bins, rows = (
            t0[live], t1[live], period[live], bin_width[live], n_bins[live],
            rows[live],
        )
    index, duration = _profile_walk(t0, t1, period, bin_width, n_bins)
    cells = (rows * estimates.shape[1])[:, None] + index
    contribution = np.take(estimates, cells) * duration
    total[live] = np.cumsum(contribution, axis=1)[:, -1]
    return total


def batch_profile_observe(
    t0: FloatArray,
    t1: FloatArray,
    period: FloatArray,
    bin_width: FloatArray,
    n_bins: IntArray,
    alpha: FloatArray,
    energy: FloatArray,
    estimates: FloatArray,
    seen: BoolArray,
    rows: IntArray | None = None,
) -> None:
    """Element-wise :meth:`ProfilePredictor.observe` (mutates in place).

    ``estimates``/``seen`` are ``(lanes, max_bins)``; lane ``i`` updates
    row ``rows[i]`` (default: row ``i``; rows must be distinct) in
    place.  Callers must pre-filter to ``t1 - t0 > EPSILON`` (the scalar
    gate).  The EWMA updates of all walk segments apply together, in
    waves of ``min(n_bins)`` walk steps: within a wave a lane's steps
    lie in distinct bins, so no cell is written twice, and the waves
    run in walk order, so repeated visits to one bin (spans longer than
    the period) compound in the scalar loop's order.
    """
    if t0.shape[0] == 0:
        return
    mean_power = np.maximum(0.0, energy / (t1 - t0))
    index, duration = _profile_walk(t0, t1, period, bin_width, n_bins)
    if rows is None:
        rows = np.arange(t0.shape[0])
    keep_base = 1.0 - alpha
    wave = int(n_bins.min())
    for start in range(0, duration.shape[1], wave):
        block = duration[:, start : start + wave]
        lanes, step = block.nonzero()  # durations are > 0.0 or 0.0 (none)
        d = block[lanes, step]
        row = rows[lanes]
        bins = index[lanes, step + start]
        power = mean_power[lanes]
        keep = _libm_pow(keep_base[lanes], d / bin_width[lanes])
        ewma = keep * estimates[row, bins] + (1.0 - keep) * power
        estimates[row, bins] = np.where(seen[row, bins], ewma, power)
        seen[row, bins] = True
