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
lanes at once, on one of two paths chosen from the windows themselves.
When every window crosses at most one bin edge — the walk's second edge
reaches the span — the walk has a closed form (:func:`_one_edge`): the
first edge clamped to the window, then the snapped tail in the next
bin.  That covers every observe window of a quantized source, whose
segments end at source quanta far shorter than a bin.  Other batches
walk one padded (ladder steps x lanes) array (:func:`_profile_walk`):
each step's edge is the scalar walk's float expression, and the walk's
running coverage is checked per step to telescope exactly, with a
column-by-column replay of the scalar recurrence for lanes where it
does not.  Both paths compute the scalar walk's edges with the same
float expressions.  The scalar generator stays the parity twin
(``tests/energy/test_vectorized_predictors.py`` compares the two bit
for bit).  Per-lane Python was the slower choice here: the batch loop
is bound by per-call dispatch, and a Python walk costs one generator
step per segment for each of the ~100 lanes deciding or moving in one
step.

All kernels take *dense* per-lane arrays: the caller extracts the lanes
that participate (e.g. only lanes whose elapsed segment exceeds
``EPSILON`` get an observe, matching the scalar gate).  The profile
kernels index the caller's bin-state matrices through ``rows``, so the
state is read and updated in place rather than copied out and back.
"""

# repro: float-doctrine -- RPR402 (no libm-divergent ufuncs) applies here.

from __future__ import annotations

import math
from typing import Iterator

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
        if not np.count_nonzero(off):
            break
        nudged = np.nextafter(d, np.where(total < span, np.inf, -np.inf))
        d = np.where(off, nudged, d)
    return d


def _walk_start(
    t0: FloatArray, period: FloatArray, bin_width: FloatArray, n_bins: IntArray
) -> tuple[FloatArray, IntArray]:
    """``(position, first)`` of each window, as the scalar walk starts.

    ``np.mod`` matches ``%`` and truncation matches ``int()`` (pinned by
    ``TestNumpyAccumulationContract``); the first bin clamps to the last
    one where the position rounds up to the period.
    """
    position = np.mod(t0, period)
    first = np.minimum((position / bin_width).astype(np.int64), n_bins - 1)
    return position, first


def _one_edge(
    span: FloatArray,
    position: FloatArray,
    first: IntArray,
    bin_width: FloatArray,
) -> tuple[FloatArray, FloatArray] | None:
    """The walk in closed form, for windows that cross at most one edge.

    Returns ``(head, tail)``: the durations the scalar walk yields in
    the first bin and in the next one (``0.0`` where it yields nothing),
    or ``None`` when some window reaches a second bin edge, which the
    ladder (:func:`_profile_walk`) then walks.  The test is the walk's
    own: the second edge ``(first + 2) * bin_width - position`` must
    reach the span.  The float counts of bins are exact, so these edges
    are the ladder's bit for bit.

    The head is the first edge clamped to ``[0, span]``: the whole span
    where the window ends in its first bin, nothing where a clamped
    first bin starts at or past its edge.  The tail is the snapped rest
    of the span after the head (``0.0`` when the head is the span), as
    the scalar walk snaps its last step.
    """
    bins = first.astype(np.float64)
    reach = (bins + 2.0) * bin_width - position >= span
    if np.count_nonzero(reach) < span.shape[0]:
        return None
    head = np.minimum(
        np.maximum((bins + 1.0) * bin_width - position, 0.0), span
    )
    return head, _batch_snap_tail(head, span)


def _profile_walk(
    span: FloatArray,
    position: FloatArray,
    first: IntArray,
    bin_width: FloatArray,
    n_bins: IntArray,
) -> tuple[IntArray, FloatArray]:
    """:func:`repro.energy.predictor.profile_segments` for many lanes.

    Takes each window's :func:`_walk_start` and returns ``(index,
    duration)``, both ``(steps, lanes)``: row ``j`` of a lane's column
    is step ``j`` of its walk, holding the bin it lies in and the
    duration the scalar generator yields there, or ``0.0`` where it
    yields nothing (a skipped clamped first step, or padding past the
    lane's last step).  Steps run down the rows so that every per-step
    operation reads and writes contiguous rows.  Callers pre-filter to
    ``span > EPSILON``.

    The ladder is one 2-D expression over the floats the scalar walk
    computes: int64->float64 conversion is exact at these magnitudes
    (pinned by ``TestNumpyAccumulationContract``).  The scalar's running
    ``covered`` telescopes to the previous positive edge wherever
    ``fl(c + fl(e - c)) == e``; that is checked per step at runtime, and
    lanes where it fails replay the scalar recurrence step by step
    (:func:`_ladder_durations`, :func:`_exact_walk`).
    """
    # In exact arithmetic every walk ends by step floor(span / width) + 1;
    # rounding or a clamped first bin can push it further, which the
    # check below catches by widening the ladder.
    n_steps = int((span / bin_width).max()) + 2
    while True:
        rank = np.arange(n_steps + 1, dtype=np.int64)[:, None] + first
        # ladder[k] is the coverage once step k - 1 is walked: that
        # step's edge (first + k) * bin_width - position, clamped at 0.0
        # (a clamped first bin can start with a non-positive edge, which
        # the scalar walk skips); row 0 is the empty start.
        ladder = np.maximum(rank.astype(np.float64) * bin_width - position, 0.0)
        ladder[0] = 0.0
        ends = ladder[1:] >= span
        if np.count_nonzero(ends[-1]) == span.shape[0]:
            break
        if not (np.isfinite(span).all() and np.isfinite(position).all()):
            raise ValueError("profile window bounds must be finite")
        n_steps += 2
    # The ladder never decreases, so each column of ``ends`` is False up
    # to the last step (the first edge reaching the span) and True after.
    last = ends.argmax(axis=0)
    index: IntArray = np.mod(rank[:-1], n_bins)
    return index, _ladder_durations(ladder, ends, last, span)


def _ladder_durations(
    ladder: FloatArray, ends: BoolArray, last: IntArray, span: FloatArray
) -> FloatArray:
    """Segment durations of a walk ladder (see :func:`_profile_walk`).

    ``ends[j]`` is ``ladder[j + 1] >= span`` and ``last`` each column's
    first True row.  Steps before ``last`` yield the ladder difference,
    which is the scalar ``edge - covered`` while coverage telescopes
    (checked on every step: a false alarm past a lane's last step only
    sends that lane down the exact replay); the last step yields the
    snapped tail, which is > 0 because that step starts below the span.
    """
    lanes = np.arange(span.shape[0])
    done = ladder[last, lanes]
    step = ladder[1:] - ladder[:-1]
    broken = ladder[:-1] + step != ladder[1:]
    if np.count_nonzero(broken):
        cols = broken.any(axis=0).nonzero()[0]
        step[:, cols], done[cols] = _exact_walk(ladder[1:, cols], last[cols])
    duration = np.where(ends, 0.0, step)
    duration[last, lanes] = _batch_snap_tail(done, span)
    return duration


def _exact_walk(edge: FloatArray, last: IntArray) -> tuple[FloatArray, FloatArray]:
    """The scalar walk's ``covered`` recurrence, one ladder row at a time.

    ``edge`` holds each step's (clamped) edge, one column per lane.
    Returns the durations of the steps before each lane's last (``0.0``
    where the walk yields nothing) and the coverage the last step starts
    from, for the rare lanes whose coverage does not telescope.
    """
    duration = np.zeros(edge.shape)
    covered = np.zeros(edge.shape[1])
    for j in range(edge.shape[0]):
        taken = (last > j) & (edge[j] > covered)
        d = edge[j] - covered
        duration[j] = np.where(taken, d, 0.0)
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
    ``estimate[index] * duration`` add up in walk order, like the scalar
    sum: the closed form of :func:`_one_edge` adds its two products,
    and the padded ladder adds each lane's steps with ``np.cumsum``
    down the steps axis, which adds strictly in order and so rounds once
    per segment; the walk's empty cells add ``0.0``, which never
    perturbs the total.
    """
    n = t0.shape[0]
    span = t1 - t0
    total = np.zeros(n)
    live = (span > EPSILON).nonzero()[0]
    if live.size == 0:
        return total
    if rows is None:
        rows = np.arange(n)
    if live.size < n:
        t0, span, period, bin_width, n_bins, rows = (
            t0[live], span[live], period[live], bin_width[live],
            n_bins[live], rows[live],
        )
    position, first = _walk_start(t0, period, bin_width, n_bins)
    row_cells = rows * estimates.shape[1]
    walk = _one_edge(span, position, first, bin_width)
    if walk is not None:
        head, tail = walk
        following = np.mod(first + 1, n_bins)
        part = (
            estimates.take(row_cells + first) * head
            + estimates.take(row_cells + following) * tail
        )
    else:
        index, duration = _profile_walk(
            span, position, first, bin_width, n_bins
        )
        contribution = estimates.take(row_cells + index) * duration
        part = np.cumsum(contribution, axis=0)[-1]
    if live.size == n:
        return part
    total[live] = part
    return total


def _observe_steps(
    span: FloatArray,
    position: FloatArray,
    first: IntArray,
    bin_width: FloatArray,
    n_bins: IntArray,
) -> Iterator[tuple[npt.NDArray[np.intp] | slice, IntArray, FloatArray]]:
    """The walk's segments as ``(lanes, bins, durations)`` groups, in walk order.

    Within a group each lane appears once, so its cells are distinct;
    the groups come in the scalar loop's order, so repeated visits to
    one bin (one-bin profiles, spans longer than the period) compound
    in that order.  ``lanes`` is ``slice(None)`` for a group holding
    every lane.  Windows crossing at most one edge (:func:`_one_edge`)
    give their first bins, then the next bins; other batches walk the
    ladder in waves of ``min(n_bins)`` steps, whose bins are distinct
    within each lane.
    """
    walk = _one_edge(span, position, first, bin_width)
    if walk is not None:
        head, tail = walk
        if np.count_nonzero(head) == head.shape[0]:
            yield slice(None), first, head
        else:  # a clamped first bin yields nothing
            lanes = head.nonzero()[0]
            yield lanes, first[lanes], head[lanes]
        lanes = tail.nonzero()[0]
        if lanes.size:
            yield lanes, np.mod(first[lanes] + 1, n_bins[lanes]), tail[lanes]
        return
    index, duration = _profile_walk(span, position, first, bin_width, n_bins)
    wave = int(n_bins.min())
    for start in range(0, duration.shape[0], wave):
        block = duration[start : start + wave]
        step, lanes = block.nonzero()  # durations are > 0.0 or 0.0 (none)
        yield lanes, index[step + start, lanes], block[step, lanes]


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
    gate).  The EWMA updates of the walk's segments apply group by group
    (:func:`_observe_steps`): no cell is written twice within a group,
    and the groups run in walk order.
    """
    if t0.shape[0] == 0:
        return
    span = t1 - t0
    mean_power = np.maximum(0.0, energy / span)
    position, first = _walk_start(t0, period, bin_width, n_bins)
    if rows is None:
        rows = np.arange(t0.shape[0])
    row_cells = rows * estimates.shape[1]
    keep_base = 1.0 - alpha
    for lanes, bins, d in _observe_steps(
        span, position, first, bin_width, n_bins
    ):
        cells = row_cells[lanes] + bins
        power = mean_power[lanes]
        keep = _libm_pow(keep_base[lanes], d / bin_width[lanes])
        ewma = keep * estimates.take(cells) + (1.0 - keep) * power
        estimates.put(cells, np.where(seen.take(cells), ewma, power))
        seen.put(cells, True)
