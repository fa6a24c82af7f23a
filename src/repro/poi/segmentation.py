"""Exact stop/move segmentation of trajectories against POI discs.

A *stop* is a maximal time interval during which the (linearly
interpolated) trajectory stays inside one POI's closed disc and whose
duration is at least ``min_dwell``; *moves* are the gaps between stops.
The decomposition follows the SMoT scheme of the follow-up paper: scan
candidate in-disc intervals in time order, commit the earliest one long
enough, and resume scanning from its exit — an object is never at two
places at once, and the first place entered wins the overlap.

Everything is exact clipped arithmetic: the in-disc test solves
``|p0 + w*d - c|^2 = r^2`` per trajectory piece through the batched disc
kernel (:func:`repro.geometry.kernels.disc_clip_batch`), so dwell
attribution is bit-reproducible and identical across the serial,
sharded and pre-aggregated query paths.

Two forms of one semantic.  :func:`segment_stops_moves` walks a single
trajectory (``_merged_intervals``, then the cursor rule ``_scan_stops``)
and is the oracle.  :func:`batch_stops` finds the same stops for every
object of a segment batch in array passes — interval merge by exact
equality, one stable sort, the cursor rule applied rank by rank inside
runs of overlapping candidates — and hands only the last few long runs
to ``_scan_stops`` (docs/poi.md, "Segmented scan").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GeometryError, TrajectoryError
from repro.geometry.kernels import disc_clip_batch
from repro.geometry.point import Point
from repro.geometry.poi import Poi
from repro.mo.moft import SegmentBatch
from repro.mo.trajectory import LinearInterpolationTrajectory, TrajectorySample

#: Episode kinds.
STOP = "stop"
MOVE = "move"


@dataclass(frozen=True)
class Episode:
    """One stop or move of a segmented trajectory.

    ``poi`` is the POI id for stops and ``None`` for moves.  ``start``
    and ``end`` are event times; episodes returned by
    :func:`segment_stops_moves` tile ``[t_min, t_max]`` exactly and
    alternate between the two kinds (zero-length moves appear only
    between back-to-back stops).
    """

    kind: str
    start: float
    end: float
    poi: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if self.kind not in (STOP, MOVE):
            raise TrajectoryError(f"unknown episode kind {self.kind!r}")
        if self.end < self.start:
            raise TrajectoryError(
                f"episode ends before it starts: [{self.start}, {self.end}]"
            )

    @property
    def dwell(self) -> float:
        return self.end - self.start

    @property
    def is_stop(self) -> bool:
        return self.kind == STOP


def _sample_of(
    trajectory: Union[LinearInterpolationTrajectory, TrajectorySample],
) -> TrajectorySample:
    if isinstance(trajectory, LinearInterpolationTrajectory):
        return trajectory.sample
    if isinstance(trajectory, TrajectorySample):
        return trajectory
    raise TrajectoryError(
        "segmentation expects a TrajectorySample or "
        f"LinearInterpolationTrajectory, got {type(trajectory).__name__}"
    )


def _disc_of(geometry: Union[Poi, Point], radius: Optional[float]) -> Tuple[float, float, float]:
    """Resolve ``(cx, cy, r)`` for one POI entry.

    ``Poi`` values carry their own radius; bare ``Point`` centers take
    the shared ``radius`` argument (which may be ``math.inf`` — the
    degenerate all-covering disc).
    """
    if isinstance(geometry, Poi):
        return (geometry.center.x, geometry.center.y, geometry.radius)
    if isinstance(geometry, Point):
        if radius is None:
            raise GeometryError(
                "a bare Point POI needs an explicit radius"
            )
        r = float(radius)
        if math.isnan(r) or r <= 0.0:
            raise GeometryError(f"POI radius must be > 0, got {r!r}")
        return (geometry.x, geometry.y, r)
    raise GeometryError(
        f"POI geometry must be Poi or Point, got {type(geometry).__name__}"
    )


def _merged_intervals(
    t0s: Sequence[float],
    t1s: Sequence[float],
    lo: Sequence[float],
    hi: Sequence[float],
) -> List[Tuple[float, float]]:
    """Maximal positive-length in-disc time intervals of one trajectory.

    ``lo``/``hi`` are the clip parameters of its pieces (time order), as
    :func:`~repro.geometry.kernels.disc_clip_batch` returns them; pieces
    outside the disc (``hi <= lo``) count for nothing and may be left
    out.  Plain floats in, plain floats out.
    """
    out: List[Tuple[float, float]] = []
    for li, hi_i, t0, t1 in zip(lo, hi, t0s, t1s):
        if hi_i <= li:
            continue
        # Clamp endpoints that hit a piece boundary to the *exact* piece
        # times so adjacency across pieces is exact-equality, never a
        # tolerance test.
        dt = t1 - t0
        a = t0 if li == 0.0 else t0 + li * dt
        b = t1 if hi_i == 1.0 else t0 + hi_i * dt
        if b <= a:
            continue
        if out and a == out[-1][1]:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _scan_stops(
    candidates: List[Tuple[float, float, str, Hashable]],
    t_min: float,
    min_dwell: float,
) -> List[Tuple[float, float, Hashable]]:
    """SMoT scan: earliest qualifying interval wins; resume from its exit.

    ``candidates`` are ``(start, end, repr(poi id), poi id)`` in-disc
    intervals of one trajectory, any order; returns its stops as
    ``(start, end, poi id)`` in time order.
    """
    candidates.sort(key=lambda c: c[:3])
    cursor = t_min
    stops: List[Tuple[float, float, Hashable]] = []
    for a, b, _, gid in candidates:
        start = a if a >= cursor else cursor
        if b <= start:
            continue
        if b - start < min_dwell:
            continue
        stops.append((start, b, gid))
        cursor = b
    return stops


def _checked_min_dwell(min_dwell: float) -> float:
    min_dwell = float(min_dwell)
    if math.isnan(min_dwell) or min_dwell < 0.0:
        raise TrajectoryError(f"min_dwell must be >= 0, got {min_dwell!r}")
    return min_dwell


#: The cursor rule leaves the array passes for the scalar scan once this
#: few overlap runs are still open: under it one pass of numpy calls
#: costs more than walking the candidates it would decide.
_SCALAR_TAIL_RUNS = 64


def _overlap_run_heads(obj: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where an overlap run opens, over candidates in (object, start) order:
    at an object's first candidate and at every one starting at or after
    the latest end among its object's earlier candidates."""
    n = a.size
    first = np.ones(n, dtype=bool)
    first[1:] = obj[1:] != obj[:-1]
    # Running maximum of ``b`` per object, exactly: ends go by their rank,
    # an object's ranks above every earlier object's, one global cummax.
    by_end = np.argsort(b, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[by_end] = np.arange(n)
    base = (np.cumsum(first) - 1) * n
    reach = b[by_end[np.maximum.accumulate(base + rank) - base]]
    first[1:] |= a[1:] >= reach[:-1]
    return np.flatnonzero(first)


def batch_stops(
    batch: SegmentBatch,
    pois: Mapping[Hashable, Union[Poi, Point]],
    radius: Optional[float] = None,
    min_dwell: float = 0.0,
    obs=None,
) -> Tuple[np.ndarray, ...]:
    """Every stop of a segment batch: ``(obj, start, end, poi)`` arrays
    in (object, time) order — ``obj`` as in ``batch.obj``, ``poi`` a
    position in ``sorted(pois, key=repr)``.

    :func:`segment_stops_moves` for all objects at once, in array passes
    whose number grows with the POIs and the longest overlap run, never
    with the objects (docs/poi.md, "Segmented scan").
    """
    min_dwell = _checked_min_dwell(min_dwell)
    pieces = [(np.empty(0, np.intp), np.empty(0), np.empty(0), np.empty(0, np.intp))]
    for position, gid in enumerate(sorted(pois, key=repr)):
        cx, cy, r = _disc_of(pois[gid], radius)
        lo, hi = disc_clip_batch(
            cx, cy, r, batch.x0, batch.y0, batch.x1, batch.y1, obs=obs
        )
        inside = np.flatnonzero(hi > lo)
        pieces.append(
            (inside, lo[inside], hi[inside], np.full(inside.size, position))
        )
    inside, lo, hi, poi = map(np.concatenate, zip(*pieces))
    # The endpoints of `_merged_intervals`, by the same float operations.
    t0, t1 = batch.t0[inside], batch.t1[inside]
    dt = t1 - t0
    a = np.where(lo == 0.0, t0, t0 + lo * dt)
    b = np.where(hi == 1.0, t1, t0 + hi * dt)
    keep = np.flatnonzero(b > a)
    obj, a, b, poi = batch.obj[inside[keep]], a[keep], b[keep], poi[keep]
    # Pieces merge while POI and object stay and each starts exactly
    # where the one before ended; a candidate is the span of its run,
    # which closes before the next opens (the last: at index -1).
    opens = np.ones(a.size, dtype=bool)
    opens[1:] = (
        (a[1:] != b[:-1]) | (obj[1:] != obj[:-1]) | (poi[1:] != poi[:-1])
    )
    opens = np.flatnonzero(opens)
    obj, a, poi = obj[opens], a[opens], poi[opens]
    b = b[np.append(opens[1:], opens[:1]) - 1]
    # The scan order of `_scan_stops`; the sort is stable and POIs came
    # in sorted-repr order, which is the tie-break on repr(poi id).
    order = np.lexsort((b, a, obj))
    obj, a, b, poi = obj[order], a[order], b[order], poi[order]

    # The cursor only ever truncates a candidate that starts before an
    # earlier one of its object ends, so every overlap run is scanned on
    # its own from an unset cursor — the p-th candidates of all runs in
    # one pass, and the last few long runs by the scalar scan.
    heads = _overlap_run_heads(obj, a, b)
    lengths = np.diff(np.append(heads, a.size))
    cursor = np.full(heads.size, -np.inf)
    start, stop = a.copy(), np.zeros(a.size, dtype=bool)
    live, p = np.arange(heads.size), 0
    while live.size > _SCALAR_TAIL_RUNS:
        at = heads[live] + p
        begin = np.where(a[at] >= cursor[live], a[at], cursor[live])
        ok = (b[at] > begin) & (b[at] - begin >= min_dwell)
        start[at], stop[at] = begin, ok
        cursor[live[ok]] = b[at[ok]]
        p += 1
        live = live[lengths[live] > p]
    for run in live.tolist():
        lo, hi = int(heads[run]) + p, int(heads[run] + lengths[run])
        rows = range(lo, hi)
        tail = list(zip(a[lo:hi].tolist(), b[lo:hi].tolist(), rows, rows))
        for begin, _, row in _scan_stops(tail, float(cursor[run]), min_dwell):
            start[row], stop[row] = begin, True
    if obs is not None:
        obs.incr("stop_episodes", int(stop.sum()))
    return obj[stop], start[stop], b[stop], poi[stop]


def poi_stop_intervals(
    trajectory: Union[LinearInterpolationTrajectory, TrajectorySample],
    poi: Union[Poi, Point],
    radius: Optional[float] = None,
    obs=None,
) -> List[Tuple[float, float]]:
    """Maximal in-disc intervals of ``trajectory`` at one POI."""
    t0s, t1s, x0s, y0s, x1s, y1s = _sample_of(trajectory).piece_arrays()
    cx, cy, r = _disc_of(poi, radius)
    lo, hi = disc_clip_batch(cx, cy, r, x0s, y0s, x1s, y1s, obs=obs)
    return _merged_intervals(
        t0s.tolist(), t1s.tolist(), lo.tolist(), hi.tolist()
    )


def segment_stops_moves(
    trajectory: Union[LinearInterpolationTrajectory, TrajectorySample],
    pois: Mapping[Hashable, Union[Poi, Point]],
    radius: Optional[float] = None,
    min_dwell: float = 0.0,
    obs=None,
) -> List[Episode]:
    """Decompose a trajectory into an alternating stop/move sequence.

    Parameters
    ----------
    trajectory:
        A :class:`TrajectorySample` or
        :class:`LinearInterpolationTrajectory` (linear interpolation
        between samples is assumed either way).
    pois:
        Mapping ``poi id -> Poi`` (or bare ``Point`` center, in which
        case ``radius`` supplies the disc radius — ``math.inf`` allowed).
    min_dwell:
        Minimum stop duration.  ``0.0`` turns every positive-length
        in-disc interval into a stop; zero-length grazes never count.

    Returns the episode list tiling ``[t_min, t_max]`` exactly.
    Determinism: candidate intervals are scanned in ``(start, end,
    repr(id))`` order, so ties between POIs entered at the same instant
    break by id.
    """
    min_dwell = _checked_min_dwell(min_dwell)
    sample = _sample_of(trajectory)
    t_min, t_max = sample.start_time, sample.end_time
    t0s, t1s, x0s, y0s, x1s, y1s = sample.piece_arrays()
    times = (t0s.tolist(), t1s.tolist())

    candidates: List[Tuple[float, float, str, Hashable]] = []
    for gid in sorted(pois, key=repr) if len(sample) > 1 else ():
        cx, cy, r = _disc_of(pois[gid], radius)
        lo, hi = disc_clip_batch(cx, cy, r, x0s, y0s, x1s, y1s, obs=obs)
        for a, b in _merged_intervals(*times, lo.tolist(), hi.tolist()):
            candidates.append((a, b, repr(gid), gid))
    stops = _scan_stops(candidates, t_min, min_dwell)

    episodes: List[Episode] = []
    prev_end = t_min
    for start, end, gid in stops:
        if start > prev_end or episodes:
            # A move fills the gap; zero-length only between two stops.
            episodes.append(Episode(MOVE, prev_end, start))
        episodes.append(Episode(STOP, start, end, poi=gid))
        prev_end = end
    if not episodes or prev_end < t_max:
        episodes.append(Episode(MOVE, prev_end, t_max))
    if obs is not None:
        obs.incr("stop_episodes", len(stops))
    return episodes
