"""Reference forms the POI suites compare the store and kernels with.

* :func:`object_cells` is one object's cells by the single-trajectory
  API (:func:`~repro.poi.segment_stops_moves`, then a dict fold of its
  stops over the granule windows): the walk the batched cell table of a
  :class:`~repro.poi.PoiVisitStore` build is tested against;
* :func:`poi_cells` renders that cell table
  (``repro.poi.store._scan_cells``) as ``{oid: {(gid, granule code):
  (visits, dwell)}}`` dicts, the shape of :func:`object_cells`;
* :func:`disc_dwell_scalar` is the per-segment dwell fold over
  :func:`~repro.geometry.kernels.disc_clip_scalar`, in Python floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.kernels import disc_clip_scalar
from repro.mo import MOFT
from repro.poi import segment_stops_moves
from repro.poi.store import _scan_cells
from repro.temporal.timedim import TimeDimension

#: Per-object cell contribution: ``{(gid, code): (visits, dwell)}``.
ObjectCells = Dict[Tuple[Hashable, int], Tuple[int, float]]


def stop_cells(
    stops: Iterable[Tuple[float, float, Hashable]], starts: np.ndarray
) -> ObjectCells:
    """One object's visit/dwell contributions from its stops, in time
    order: a visit in the granule of ``a``, ``[a, b]`` split exactly
    over the granule windows it spans."""
    cells: ObjectCells = {}
    starts = starts.tolist()
    n = len(starts)
    for a, b, gid in stops:
        code = max(bisect_right(starts, a) - 1, 0)
        visits, dwell = cells.get((gid, code), (0, 0.0))
        cells[(gid, code)] = (visits + 1, dwell)
        # Split [a, b] exactly over granule windows from `code` onward.
        i = code
        while i < n:
            win_start = starts[i] if i > code else a
            win_end = starts[i + 1] if i + 1 < n else math.inf
            piece = min(b, win_end) - max(a, win_start)
            if piece > 0.0:
                visits, dwell = cells.get((gid, i), (0, 0.0))
                cells[(gid, i)] = (visits, dwell + piece)
            if win_end >= b:
                break
            i += 1
    return cells


def object_cells(
    moft: MOFT,
    oid: Hashable,
    starts: np.ndarray,
    pois: Mapping[Hashable, object],
    radius: Optional[float],
    min_dwell: float,
    obs=None,
) -> ObjectCells:
    """One object's cells by the single-trajectory API."""
    episodes = segment_stops_moves(
        moft.trajectory_sample(oid), pois, radius=radius,
        min_dwell=min_dwell, obs=obs,
    )
    return stop_cells(
        ((e.start, e.end, e.poi) for e in episodes if e.is_stop), starts
    )


def poi_cells(
    moft: MOFT,
    time: TimeDimension,
    granule_level: str,
    pois: Mapping[Hashable, object],
    min_dwell: float = 0.0,
    radius: Optional[float] = None,
    oids: Optional[Sequence[Hashable]] = None,
    obs=None,
) -> Dict[Hashable, ObjectCells]:
    """Per-object POI cells of ``moft`` (``oids``: of those objects): the
    batched cell table rendered as dicts."""
    if oids is not None:
        moft = moft.restrict_objects(oids)
    starts = time.granules(granule_level).starts
    table = _scan_cells(moft, starts, pois, min_dwell, radius, obs)
    gids = sorted(pois, key=repr)
    out: Dict[Hashable, ObjectCells] = {oid: {} for oid in table.oids}
    for oid, gid, code, visits, dwell in zip(
        *(column.tolist() for column in table[1:6])
    ):
        out[table.oids[oid]][(gids[gid], code)] = (visits, dwell)
    return out


def disc_dwell_scalar(cx, cy, r, x0, y0, x1, y1, dt) -> np.ndarray:
    """Per-segment dwell time inside the closed disc: ``(hi - lo) *
    dt[i]`` of :func:`disc_clip_scalar` on segment ``i``."""
    n = len(x0)
    out = np.zeros(n, dtype=np.float64)
    cxf, cyf, rf = float(cx), float(cy), float(r)
    for i in range(n):
        lo, hi = disc_clip_scalar(
            cxf, cyf, rf,
            float(x0[i]), float(y0[i]), float(x1[i]), float(y1[i]),
        )
        out[i] = (hi - lo) * float(dt[i])
    return out
