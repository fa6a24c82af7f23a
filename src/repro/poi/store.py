"""Summable per-(POI, time-granule) visit cells with exact visitor sets.

The POI aggregates of the follow-up paper — visits, distinct visitors,
dwell per POI per granule, top-k by distinct visitors — are *summable*
in the sense of the source paper's Definition 4: each moving object's
contribution decomposes per (POI, granule) cell, cells merge by sum /
set-union, and object-partitioned shards recombine losslessly.
:class:`PoiVisitStore` materializes those cells.

Cell semantics (one stop episode ``[a, b]`` at POI ``g``):

* ``visits``  — counted once, in the granule containing ``a``;
* ``dwell``   — ``b - a`` split exactly over the half-open granule
  windows ``[start_i, start_{i+1})`` it spans (the last window extends
  to ``+inf``), so summing any partition of granules preserves dwell;
* ``visitor`` — the object is a visitor of every cell it received a
  visit or positive clipped dwell in.

Byte-reproducibility: all state is kept *per object*; read methods fold
objects in sorted-``repr`` order, so the serial scan, shard-merged and
incrementally-updated stores produce identical floats and identical
canonical JSON (pinned by ``tests/poi/test_poi_differential.py``).

The lifecycle is :class:`repro.cellstore.GranuleStore`'s, shared with
the polygon store: stale means the table *or* the Time dimension moved
past the snapshot, and a dimension edit rebuilds — the granule
partition the cell codes index is re-read, never folded over.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cellstore import GranuleStore
from repro.errors import PreAggError
from repro.mo.moft import MOFT
from repro.poi.segmentation import batch_stops, segment_stops_moves
from repro.temporal.timedim import TimeDimension

#: Per-object cell contribution: ``{(gid, code): (visits, dwell)}``.
ObjectCells = Dict[Tuple[Hashable, int], Tuple[int, float]]


def _stop_cells(
    stops: Iterable[Tuple[float, float, Hashable]], starts: np.ndarray
) -> ObjectCells:
    """One object's visit/dwell contributions from its stops, in time order."""
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


def _object_cells(
    moft: MOFT,
    oid: Hashable,
    starts: np.ndarray,
    pois: Mapping[Hashable, object],
    radius: Optional[float],
    min_dwell: float,
    obs=None,
) -> ObjectCells:
    """One object's cells by the single-trajectory API — the reference
    :func:`poi_cells` is tested against."""
    episodes = segment_stops_moves(
        moft.trajectory_sample(oid), pois, radius=radius,
        min_dwell=min_dwell, obs=obs,
    )
    return _stop_cells(
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
    """Per-object POI cells of ``moft`` — the shared scan primitive.

    The serial query path calls this directly; shards call it on their
    object partition; :class:`PoiVisitStore` materializes its result
    (``oids`` restricts it to the objects an append touched).  The
    table's segment table goes through the disc kernel once per POI
    (:func:`~repro.poi.segmentation.batch_stops`); one object's cells
    never depend on another's, which is what makes the three strategies
    byte-identical.
    """
    partition = time.granules(granule_level)
    starts = np.asarray(partition.starts, dtype=np.float64)
    if oids is not None:
        moft = moft.restrict_objects(oids)
    names = moft.segment_index().oids
    stops: Dict[Hashable, list] = {}
    for batch in moft.segments():
        found = batch_stops(
            batch, pois, radius=radius, min_dwell=min_dwell, obs=obs
        )
        stops.update((names[position], found[position]) for position in found)
    # Cells are made in the order readers fold them (sorted ``repr``):
    # a store read walks its cells in allocation order.
    out = {
        oid: _stop_cells(stops[oid], starts) for oid in sorted(stops, key=repr)
    }
    total_visits = sum(v for cells in out.values() for v, _ in cells.values())
    if obs is not None and total_visits:
        obs.incr("poi_visits", total_visits)
    return out


class PoiVisitStore(GranuleStore):
    """Materialized POI visit cells over one MOFT, under the lifecycle of
    :class:`~repro.cellstore.GranuleStore` — so the streaming ingestor
    and the evaluation context treat both store kinds uniformly."""

    CELL_KEY = ("granule_level", "min_dwell")
    BUILD_PARAMS = ("min_dwell", "radius")

    def __init__(
        self,
        moft: MOFT,
        time: TimeDimension,
        granule_level: str,
        pois: Mapping[Hashable, object],
        *,
        layer: Optional[str] = None,
        kind: str = "poi",
        min_dwell: float = 0.0,
        radius: Optional[float] = None,
        name: Optional[str] = None,
        obs=None,
        build: bool = True,
    ) -> None:
        if not pois:
            raise PreAggError("a POI store needs at least one POI")
        super().__init__(
            moft, time, granule_level, pois, layer, kind,
            name if name is not None else f"poi_{granule_level}", obs,
        )
        self.pois = self.geometries
        self.min_dwell = float(min_dwell)
        self.radius = radius
        self._empty_cells()
        if build:
            self.refresh()

    # -- build / maintenance --------------------------------------------------

    def _scan(self, oids: Optional[Sequence[Hashable]] = None) -> Dict[Hashable, ObjectCells]:
        return poi_cells(
            self.moft,
            self.time,
            self.granule_level,
            self.pois,
            min_dwell=self.min_dwell,
            radius=self.radius,
            oids=oids,
            obs=self.obs,
        )

    def _empty_cells(self) -> None:
        self._per_object: Dict[Hashable, ObjectCells] = {}

    def _build_cells(self) -> None:
        self._per_object = self._scan()

    def _fold_rows(self, start: int) -> None:
        """A *stop is not prefix-decomposable*: new samples can extend (or
        create) an episode that earlier rows alone did not justify, so
        the delta path re-segments every object that gained rows — whole
        trajectories, but only the touched objects."""
        touched = sorted(set(self.moft.oid_column()[start:]), key=repr)
        fresh = self._scan(oids=touched)
        per_object = dict(self._per_object)
        for oid in touched:
            cells = fresh.get(oid)
            if cells:
                per_object[oid] = cells
            else:
                per_object.pop(oid, None)
        self._per_object = per_object

    def update(self) -> str:
        """:meth:`GranuleStore.update`, counting ``poi_store_updates``."""
        outcome = super().update()
        if outcome != "fresh":
            self.obs.incr("poi_store_updates")
        return outcome

    def _own_cells(self) -> None:
        """Nothing to copy: folds rebind the cell dicts, never mutate."""

    def _absorb(self, store: "PoiVisitStore") -> None:
        self._per_object.update(store._per_object)

    def _objects(self):
        """Objects holding a cell; one that never stopped leaves none."""
        return self._per_object.keys()

    # -- reads ----------------------------------------------------------------

    def _member(self, code: int) -> Hashable:
        return self.partition.members[code]

    def _fold(self):
        """Yield ``(oid, gid, code, visits, dwell)`` in canonical order."""
        for oid in sorted(self._per_object, key=repr):
            cells = self._per_object[oid]
            for (gid, code) in sorted(cells, key=lambda k: (repr(k[0]), k[1])):
                visits, dwell = cells[(gid, code)]
                yield oid, gid, code, visits, dwell

    def visit_counts(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """``{(poi id, granule member): visit count}`` — non-zero cells."""
        out: Dict[Tuple[Hashable, Hashable], int] = {}
        for _, gid, code, visits, _ in self._fold():
            if visits:
                key = (gid, self._member(code))
                out[key] = out.get(key, 0) + visits
        return out

    def dwell_times(self) -> Dict[Tuple[Hashable, Hashable], float]:
        """``{(poi id, granule member): dwell}`` folded in canonical order."""
        out: Dict[Tuple[Hashable, Hashable], float] = {}
        for _, gid, code, _, dwell in self._fold():
            if dwell:
                key = (gid, self._member(code))
                out[key] = out.get(key, 0.0) + dwell
        return out

    def distinct_visitors(
        self,
    ) -> Dict[Tuple[Hashable, Hashable], Tuple[Hashable, ...]]:
        """``{(poi id, granule member): sorted visitor ids}``."""
        out: Dict[Tuple[Hashable, Hashable], List[Hashable]] = {}
        for oid, gid, code, _, _ in self._fold():
            out.setdefault((gid, self._member(code)), []).append(oid)
        return {key: tuple(oids) for key, oids in out.items()}

    def topk(self, k: int) -> Dict[Hashable, Tuple[Tuple[Hashable, int], ...]]:
        """Top-``k`` POIs by distinct visitors, per granule member.

        Ranks descending by distinct-visitor count, ties broken
        ascending by ``repr(poi id)``; members nobody visited are
        omitted.
        """
        if k < 1:
            raise PreAggError(f"top-k needs k >= 1, got {k}")
        counts: Dict[Hashable, Dict[Hashable, int]] = {}
        for (gid, member), visitors in self.distinct_visitors().items():
            counts.setdefault(member, {})[gid] = len(visitors)
        out: Dict[Hashable, Tuple[Tuple[Hashable, int], ...]] = {}
        for member in self.partition.members:
            ranking = counts.get(member)
            if not ranking:
                continue
            ordered = sorted(
                ranking.items(), key=lambda item: (-item[1], repr(item[0]))
            )
            out[member] = tuple(ordered[:k])
        return out

    # -- rollups / cube -------------------------------------------------------

    def rollup_cells(self, parent_level: str):
        """Temporal roll-up: the same cells at a coarser granule level.

        Returns ``(parent_partition, visits, dwell, visitors)`` dicts
        keyed ``(poi id, parent member)``.
        """
        parent, mapping = self.partition.rollup_codes(self.time, parent_level)
        visits: Dict[Tuple[Hashable, Hashable], int] = {}
        dwell: Dict[Tuple[Hashable, Hashable], float] = {}
        visitors: Dict[Tuple[Hashable, Hashable], List[Hashable]] = {}
        for oid, gid, code, n, d in self._fold():
            key = (gid, parent.members[int(mapping[code])])
            if n:
                visits[key] = visits.get(key, 0) + n
            if d:
                dwell[key] = dwell.get(key, 0.0) + d
            bucket = visitors.setdefault(key, [])
            if not bucket or bucket[-1] != oid:
                bucket.append(oid)
        return (
            parent,
            visits,
            dwell,
            {key: tuple(oids) for key, oids in visitors.items()},
        )

    def rollup_space(self, mapping):
        """Spatial roll-up: every measure folded gid → parent.

        ``mapping`` usually comes from
        :func:`repro.olap.solap.poi_parent_mapping`; returns
        ``(visits, dwell, visitors)`` keyed ``(parent id, member)``.
        """
        from repro.olap.solap import spatial_rollup

        return (
            spatial_rollup(self.visit_counts(), mapping),
            spatial_rollup(self.dwell_times(), mapping),
            spatial_rollup(self.distinct_visitors(), mapping),
        )

    def as_cube(self):
        """Expose the cells as an OLAP cube (granule x POI axes)."""
        visits = self.visit_counts()
        dwell = self.dwell_times()
        visitors = self.distinct_visitors()
        rows = []
        for (gid, member), oids in visitors.items():
            rows.append(
                {
                    "granule": member,
                    "poi": gid,
                    "visits": visits.get((gid, member), 0),
                    "dwell": dwell.get((gid, member), 0.0),
                    "distinct_visitors": len(oids),
                }
            )
        return self._cells_cube(
            "poi", ("visits", "dwell", "distinct_visitors"), rows
        )

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        cells = set()
        visits = 0
        for _, gid, code, n, _ in self._fold():
            cells.add((gid, code))
            visits += n
        return {
            "name": self.name,
            "granule_level": self.granule_level,
            "pois": len(self.pois),
            "objects": len(self._per_object),
            "cells": len(cells),
            "visits": visits,
            "min_dwell": self.min_dwell,
            "stale": self.is_stale(),
        }

    def __repr__(self) -> str:
        return (
            f"PoiVisitStore({self.name!r}, granule={self.granule_level!r}, "
            f"pois={len(self.pois)}, objects={len(self._per_object)})"
        )
