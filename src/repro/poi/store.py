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

Byte-reproducibility: the cells are one columnar :class:`CellTable`, a
row per (object, POI, granule), sorted by codes that ascend with the
``repr`` of object and POI id.  A row's dwell is summed in stop time
order when the table is made, and every read sums rows in table order —
objects in sorted-``repr`` order — with ``np.bincount``, which adds left
to right.  No state depends on which other objects share the table, so
the serial scan, shard-merged and incrementally-updated stores hold
equal tables and produce identical floats and identical canonical JSON
(pinned by ``tests/poi/test_poi_differential.py`` and, read by read
against a plain dict fold, ``tests/poi/test_poi_store.py``).

The lifecycle is :class:`repro.cellstore.GranuleStore`'s, shared with
the polygon store: stale means the table *or* the Time dimension moved
past the snapshot, and a dimension edit rebuilds — the granule
partition the cell codes index is re-read, never folded over.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cellstore import GranuleStore, frozen
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


class CellTable(NamedTuple):
    """The cells as columns: one row per (object, POI, granule) holding a
    visit or dwell, sorted by ``(oid, gid, granule)``.

    ``oids`` interns the objects that hold a row, in sorted-``repr``
    order, and ``gid`` indexes the POI ids sorted the same way — so the
    row order *is* the canonical fold order and no read sorts by
    ``repr``.  ``cells`` lists the distinct ``gid * n_granules +
    granule`` keys ascending and ``cell`` each row's position in it: the
    group-by of the per-(POI, granule) reads, made once per table.
    """

    oids: Tuple[Hashable, ...]
    oid: np.ndarray
    gid: np.ndarray
    granule: np.ndarray
    visits: np.ndarray
    dwell: np.ndarray
    cells: np.ndarray
    cell: np.ndarray


#: The five row columns of a table without rows.
_NO_ROWS = (np.empty(0, dtype=np.intp),) * 4 + (np.empty(0, dtype=np.float64),)


def _cell_table(names, oid, gid, granule, visits, dwell, n_granules) -> CellTable:
    """Intern and sort rows whose object is ``names[oid]``; a name that
    holds no row is dropped.  Each object's rows come together and in
    ``(gid, granule)`` order — as scans and sorted tables have them — so
    a stable sort by object is the whole sort."""
    held = np.flatnonzero(np.bincount(oid, minlength=len(names)))
    by_repr = sorted(held.tolist(), key=lambda i: repr(names[i]))
    code = np.empty(len(names), dtype=np.intp)
    code[by_repr] = np.arange(len(by_repr))
    oid = code[oid]
    order = np.argsort(oid, kind="stable")
    gid, granule = gid[order], granule[order]
    cells, cell = np.unique(gid * n_granules + granule, return_inverse=True)
    return frozen(CellTable(
        tuple(names[i] for i in by_repr), oid[order], gid, granule,
        visits[order], dwell[order], cells, cell,
    ))


def _stop_rows(obj, a, b, gid, starts: np.ndarray, n_gids: int):
    """:func:`_stop_cells` over the stop arrays of :func:`~repro.poi
    .segmentation.batch_stops`: ``(obj, gid, granule, visits, dwell)``,
    one row per cell.  ``np.bincount`` adds its weights in input order —
    stop time order — so a cell's dwell is the same left-to-right float
    sum (``np.add.reduceat`` and ``sum`` add pairwise and differ)."""
    n = starts.size
    ends = np.append(starts[1:], np.inf)
    code = np.maximum(np.searchsorted(starts, a, "right") - 1, 0)
    span = np.searchsorted(ends, b, "left") - code + 1
    stop = np.repeat(np.arange(a.size), span)
    window = np.arange(stop.size) - np.repeat(np.cumsum(span) - span, span)
    opening = window == 0
    window += code[stop]
    # Every window a stop reaches holds a positive piece of it: the
    # opening one ends after ``a``, a later one starts before ``b``.
    piece = np.minimum(b[stop], ends[window]) - np.where(
        opening, a[stop], starts[window]
    )
    keys, group = np.unique(
        (obj[stop] * n_gids + gid[stop]) * n + window, return_inverse=True
    )
    return (
        keys // (n_gids * n), keys // n % n_gids, keys % n,
        np.bincount(group[opening], minlength=keys.size),
        np.bincount(group, weights=piece, minlength=keys.size),
    )


def _scan_cells(moft: MOFT, starts, pois, min_dwell, radius, obs) -> CellTable:
    """The cell table of ``moft`` over granules starting at ``starts`` —
    the shared scan primitive of the serial path, the shards and the
    store.  Each segment batch goes through the disc kernel once per POI
    and the array passes of :func:`~repro.poi.segmentation.batch_stops`
    and :func:`_stop_rows`; one object's rows never depend on another's,
    which is what makes the three strategies byte-identical."""
    starts = np.asarray(starts, dtype=np.float64)
    found = [_NO_ROWS]
    for batch in moft.segments():
        stops = batch_stops(
            batch, pois, radius=radius, min_dwell=min_dwell, obs=obs
        )
        found.append(_stop_rows(*stops, starts, len(pois)))
    table = _cell_table(
        moft.segment_index().oids, *map(np.concatenate, zip(*found)),
        starts.size,
    )
    if obs is not None and table.visits.size:
        obs.incr("poi_visits", int(table.visits.sum()))
    return table


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
    cell table (:func:`_scan_cells`) rendered as dicts — what the differential
    suites compare with the per-trajectory walk :func:`_object_cells`."""
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


def _fold(group: np.ndarray, labels: list, values: np.ndarray) -> dict:
    """``{labels[g]: sum of values over the rows of group g}`` as a dict
    fold over the table's rows builds it: the left-to-right float sum
    (see :func:`_stop_rows`), a group without a non-zero row absent, keys
    in the order of their first such row."""
    rows = np.flatnonzero(values)
    first = np.full(len(labels), values.size)
    np.minimum.at(first, group[rows], rows)
    order = np.argsort(first, kind="stable")
    order = order[: np.count_nonzero(first < values.size)].tolist()
    sums = np.bincount(group, weights=values, minlength=len(labels))
    sums = sums[order].astype(values.dtype).tolist()
    return {labels[g]: total for g, total in zip(order, sums)}


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

    def _scan(self, oids: Optional[Sequence[Hashable]] = None) -> CellTable:
        moft = self.moft if oids is None else self.moft.restrict_objects(oids)
        return _scan_cells(
            moft, self.partition.starts, self.pois, self.min_dwell,
            self.radius, self.obs,
        )

    def _empty_cells(self) -> None:
        self._table = _cell_table((), *_NO_ROWS, len(self.partition))

    def _build_cells(self) -> None:
        self._table = self._scan()

    def _joined(self, keep, other: CellTable) -> CellTable:
        """Rows ``keep`` of the table plus ``other``'s (over other
        objects), interned and sorted again — into new arrays: a pinned
        clone goes on reading the table it has."""
        mine = self._table
        return _cell_table(
            mine.oids + other.oids,
            np.concatenate((mine.oid[keep], other.oid + len(mine.oids))),
            *(np.concatenate((x[keep], y)) for x, y in zip(mine[2:6], other[2:6])),
            len(self.partition),
        )

    def _fold_rows(self, start: int) -> None:
        """A *stop is not prefix-decomposable*: new samples can extend (or
        create) an episode that earlier rows alone did not justify, so
        the delta path re-segments every object that gained rows — whole
        trajectories, but only the touched objects, whose old rows go."""
        touched = set(self.moft.oid_column()[start:])
        stale = [i for i, oid in enumerate(self._table.oids) if oid in touched]
        self._table = self._joined(
            ~np.isin(self._table.oid, stale), self._scan(oids=touched)
        )

    def update(self) -> str:
        """:meth:`GranuleStore.update`, counting ``poi_store_updates``."""
        outcome = super().update()
        if outcome != "fresh":
            self.obs.incr("poi_store_updates")
        return outcome

    def _absorb(self, store: "PoiVisitStore") -> None:
        self._table = self._joined(slice(None), store._table)

    # -- reads ----------------------------------------------------------------

    def _labels(self, keys: np.ndarray, partition) -> list:
        """``(poi id, granule member)`` of ``gid * len(partition) + code`` keys."""
        gid, code = np.divmod(keys, len(partition))
        members = partition.members
        return [(self.gids[g], members[c]) for g, c in zip(gid.tolist(), code.tolist())]

    def _by_cell(self):
        """The per-(POI, granule) group-by: each row's group, each group's key."""
        return self._table.cell, self._labels(self._table.cells, self.partition)

    def _visitors(self, group: np.ndarray, labels: list) -> dict:
        """``{labels[g]: the distinct objects of group g's rows}`` in row
        (sorted-``repr``) order, keys in the order of their first row."""
        table = self._table
        by_group = np.argsort(group, kind="stable")
        oid, owner = table.oid[by_group], group[by_group]
        opens = np.ones(oid.size, dtype=bool)
        opens[1:] = owner[1:] != owner[:-1]
        fresh = opens.copy()
        fresh[1:] |= oid[1:] != oid[:-1]
        ids = [table.oids[i] for i in oid[fresh].tolist()]
        cuts = np.append(np.flatnonzero(opens[fresh]), len(ids)).tolist()
        return {
            labels[g]: tuple(ids[cuts[g]:cuts[g + 1]])
            for g in np.argsort(by_group[opens]).tolist()
        }

    def visit_counts(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """``{(poi id, granule member): visit count}`` — non-zero cells."""
        return _fold(*self._by_cell(), self._table.visits)

    def dwell_times(self) -> Dict[Tuple[Hashable, Hashable], float]:
        """``{(poi id, granule member): dwell}`` folded in canonical order."""
        return _fold(*self._by_cell(), self._table.dwell)

    def distinct_visitors(
        self,
    ) -> Dict[Tuple[Hashable, Hashable], Tuple[Hashable, ...]]:
        """``{(poi id, granule member): sorted visitor ids}``."""
        return self._visitors(*self._by_cell())

    def topk(self, k: int) -> Dict[Hashable, Tuple[Tuple[Hashable, int], ...]]:
        """Top-``k`` POIs by distinct visitors, per granule member.

        Ranks descending by distinct-visitor count, ties broken
        ascending by ``repr(poi id)``; members nobody visited are
        omitted.
        """
        if k < 1:
            raise PreAggError(f"top-k needs k >= 1, got {k}")
        table, members = self._table, self.partition.members
        gid, code = np.divmod(table.cells, len(members))
        # A row is one visitor of its cell; gid codes ascend with repr.
        count = np.bincount(table.cell, minlength=table.cells.size)
        order = np.lexsort((gid, -count, code))
        ranked: Dict[Hashable, list] = {}
        for c, g, n in zip(*(x[order].tolist() for x in (code, gid, count))):
            ranked.setdefault(members[c], []).append((self.gids[g], n))
        return {member: tuple(top[:k]) for member, top in ranked.items()}

    # -- rollups / cube -------------------------------------------------------

    def rollup_cells(self, parent_level: str):
        """Temporal roll-up: the same cells at a coarser granule level.

        Returns ``(parent_partition, visits, dwell, visitors)`` dicts
        keyed ``(poi id, parent member)``.
        """
        parent, mapping = self.partition.rollup_codes(self.time, parent_level)
        table = self._table
        keys, group = np.unique(
            table.gid * len(parent) + mapping[table.granule],
            return_inverse=True,
        )
        labels = self._labels(keys, parent)
        return (
            parent,
            _fold(group, labels, table.visits),
            _fold(group, labels, table.dwell),
            self._visitors(group, labels),
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
        return {
            "name": self.name,
            "granule_level": self.granule_level,
            "pois": len(self.pois),
            "objects": len(self._table.oids),
            "cells": self._table.cells.size,
            "visits": int(self._table.visits.sum()),
            "min_dwell": self.min_dwell,
            "stale": self.is_stale(),
        }

    def __repr__(self) -> str:
        return (
            f"PoiVisitStore({self.name!r}, granule={self.granule_level!r}, "
            f"pois={len(self.pois)}, objects={len(self._table.oids)})"
        )
