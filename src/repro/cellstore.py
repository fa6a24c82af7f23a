"""What a store built over a table snapshot *is*: the shared lifecycle.

Definition 4's summable form ``Q = Σ_{g∈C} h'(g)`` is materialized per
(geometry id, time granule) twice — over polygons (:class:`repro.preagg
.PreAggStore`) and over stop episodes (:class:`repro.poi.PoiVisitStore`).
Each kind keeps its cells as one immutable columnar table; the row
schemas and sort orders differ because the reads differ.  Snapshot,
staleness, ``update()``, ``clone()``, ``merge()``, registry matching,
the roll-up up either hierarchy and the rule that a fold rebinds the
table and never writes into it do not, and live here once (DESIGN.md,
"Store lifecycle").  This module imports neither :mod:`repro.parallel`
nor :mod:`repro.query`: both import the stores.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
    Set, Tuple,
)

import numpy as np

from repro.errors import PreAggError, RollupError
from repro.mo.moft import MOFT
from repro.obs import PipelineStats
from repro.olap.cube import Cube
from repro.olap.dimension import DimensionInstance, DimensionSchema
from repro.temporal.timedim import GranulePartition, TimeDimension

#: Store generations, unique across stores: a store takes the next one
#: whenever what it answers may have changed.
_GENERATIONS = itertools.count()


def frozen(table):
    """``table`` — the intern tuple, then columns — with every column
    read-only: a fold that wrote into a table a clone may share raises."""
    for column in table[1:]:
        column.setflags(write=False)
    return table


def cell_labels(keys: np.ndarray, gids, partition: GranulePartition):
    """``(gid, granule member)`` of ``gid code * len(partition) + code``
    keys, as a list."""
    gid, code = np.divmod(keys, len(partition))
    members = partition.members
    return [(gids[g], members[c]) for g, c in zip(gid.tolist(), code.tolist())]


class RollupRows(NamedTuple):
    """One block of a kind's rows as :meth:`GranuleStore.rollup` reads
    them: per row its gid code, child granule code and oid code, its
    weight in each measure, and per object set whether it belongs."""

    gid: np.ndarray
    granule: np.ndarray
    oid: np.ndarray
    measures: Dict[str, np.ndarray]
    sets: Dict[str, np.ndarray]


class Rollup(NamedTuple):
    """A store's cells up either hierarchy, as columns: ``keys`` are
    ``parent gid code * len(partition) + parent granule`` of the parent
    cells some row maps to, ascending (``gids`` is sorted by ``repr``),
    ``measures[name]`` each key's sum, ``sets[name]`` CSR ``(offsets,
    codes)`` — key ``i`` holds ``oids[codes[offsets[i]:offsets[i + 1]]]``,
    codes ascending."""

    partition: GranulePartition
    gids: Tuple[Hashable, ...]
    oids: Tuple[Hashable, ...]
    keys: np.ndarray
    measures: Dict[str, np.ndarray]
    sets: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def labels(self) -> list:
        """``(parent gid, parent granule member)`` per key."""
        return cell_labels(self.keys, self.gids, self.partition)

    def measure(self, name: str) -> dict:
        """``{label: sum}`` of one measure in key order, a zero sum absent."""
        sums = self.measures[name].tolist()
        return {label: s for label, s in zip(self.labels(), sums) if s}

    def objects(self, name: str) -> List[Tuple[Hashable, ...]]:
        """Per key, the objects of one set in code order."""
        offsets, codes = self.sets[name]
        ids = [self.oids[c] for c in codes.tolist()]
        cuts = offsets.tolist()
        return [tuple(ids[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


class GranuleStore:
    """A MOFT summarized per (geometry id, time granule), and its
    snapshot ``(table version, table rows, Time-dimension version)``.

    The cells are ``self._table``: a :func:`frozen` named tuple of
    columns whose ``oids`` field interns the objects it holds state for.
    A kind defines it and supplies ``_empty_cells()`` (bind the table of
    an empty MOFT over ``self.partition``), ``_build_cells()`` (bind the
    whole MOFT's), ``_fold_rows(start)`` (bring it forward over the
    appended rows ``start:``) and ``_absorb(store)`` (add in a store
    over a disjoint object set) — each by making a new table — and
    ``_rollup_rows(time_map)``, its rows as :meth:`rollup` groups them.
    """

    #: Attributes a query must pin, by value, to read this kind's cells
    #: (the keyword arguments of :meth:`serves`).
    CELL_KEY: Tuple[str, ...] = ()
    #: Build parameters baked into the cells besides granule level and
    #: geometry ids; shard stores must agree on them to merge.
    BUILD_PARAMS: Tuple[str, ...] = ()
    #: The name of the geometry-id axis of :meth:`as_cube`.
    CUBE_AXIS = "geometry"

    def __init__(
        self,
        moft: MOFT,
        time: TimeDimension,
        granule_level: str,
        geometries: Mapping[Hashable, object],
        layer: Optional[str],
        kind: Optional[str],
        name: str,
        obs: Optional[PipelineStats],
    ) -> None:
        self.moft = moft
        self.time = time
        self.granule_level = granule_level
        self.geometries = dict(geometries)
        self.layer = layer
        self.kind = kind
        self.name = name
        self.obs = obs if obs is not None else PipelineStats()
        self.gids = tuple(sorted(self.geometries, key=repr))
        self._gid_code = {gid: code for code, gid in enumerate(self.gids)}
        self.partition: GranulePartition = time.granules(granule_level)
        self._dim_version = time.instance.version
        # No table version yet: stale until the first build.
        self._built_version: Optional[int] = None
        self._built_rows = 0
        #: Moves on every build, fold, clone and merge, so that a reader
        #: holding what it resolved against this store (a context's
        #: prepared leaves) can tell that the store changed.
        self.generation = next(_GENERATIONS)

    # -- snapshot and maintenance ----------------------------------------------

    def is_stale(self) -> bool:
        """True when the MOFT or the Time dimension moved past the snapshot."""
        return (
            self.moft.version != self._built_version
            or len(self.moft) != self._built_rows
            or self.time.instance.version != self._dim_version
        )

    def refresh(self) -> None:
        """Rebuild every cell from the current MOFT and Time dimension."""
        self.partition = self.time.granules(self.granule_level)
        self._dim_version = self.time.instance.version
        snapshot = self.moft.version, len(self.moft)
        self._empty_cells()
        self._build_cells()
        self._built_version, self._built_rows = snapshot
        self.generation = next(_GENERATIONS)

    def update(self) -> str:
        """Bring the store up to its table: ``"fresh"`` (nothing moved),
        ``"delta"`` (the table grew; only the appended rows were folded)
        or ``"rebuild"`` (the Time dimension was edited, or rows
        vanished: the partition the cells are keyed by may not hold; or
        the table orders its objects unlike the cells, see
        :meth:`_codes_align`)."""
        if not self.is_stale():
            return "fresh"
        if (
            self.time.instance.version != self._dim_version
            or len(self.moft) < self._built_rows
            or not self._codes_align()
        ):
            self.refresh()
            return "rebuild"
        snapshot = self.moft.version, len(self.moft)
        self._fold_rows(self._built_rows)
        self._built_version, self._built_rows = snapshot
        self.generation = next(_GENERATIONS)
        return "delta"

    def _codes_align(self) -> bool:
        """Whether ``_fold_rows`` can key the appended rows' objects the
        way the cells do (a kind that folds by the table's object codes
        says when it cannot)."""
        return True

    def _copy(self):
        """A shallow copy, set attribute by attribute in ``__init__``'s
        order.  ``copy.copy`` (``__dict__.update``) loses the class's
        shared-key layout, and every ``self.x`` in a read's inner loop
        then costs ~17 ns more: +7 % on a store-served snapshot query."""
        out = object.__new__(type(self))
        for name, value in vars(self).items():
            setattr(out, name, value)
        return out

    def clone(self, moft: Optional[MOFT] = None):
        """Copy-on-write duplicate, optionally repointed at a new MOFT.

        The streaming maintainer (:mod:`repro.ingest`) folds each flush
        into a clone bound to the new snapshot table; readers keep the
        store they pinned.  Nothing is copied: a fold rebinds ``_table``,
        so the two share it until either folds.  ``moft`` must extend
        this store's table as a row prefix and carries its own version
        counter: a row-identical table is this snapshot under the new
        version number; an extension is stale by its row count and keeps
        the built rows, so :meth:`update` folds exactly the appended
        ones.
        """
        out = self._copy()
        out.generation = next(_GENERATIONS)
        if moft is not None and moft is not self.moft:
            out.moft = moft
            if len(moft) == self._built_rows:
                out._built_version = moft.version
        return out

    @classmethod
    def merge(
        cls,
        stores: Sequence["GranuleStore"],
        moft: MOFT,
        snapshot: Optional[Tuple[int, int]] = None,
        time: Optional[TimeDimension] = None,
    ):
        """Union per-shard stores built over an object partition of ``moft``.

        ``snapshot`` is the table's ``(version, rows)`` taken *before*
        partitioning and becomes the merged store's, so an append racing
        the build leaves a stale store :meth:`update` brings forward;
        without it the table as it stands is the reference.  ``time`` is
        the dimension the shard stores were built from, for the merged
        store to watch: stores that came back from another process hold
        unpickled copies, which no later edit reaches.  Refused,
        before any cell is touched: zero stores, cell schemas that
        disagree, a shared object, built rows not adding up to the
        reference — a truncated shard would under-count silently.
        """
        if not stores:
            raise PreAggError("cannot merge zero stores")
        head = stores[0]
        for other in stores[1:]:
            if other._schema() != head._schema():
                raise PreAggError(
                    "shard stores disagree on the cell schema (granules, "
                    "geometry ids or build parameters); they were not "
                    "built from one partitioning"
                )
        seen: Set[Hashable] = set()
        for store in stores:
            overlap = seen.intersection(store._objects())
            if overlap:
                raise PreAggError(
                    f"shard stores share objects (e.g. "
                    f"{min(overlap, key=repr)!r}); merge needs an object "
                    f"partition"
                )
            seen.update(store._objects())
        if snapshot is None:
            snapshot = moft.version, len(moft)
        covered = sum(store._built_rows for store in stores)
        if covered != snapshot[1]:
            raise PreAggError(
                f"shard stores cover {covered} rows but the table has "
                f"{snapshot[1]}; a shard is missing or truncated — "
                f"refusing an under-counting merge"
            )
        merged = head._copy()
        merged.moft = moft
        if time is not None:
            merged.time = time
        merged._empty_cells()
        for store in stores:
            merged._absorb(store)
        merged._built_version, merged._built_rows = snapshot
        merged.generation = next(_GENERATIONS)
        return merged

    def _objects(self) -> Tuple[Hashable, ...]:
        """The objects the table holds state for."""
        return self._table.oids

    def _schema(self) -> tuple:
        """What two stores must agree on to hold cells of one rollup."""
        return (
            self.granule_level, self.partition.members, self.gids,
            *(getattr(self, name) for name in self.BUILD_PARAMS),
        )

    def serves(
        self,
        moft: MOFT,
        layer: Optional[str],
        ids: Iterable[Hashable],
        **cell_key,
    ) -> bool:
        """The registry predicate: this table *by identity*, this layer
        (None: any), every id materialized, and ``cell_key`` exactly this
        kind's :attr:`CELL_KEY` at this store's values — so a query only
        meets stores of the kind that answers it.  Staleness is the
        caller's call."""
        return (
            self.moft is moft
            and (layer is None or self.layer == layer)
            and cell_key == {n: getattr(self, n) for n in self.CELL_KEY}
            and self._gid_code.keys() >= set(ids)
        )

    # -- roll-up and cube exposure --------------------------------------------

    def rollup(
        self,
        time_level: Optional[str] = None,
        space: Optional[Mapping[Hashable, Hashable]] = None,
    ) -> Rollup:
        """The cells rolled up the Time lattice to ``time_level`` and along
        ``space`` (``{gid: parent}``); a hierarchy left out stays put.

        One group-by of the kind's rows (:meth:`_rollup_rows`) by parent
        cell: a measure is ``np.bincount`` per block of rows — floats add
        left to right in table order — and the blocks' sums add; an
        object set is one ``np.unique`` over (parent cell, object), never
        a sum of child counts.  :class:`RollupError`, before a row is
        read, for a granule straddling two parents or an unmapped gid.
        """
        partition, time_map = self.partition, np.arange(len(self.partition))
        if time_level is not None:
            partition, time_map = self.partition.rollup_codes(
                self.time, time_level
            )
        gids, space_map = self.gids, np.arange(len(self.gids))
        if space is not None:
            unmapped = [gid for gid in self.gids if gid not in space]
            if unmapped:
                raise RollupError(
                    f"geometry {unmapped[0]!r} has no spatial parent in the "
                    f"mapping; cannot roll up without dropping its cells"
                )
            gids = tuple(sorted({space[gid] for gid in self.gids}, key=repr))
            code = {parent: i for i, parent in enumerate(gids)}
            space_map = np.array([code[space[gid]] for gid in self.gids])
        blocks = self._rollup_rows(time_map)
        keys, group = np.unique(
            np.concatenate([
                space_map[rows.gid] * len(partition) + time_map[rows.granule]
                for rows in blocks
            ]),
            return_inverse=True,
        )
        parts = np.split(
            group, np.cumsum([rows.oid.size for rows in blocks])[:-1]
        )
        measures = {}
        for name, weights in blocks[0].measures.items():
            sums = sum(
                np.bincount(part, rows.measures[name], keys.size)
                for part, rows in zip(parts, blocks)
            )
            measures[name] = sums.astype(weights.dtype)
        oids = self._objects()
        width = max(len(oids), 1)
        oid = np.concatenate([rows.oid for rows in blocks]).astype(np.int64)
        sets = {}
        for name in blocks[0].sets:
            member = np.concatenate([rows.sets[name] for rows in blocks])
            pairs = np.unique(group[member] * width + oid[member])
            offsets = np.searchsorted(pairs // width, np.arange(keys.size + 1))
            sets[name] = offsets, pairs % width
        return Rollup(partition, gids, oids, keys, measures, sets)

    def as_cube(self) -> Cube:
        """The finest cells, ``self.rollup()``, as an OLAP :class:`Cube`:
        a fact row per non-empty cell, in key order, with the kind's
        measures and the size of each object set.  The time attribute
        binds to the granule level, so cube rollups climb the real Time
        lattice; :attr:`CUBE_AXIS` is a two-level gid -> layer dimension.
        The set sizes are per-cell distinct counts and do not sum (an
        object in two cells counts in both): a coarser one is
        :meth:`rollup`'s.
        """
        cells = self.rollup()
        measures = [*cells.measures, *cells.sets]
        columns = [sums.tolist() for sums in cells.measures.values()] + [
            np.diff(offsets).tolist() for offsets, _ in cells.sets.values()
        ]
        rows = [
            {"granule": member, self.CUBE_AXIS: gid, **dict(zip(measures, row))}
            for (gid, member), *row in zip(cells.labels(), *columns)
        ]
        dimension = f"{self.name}_{self.CUBE_AXIS}"
        instance = DimensionInstance(
            DimensionSchema(dimension, [("gid", "layer")])
        )
        label = self.layer if self.layer is not None else self.name
        for gid in self.gids:
            instance.set_rollup("gid", gid, "layer", label)
        time = self.time.instance
        return Cube.from_rows(
            f"{self.name}_cells",
            [
                ("granule", time.schema.name, self.granule_level, time),
                (self.CUBE_AXIS, dimension, "gid", instance),
            ],
            measures,
            rows,
        )
