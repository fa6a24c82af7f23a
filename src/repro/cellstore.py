"""What a store built over a table snapshot *is*: the shared lifecycle.

Definition 4's summable form ``Q = Σ_{g∈C} h'(g)`` is materialized per
(geometry id, time granule) twice — over polygons (:class:`repro.preagg
.PreAggStore`) and over stop episodes (:class:`repro.poi.PoiVisitStore`).
Each kind keeps its cells as one immutable columnar table; the row
schemas and sort orders differ because the reads differ.  Snapshot,
staleness, ``update()``, ``clone()``, ``merge()``, registry matching and
the rule that a fold rebinds the table and never writes into it do not,
and live here once (DESIGN.md, "Store lifecycle").  This module imports
neither :mod:`repro.parallel` nor :mod:`repro.query`: both import the
stores.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import PreAggError
from repro.mo.moft import MOFT
from repro.obs import PipelineStats
from repro.olap.cube import Cube
from repro.olap.dimension import DimensionInstance, DimensionSchema
from repro.temporal.timedim import GranulePartition, TimeDimension


def frozen(table):
    """``table`` — the intern tuple, then columns — with every column
    read-only: a fold that wrote into a table a clone may share raises."""
    for column in table[1:]:
        column.setflags(write=False)
    return table


class GranuleStore:
    """A MOFT summarized per (geometry id, time granule), and its
    snapshot ``(table version, table rows, Time-dimension version)``.

    The cells are ``self._table``: a :func:`frozen` named tuple of
    columns whose ``oids`` field interns the objects it holds state for.
    A kind defines it and supplies ``_empty_cells()`` (bind the table of
    an empty MOFT over ``self.partition``), ``_build_cells()`` (bind the
    whole MOFT's), ``_fold_rows(start)`` (bring it forward over the
    appended rows ``start:``) and ``_absorb(store)`` (add in a store
    over a disjoint object set) — each by making a new table.
    """

    #: Attributes a query must pin, by value, to read this kind's cells
    #: (the keyword arguments of :meth:`serves`).
    CELL_KEY: Tuple[str, ...] = ()
    #: Build parameters baked into the cells besides granule level and
    #: geometry ids; shard stores must agree on them to merge.
    BUILD_PARAMS: Tuple[str, ...] = ()

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

    def update(self) -> str:
        """Bring the store up to its table: ``"fresh"`` (nothing moved),
        ``"delta"`` (the table grew; only the appended rows were folded)
        or ``"rebuild"`` (the Time dimension was edited, or rows
        vanished: the partition the cells are keyed by may not hold)."""
        if not self.is_stale():
            return "fresh"
        if (
            self.time.instance.version != self._dim_version
            or len(self.moft) < self._built_rows
        ):
            self.refresh()
            return "rebuild"
        snapshot = self.moft.version, len(self.moft)
        self._fold_rows(self._built_rows)
        self._built_version, self._built_rows = snapshot
        return "delta"

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
        counter: a row-identical table (a compaction) is this snapshot
        under the new version number; an extension is stale by its row
        count and keeps the built rows, so :meth:`update` folds exactly
        the appended ones.
        """
        out = self._copy()
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

    def _cells_cube(self, axis: str, measures: Sequence[str], rows) -> Cube:
        """``rows`` (one dict per non-empty cell) as an OLAP cube: the
        time attribute binds to the granule level, so rollups climb the
        real Time lattice; ``axis`` is a two-level gid -> layer dimension."""
        dimension = f"{self.name}_{axis}"
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
                (axis, dimension, "gid", instance),
            ],
            measures,
            rows,
        )
