"""Thematic layers: the geometric part of a GIS dimension.

A layer stores finitely many identified geometric elements per geometry
kind (nodes, lines, polylines, polygons).  The algebraic ``point`` level is
*not* stored — it is the infinite set of points of the plane, and the
rollup relation from points to stored elements is answered on demand by
:meth:`Layer.locate_point` (exactly as the paper describes the edge
``(point, polygon)`` "associates infinite point sets with polygons").

A layer also owns the geometry state derived from its elements
(:meth:`Layer.geometry_index`): one index per ``(kind, id set)``, the
:class:`~repro.geometry.kernels.PolygonPass` of a polygon answer, the
:class:`~repro.geometry.index.Grid` of any other.  Section 5 evaluates
the geometric subquery to a set of ids and then intersects trajectories
with those geometries; Piet computes that state once per GIS, and so
does this cache: every context, snapshot, store and shard task over the
layer reads it.  An id never changes its geometry (:meth:`Layer.add`
refuses a duplicate), so a key names the same polygons for the layer's
lifetime.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import weakref
from collections import OrderedDict
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import InstanceError, SchemaError
from repro.geometry.index import Grid
from repro.geometry.kernels import PolygonPass
from repro.geometry.overlay import geometries_intersect
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.gis import geometries as gk
from repro.obs import PipelineStats

#: Geometry indexes a layer keeps (:meth:`Layer.geometry_index`), least
#: recently used first out.
GEOMETRY_INDEXES = 16

#: The index of one geometric answer: a polygon answer's pass, or the
#: grid of any other.
GeometryIndex = Union[PolygonPass, Grid]

#: What names one answer's geometry state across processes: the layer
#: instance's token, the kind and the id set (:meth:`Layer.key`).
AnswerKey = Tuple[str, str, FrozenSet[Hashable]]

#: The serial part of a layer's token (the process id is the other).
_TOKENS = itertools.count()

#: This process's layers by token: those it made or unpickled, those a
#: fork handed it, and stand-ins (:meth:`Layer.answer`).
_LIVE: "weakref.WeakValueDictionary[str, Layer]" = (
    weakref.WeakValueDictionary()
)

#: The stand-ins for layers of other processes: nothing else here
#: refers to them.  One per foreign layer a shard task was sent the
#: geometries of, for the life of the process (a pool worker's).
_STAND_INS: Dict[str, "Layer"] = {}


def grid_of(index: GeometryIndex) -> Grid:
    """The broad-phase grid of an index (a pass holds one)."""
    return index.grid if isinstance(index, PolygonPass) else index


class Layer:
    """A named thematic layer holding identified geometries by kind."""

    def __init__(self, name: str) -> None:
        if not name:
            raise SchemaError("layer name must be non-empty")
        self.name = name
        self._elements: Dict[str, Dict[Hashable, object]] = {}
        self._start_caches()

    def _start_caches(self, token: Optional[str] = None) -> None:
        #: Names this layer instance in this process and in the shard
        #: tasks it sends (pid-qualified; never only the name: two worlds
        #: may share layer names and ids).  A pickle gets a new one.
        self.token = token or f"{os.getpid():x}.{next(_TOKENS):x}"
        _LIVE[self.token] = self
        #: (kind, id set) -> (ids in position order, index).
        self._indexes: "OrderedDict[Tuple[str, FrozenSet], tuple]" = (
            OrderedDict()
        )
        #: Per kind, the set of all its ids (what ``ids=None`` means).
        self._all: Dict[str, FrozenSet[Hashable]] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # The derived geometry state is this process's cache.
        return {"name": self.name, "_elements": self._elements}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._start_caches()

    def __repr__(self) -> str:
        sizes = {kind: len(elems) for kind, elems in self._elements.items()}
        return f"Layer({self.name!r}, {sizes})"

    # -- population ----------------------------------------------------------

    def add(self, kind: str, element_id: Hashable, geometry: object) -> None:
        """Add one identified geometry of the given kind.

        The geometry's Python type must match the kind; ids must be unique
        within (layer, kind).
        """
        cls = gk.expected_class(kind)
        if not isinstance(geometry, cls):
            raise InstanceError(
                f"kind {kind!r} expects {cls.__name__}, got "
                f"{type(geometry).__name__}"
            )
        bucket = self._elements.setdefault(kind, {})
        if element_id in bucket:
            raise InstanceError(
                f"duplicate id {element_id!r} for kind {kind!r} in layer "
                f"{self.name!r}"
            )
        bucket[element_id] = geometry
        self._all.pop(kind, None)

    # -- access -----------------------------------------------------------------

    def kinds(self) -> Set[str]:
        """Geometry kinds with at least one element."""
        return {kind for kind, elems in self._elements.items() if elems}

    def elements(self, kind: str) -> Dict[Hashable, object]:
        """Return ``{id -> geometry}`` for a kind (empty dict if none)."""
        gk.validate_kind(kind)
        return dict(self._elements.get(kind, {}))

    def element(self, kind: str, element_id: Hashable) -> object:
        """Return one geometry; unknown ids raise."""
        try:
            return self._elements[kind][element_id]
        except KeyError:
            raise InstanceError(
                f"no element {element_id!r} of kind {kind!r} in layer "
                f"{self.name!r}"
            ) from None

    def __contains__(self, key: Tuple[str, Hashable]) -> bool:
        kind, element_id = key
        return element_id in self._elements.get(kind, {})

    def size(self, kind: Optional[str] = None) -> int:
        """Number of elements of one kind, or of all kinds."""
        if kind is not None:
            return len(self._elements.get(kind, {}))
        return sum(len(elems) for elems in self._elements.values())

    # -- spatial queries ----------------------------------------------------------

    def locate_point(self, kind: str, point: Point) -> Set[Hashable]:
        """Ids of elements of ``kind`` containing ``point``.

        This is the paper's rollup relation ``r^{point,kind}_L`` evaluated
        at one point.  Points on shared boundaries belong to every adjacent
        element.  The candidates come from the grid of the kind's whole
        index (:meth:`geometry_index`).
        """
        gk.validate_kind(kind)
        elems = self._elements.get(kind)
        if not elems:
            return set()
        ids, index = self._indexed(kind)
        return {
            ids[p]
            for p in grid_of(index).query_point(point.x, point.y)
            if geometries_intersect(elems[ids[p]], point)
        }

    # -- derived geometry state ------------------------------------------

    def key(
        self, kind: str, ids: Optional[Iterable[Hashable]] = None
    ) -> AnswerKey:
        """What names the answer ``ids`` (default: every id) of ``kind``
        across processes (:meth:`answer`)."""
        return (self.token, kind, self._id_set(kind, ids))

    def _id_set(
        self, kind: str, ids: Optional[Iterable[Hashable]]
    ) -> FrozenSet[Hashable]:
        if ids is not None:
            return frozenset(ids)
        whole = self._all.get(kind)
        if whole is None:
            whole = self._all[kind] = frozenset(self._elements.get(kind, ()))
        return whole

    def geometry_index(
        self,
        kind: str,
        ids: Optional[Iterable[Hashable]] = None,
        obs: Sequence[PipelineStats] = (),
    ) -> GeometryIndex:
        """The index of the answer ``ids`` (default: every id) of
        ``kind``, over its geometries in id order (``repr`` of the id):
        the :class:`~repro.geometry.kernels.PolygonPass` when every one
        is a polygon (edge table, grid and decided cells, for the batched
        scans and the store folds), else the
        :class:`~repro.geometry.index.Grid`.

        Built once per ``(kind, frozenset(ids))`` and kept, the last
        :data:`GEOMETRY_INDEXES` of them, for every reader of the layer:
        contexts and their snapshots, :meth:`locate_point`, the stores
        kept over the layer, and the overlay (which reads the kind's
        whole index when kept, :meth:`kept_index`).  Counted as
        ``grid_index_builds`` / ``grid_index_cache_hits`` into each of
        ``obs``; build time lands in the ``index_build`` stage of the
        first."""
        return self._indexed(kind, ids, obs)[1]

    def kept_index(
        self, kind: str, ids: Optional[Iterable[Hashable]] = None
    ) -> Optional[GeometryIndex]:
        """:meth:`geometry_index` of this answer if it is kept (None:
        it is not; nothing is built)."""
        with self._lock:
            entry = self._indexes.get((kind, self._id_set(kind, ids)))
        return None if entry is None else entry[1]

    def _indexed(
        self,
        kind: str,
        ids: Optional[Iterable[Hashable]] = None,
        obs: Sequence[PipelineStats] = (),
    ) -> Tuple[Tuple[Hashable, ...], GeometryIndex]:
        """:meth:`geometry_index` with the ids in position order."""
        key = (kind, self._id_set(kind, ids))
        with self._lock:
            entry = self._indexes.get(key)
            if entry is not None:
                self._indexes.move_to_end(key)
        for observer in obs:
            observer.incr(
                "grid_index_builds" if entry is None
                else "grid_index_cache_hits"
            )
        if entry is not None:
            return entry
        elements = self._elements.get(kind, {})
        order = tuple(sorted(key[1], key=repr))
        answer = {gid: elements[gid] for gid in order}
        start = time.perf_counter()
        if all(isinstance(g, Polygon) for g in answer.values()):
            index = PolygonPass.of(answer)
        else:
            index = Grid.of(answer)
        if obs:
            obs[0].record("index_build", time.perf_counter() - start)
        with self._lock:
            # (Another thread may have built it meanwhile: keep one.)
            entry = self._indexes.setdefault(key, (order, index))
            self._indexes.move_to_end(key)
            while len(self._indexes) > GEOMETRY_INDEXES:
                self._indexes.popitem(last=False)
        return entry

    @staticmethod
    def answer(
        key: AnswerKey, geometries: Optional[Dict[Hashable, object]] = None
    ) -> Optional[Tuple[Dict[Hashable, object], GeometryIndex]]:
        """The geometries (in id order) and index of the answer ``key``
        names, from the layer instance its token names in this process:
        the layer itself, the copy a fork handed a pool worker, or a
        stand-in.  ``geometries`` (a re-sent shard task's) are adopted
        first, into a new stand-in if this process holds no such layer.
        None when the process lacks the layer or some id of it."""
        token, kind, ids = key
        layer = _LIVE.get(token)
        if geometries is not None:
            if layer is None:
                layer = object.__new__(Layer)
                layer.name, layer._elements = token, {}
                layer._start_caches(token)
                _STAND_INS[token] = layer
            bucket = layer._elements.setdefault(kind, {})
            missing = {g: geometries[g] for g in geometries if g not in bucket}
            if missing:
                bucket.update(missing)
                layer._all.pop(kind, None)
        if layer is None or not ids <= layer._elements.get(kind, {}).keys():
            return None
        order, index = layer._indexed(kind, ids)
        elements = layer._elements[kind]
        return {gid: elements[gid] for gid in order}, index
