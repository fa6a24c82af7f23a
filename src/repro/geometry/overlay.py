"""Layer overlay precomputation — the Piet strategy of Section 5.

The paper evaluates the geometric part of a query ("cities crossed by a
river, containing at least one store") against a *precomputed overlay* of
the thematic layers, so that at query time only geometry-id joins remain.
:class:`LayerOverlay` reproduces this: it holds one grid per layer
(:class:`~repro.geometry.index.Grid`, built when a relation first needs
it) and materializes, per (layer pair, predicate), the relation of
geometry-id pairs satisfying the predicate.  Query evaluation then
reduces to set operations over those id relations (see
:mod:`repro.query.evaluator`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import GeometryError
from repro.geometry.index import Grid, boxes_of, candidate_pairs
from repro.geometry.point import BoundingBox, Point
from repro.geometry.poi import Poi
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment

Geometry = object  # Point | Segment | Polyline | Polygon | Poi (duck-typed)


def geometry_bbox(geom: Geometry) -> BoundingBox:
    """Return the bounding box of any supported geometry."""
    if isinstance(geom, Point):
        return BoundingBox(geom.x, geom.y, geom.x, geom.y)
    if isinstance(geom, (Segment, Polyline, Polygon, Poi)):
        return geom.bbox
    raise GeometryError(f"unsupported geometry type: {type(geom).__name__}")


def geometries_intersect(a: Geometry, b: Geometry) -> bool:
    """Exact intersection test across all supported geometry-type pairs."""
    if isinstance(a, Point) and isinstance(b, Point):
        return a == b
    if isinstance(a, Point):
        return geometries_intersect(b, a)
    if isinstance(b, Point):
        if isinstance(a, Segment):
            return a.contains_point(b)
        if isinstance(a, Polyline):
            return a.contains_point(b)
        if isinstance(a, Polygon):
            return a.contains_point(b)
        if isinstance(a, Poi):
            return a.contains_point(b)
    if isinstance(a, Poi) and isinstance(b, Poi):
        return a.intersects_poi(b)
    if isinstance(a, Poi):
        if isinstance(b, Segment):
            return a.intersects_segment(b)
        if isinstance(b, Polyline):
            return a.intersects_polyline(b)
        if isinstance(b, Polygon):
            return a.intersects_polygon(b)
    if isinstance(b, Poi):
        return geometries_intersect(b, a)
    if isinstance(a, Segment) and isinstance(b, Segment):
        return a.intersects(b)
    if isinstance(a, Segment) and isinstance(b, Polyline):
        return b.intersects_segment(a)
    if isinstance(a, Polyline) and isinstance(b, Segment):
        return a.intersects_segment(b)
    if isinstance(a, Segment) and isinstance(b, Polygon):
        return b.intersects_segment(a)
    if isinstance(a, Polygon) and isinstance(b, Segment):
        return a.intersects_segment(b)
    if isinstance(a, Polyline) and isinstance(b, Polyline):
        return a.intersects_polyline(b)
    if isinstance(a, Polyline) and isinstance(b, Polygon):
        return b.intersects_polyline(a)
    if isinstance(a, Polygon) and isinstance(b, Polyline):
        return a.intersects_polyline(b)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return a.intersects_polygon(b)
    raise GeometryError(
        f"unsupported geometry pair: {type(a).__name__}, {type(b).__name__}"
    )


def geometry_contains(container: Geometry, contained: Geometry) -> bool:
    """Exact containment test: does ``container`` fully contain ``contained``?

    Only polygons and POI discs can contain other geometries; everything
    else contains at most points (on itself).
    """
    if isinstance(container, Poi):
        if isinstance(contained, Point):
            return container.contains_point(contained)
        if isinstance(contained, Segment):
            return container.contains_segment(contained)
        if isinstance(contained, Polyline):
            return all(
                container.contains_segment(s) for s in contained.segments()
            )
        if isinstance(contained, Polygon):
            return container.contains_polygon(contained)
        if isinstance(contained, Poi):
            return container.contains_poi(contained)
    if isinstance(container, Polygon) and isinstance(contained, Poi):
        return contained.inside_polygon(container)
    if isinstance(container, Polygon):
        if isinstance(contained, Point):
            return container.contains_point(contained)
        if isinstance(contained, Segment):
            intervals = container.clip_segment(contained)
            return intervals == [(0.0, 1.0)]
        if isinstance(contained, Polyline):
            # Batched form of "every chain segment clips to [(0, 1)]" —
            # the clip kernel answers far-field segments vectorized and
            # falls back to Polygon.clip_segment near the boundary.
            from repro.geometry import kernels

            segments = contained.segments()
            if not segments:
                return True
            import numpy as np

            x0 = np.array([float(s.start.x) for s in segments])
            y0 = np.array([float(s.start.y) for s in segments])
            x1 = np.array([float(s.end.x) for s in segments])
            y1 = np.array([float(s.end.y) for s in segments])
            return bool(
                kernels.segments_fully_inside(container, x0, y0, x1, y1).all()
            )
        if isinstance(contained, Polygon):
            return container.contains_polygon(contained)
    if isinstance(contained, Point):
        if isinstance(container, Segment):
            return container.contains_point(contained)
        if isinstance(container, Polyline):
            return container.contains_point(contained)
        if isinstance(container, Point):
            return container == contained
    return False


#: Predicates the overlay can precompute.
PREDICATES = ("intersects", "contains", "within")
#: Each predicate's converse: ``a P b`` exactly when ``b CONVERSE[P] a``.
CONVERSE = {
    "intersects": "intersects",
    "contains": "within",
    "within": "contains",
}


class LayerOverlay:
    """Precomputed cross-layer geometry-id relations.

    Parameters
    ----------
    layers:
        Mapping ``layer name -> {geometry id -> geometry}``.  Geometry ids
        must be unique within their layer.
    kept:
        A layer's :class:`~repro.geometry.index.Grid` by name, over its
        geometries in id order (``repr`` of the id), where one is kept
        (None where not): a GIS hands its layers' kept indexes
        (:meth:`repro.gis.layer.Layer.kept_index`).  Any other grid is
        built for the relation that needs it.

    The pairwise relations are computed lazily per ``(layer_a, layer_b,
    predicate)`` and cached, so building the overlay is cheap and only the
    pairs a workload touches are materialized — mirroring Piet's selective
    overlay precomputation.  :meth:`precompute_all` forces the full overlay.
    """

    def __init__(
        self,
        layers: Dict[str, Dict[Hashable, Geometry]],
        kept: Optional[Callable[[str], Optional[Grid]]] = None,
    ) -> None:
        if not layers:
            raise GeometryError("overlay needs at least one layer")
        self._layers: Dict[str, Dict[Hashable, Geometry]] = {
            name: dict(geoms) for name, geoms in layers.items()
        }
        self._kept = kept
        self._cache: Dict[
            Tuple[str, str, str], Set[Tuple[Hashable, Hashable]]
        ] = {}

    # -- layer access --------------------------------------------------------

    @property
    def layer_names(self) -> List[str]:
        """Names of all layers in the overlay."""
        return sorted(self._layers)

    def layer(self, name: str) -> Dict[Hashable, Geometry]:
        """Return the geometry mapping of a layer."""
        try:
            return self._layers[name]
        except KeyError:
            raise GeometryError(f"unknown layer: {name!r}") from None

    def _grid(self, name: str) -> Grid:
        """A non-empty layer's grid, positions in id order."""
        grid = self._kept(name) if self._kept is not None else None
        if grid is None:
            geoms = self._layers[name]
            grid = Grid.of({g: geoms[g] for g in sorted(geoms, key=repr)})
        return grid

    # -- precomputed relations ------------------------------------------------

    def pairs(
        self, layer_a: str, layer_b: str, predicate: str = "intersects"
    ) -> Set[Tuple[Hashable, Hashable]]:
        """Return all ``(id_a, id_b)`` with ``predicate(geom_a, geom_b)``.

        ``predicate`` is one of ``intersects`` (symmetric), ``contains``
        (geom_a contains geom_b) or ``within`` (geom_a inside geom_b).
        """
        if predicate not in PREDICATES:
            raise GeometryError(
                f"unknown predicate {predicate!r}; expected one of {PREDICATES}"
            )
        key = (layer_a, layer_b, predicate)
        if key not in self._cache:
            self._cache[key] = self._compute_pairs(layer_a, layer_b, predicate)
        return self._cache[key]

    def related(
        self,
        layer_a: str,
        geometry_id: Hashable,
        layer_b: str,
        predicate: str = "intersects",
    ) -> Set[Hashable]:
        """Return ids in ``layer_b`` related to one geometry of ``layer_a``."""
        return {
            id_b
            for id_a, id_b in self.pairs(layer_a, layer_b, predicate)
            if id_a == geometry_id
        }

    def precompute_all(self) -> int:
        """Materialize every (ordered layer pair, predicate) relation.

        Returns the number of relations computed.  This is the full Piet
        overlay; benchmarks compare it against the lazy/naive strategies.
        """
        count = 0
        names = self.layer_names
        for a in names:
            for b in names:
                if a == b:
                    continue
                for predicate in PREDICATES:
                    self.pairs(a, b, predicate)
                    count += 1
        return count

    # -- persistence ------------------------------------------------------------

    def export_cache(self) -> Dict:
        """Serialize the materialized relations to a JSON-compatible dict.

        The Piet strategy's whole point is precomputing the overlay once;
        exporting the cache lets a deployment persist that work across
        processes.  Only relations with string/number ids serialize; the
        layer geometries themselves are not included (the cache is only
        valid for the same layer contents).
        """
        return {
            "relations": [
                {
                    "layer_a": key[0],
                    "layer_b": key[1],
                    "predicate": key[2],
                    "pairs": sorted(
                        [list(pair) for pair in pairs], key=repr
                    ),
                }
                for key, pairs in sorted(self._cache.items())
            ]
        }

    def import_cache(self, data: Dict) -> int:
        """Load previously exported relations; returns how many were loaded.

        Entries referring to unknown layers are rejected with
        :class:`GeometryError` (a stale cache must not silently answer for
        a different world).  Loaded relations overwrite existing ones.
        """
        try:
            relations = data["relations"]
        except (KeyError, TypeError):
            raise GeometryError("malformed overlay cache") from None
        loaded = 0
        for entry in relations:
            try:
                layer_a = entry["layer_a"]
                layer_b = entry["layer_b"]
                predicate = entry["predicate"]
                pairs = entry["pairs"]
            except (KeyError, TypeError):
                raise GeometryError("malformed overlay cache entry") from None
            self.layer(layer_a)
            self.layer(layer_b)
            if predicate not in PREDICATES:
                raise GeometryError(
                    f"unknown predicate {predicate!r} in overlay cache"
                )
            self._cache[(layer_a, layer_b, predicate)] = {
                (a, b) for a, b in pairs
            }
            loaded += 1
        return loaded

    def _compute_pairs(
        self, layer_a: str, layer_b: str, predicate: str
    ) -> Set[Tuple[Hashable, Hashable]]:
        """The relation, from one broad phase of all of ``layer_a``'s
        boxes against ``layer_b``'s grid, each candidate pair then
        tested exactly."""
        geoms_a = self.layer(layer_a)
        geoms_b = self.layer(layer_b)
        result: Set[Tuple[Hashable, Hashable]] = set()
        if not geoms_a or not geoms_b:
            return result
        ids_a, ids_b = sorted(geoms_a, key=repr), sorted(geoms_b, key=repr)
        pos, at = candidate_pairs(
            self._grid(layer_b), *boxes_of({a: geoms_a[a] for a in ids_a})
        )
        for b, a in zip(pos.tolist(), at.tolist()):
            geom_a, geom_b = geoms_a[ids_a[a]], geoms_b[ids_b[b]]
            if predicate == "intersects":
                hit = geometries_intersect(geom_a, geom_b)
            elif predicate == "contains":
                hit = geometry_contains(geom_a, geom_b)
            else:  # within
                hit = geometry_contains(geom_b, geom_a)
            if hit:
                result.add((ids_a[a], ids_b[b]))
        return result
