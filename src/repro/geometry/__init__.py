"""Computational-geometry substrate for the GISOLAP moving-objects model.

Pure-Python (plus NumPy in bulk paths elsewhere) geometry kernel: points,
segments, polylines, polygons with holes, robust predicates, a uniform-grid
spatial index, and the layer-overlay precomputation used by the Piet
evaluation strategy.
"""

from repro.geometry.point import BoundingBox, Point
from repro.geometry.poi import Poi
from repro.geometry.segment import Segment
from repro.geometry.polyline import Polyline
from repro.geometry.polygon import Polygon
from repro.geometry.index import Grid
from repro.geometry.overlay import (
    LayerOverlay,
    geometries_intersect,
    geometry_bbox,
    geometry_contains,
)
from repro.geometry.algorithms import (
    convex_hull,
    is_convex,
    polygon_intersection_area,
    polyline_length_inside,
    triangulate,
)
from repro.geometry.io import from_geojson, from_wkt, to_geojson, to_wkt

__all__ = [
    "BoundingBox",
    "Point",
    "Poi",
    "Segment",
    "Polyline",
    "Polygon",
    "Grid",
    "LayerOverlay",
    "geometries_intersect",
    "geometry_bbox",
    "geometry_contains",
    "convex_hull",
    "is_convex",
    "polygon_intersection_area",
    "polyline_length_inside",
    "triangulate",
    "from_geojson",
    "from_wkt",
    "to_geojson",
    "to_wkt",
]
