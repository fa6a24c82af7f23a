"""Spatial OLAP: the gid → parent mapping and drill-down over store cells.

The paper's aggregation walks the *temporal* hierarchy (hour → day → …);
the POI workload adds the symmetric *spatial* walk: fold per-place cells
up a geometric containment mapping (place → neighborhood → city) and
drill an aggregated group back down to the contributing places.  The
roll-up itself is the stores' one group-by,
:meth:`repro.cellstore.GranuleStore.rollup` (``space=mapping``); this
module makes the mapping and answers the drill-down against the base
cells — the canonical dicts the stores emit, ``{(gid, granule member):
value}``.

The mapping itself usually comes from geometry:
:func:`poi_parent_mapping` locates every disc's center inside a parent
layer's polygons, which is the α-composed rollup of Definition 3 made
concrete for discs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Tuple

from repro.errors import RollupError

__all__ = [
    "poi_parent_mapping",
    "spatial_drilldown",
]


def spatial_drilldown(
    cells: Mapping[Tuple[Hashable, Hashable], object],
    mapping: Mapping[Hashable, Hashable],
    parent: Hashable,
) -> Dict[Tuple[Hashable, Hashable], object]:
    """The fine cells contributing to one rolled-up parent.

    Drill-down cannot invent detail an aggregate destroyed, so it is
    answered against the *base* cells: the sub-dict whose gids map to
    ``parent``, in the cells' canonical order.  An unknown parent raises
    :class:`RollupError` (a typo should not read as "no activity").
    """
    if parent not in set(mapping.values()):
        raise RollupError(
            f"unknown spatial parent {parent!r}; known parents: "
            f"{sorted(set(mapping.values()), key=repr)}"
        )
    return {
        key: value
        for key, value in cells.items()
        if mapping.get(key[0]) == parent
    }


def poi_parent_mapping(
    gis,
    poi_layer: str,
    parent_layer: str,
    parent_kind: str = "polygon",
) -> Dict[Hashable, Hashable]:
    """Map each POI gid to the parent geometry containing its center.

    The disc's center point decides membership (a disc straddling a
    boundary belongs where its center lies, matching how the synthetic
    city assigns nodes to blocks).  POIs whose center no parent contains
    raise :class:`RollupError` — spatial rollup needs a partition, and a
    gap would silently lose visits.
    """
    from repro.geometry.overlay import geometry_contains
    from repro.gis import geometries as gk

    pois = gis.layer(poi_layer).elements(gk.POI)
    parents = gis.layer(parent_layer).elements(parent_kind)
    mapping: Dict[Hashable, Hashable] = {}
    for gid in sorted(pois, key=repr):
        center = pois[gid].center
        for parent_gid in sorted(parents, key=repr):
            if geometry_contains(parents[parent_gid], center):
                mapping[gid] = parent_gid
                break
        else:
            raise RollupError(
                f"POI {gid!r} center {center!r} lies in no "
                f"{parent_layer!r}:{parent_kind!r} geometry"
            )
    return mapping
