"""GIS dimension schemas — Definition 1 of the paper.

A GIS dimension schema is a tuple ``(H, A, D)``:

* ``H`` — one granularity graph ``H(L)`` per layer, over geometry kinds,
  with edges from finer to coarser kinds, a unique source ``point`` and the
  sink ``All``;
* ``A`` — partial functions ``Att: A → G × L`` placing application
  attributes (neighborhood, river, school, …) on a geometry kind of a
  layer;
* ``D`` — classical OLAP dimension schemas for the application part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import SchemaError
from repro.gis import geometries as gk
from repro.olap.dimension import DimensionSchema, LevelOrder


class LayerHierarchy:
    """The granularity graph ``H(L)`` of one layer (Definition 1).

    Conditions checked at construction:

    (a/b) nodes are geometry kinds; an edge ``(Gi, Gj)`` states that Gj is
    composed of Gi geometries;
    (c) ``All`` is present and has no outgoing edges;
    (d) exactly one node, ``point``, has no incoming edges.

    The graph is a :class:`~repro.olap.dimension.LevelOrder`, as an
    application dimension's levels are.
    """

    def __init__(
        self,
        layer_name: str,
        edges: Iterable[Tuple[str, str]] | None = None,
    ) -> None:
        if not layer_name:
            raise SchemaError("layer name must be non-empty")
        self.layer_name = layer_name
        chosen = tuple(edges) if edges is not None else gk.DEFAULT_COMPOSITION
        for finer, coarser in chosen:
            gk.validate_kind(finer)
            gk.validate_kind(coarser)
            if finer == coarser:
                raise SchemaError(f"self edge on kind {finer!r}")
        kinds = {kind for pair in chosen for kind in pair}
        for required in (gk.POINT, gk.ALL):
            if required not in kinds:
                raise SchemaError(
                    f"hierarchy of layer {layer_name!r} must include "
                    f"{required!r}"
                )
        self._order = LevelOrder(
            chosen,
            cycle=f"hierarchy of layer {layer_name!r} has a cycle",
            sources=f"hierarchy of layer {layer_name!r} must have 'point' "
            f"as its only source",
            source=gk.POINT,
        )

    @property
    def kinds(self) -> Set[str]:
        """All geometry kinds appearing in the hierarchy."""
        return set(self._order)

    def edges(self) -> List[Tuple[str, str]]:
        """All direct (finer, coarser) pairs."""
        return self._order.edges()

    def is_coarsening(self, finer: str, coarser: str) -> bool:
        """True when ``finer`` ⪯ ``coarser`` transitively."""
        self._check(finer)
        self._check(coarser)
        return self._order.leq(finer, coarser)

    def _check(self, kind: str) -> None:
        if kind not in self._order:
            raise SchemaError(
                f"kind {kind!r} not in hierarchy of layer {self.layer_name!r}"
            )

    def __repr__(self) -> str:
        return f"LayerHierarchy({self.layer_name!r}, kinds={sorted(self.kinds)})"


@dataclass(frozen=True)
class AttributePlacement:
    """One entry of the ``Att`` function: attribute → (kind, layer)."""

    attribute: str
    kind: str
    layer: str

    def __post_init__(self) -> None:
        if not self.attribute:
            raise SchemaError("attribute name must be non-empty")
        gk.validate_kind(self.kind)
        if self.kind in (gk.POINT, gk.ALL):
            raise SchemaError(
                f"attribute {self.attribute!r} cannot be placed on the "
                f"algebraic kind {self.kind!r}"
            )


class GISDimensionSchema:
    """The full GIS dimension schema ``(H, A, D)``.

    Parameters
    ----------
    hierarchies:
        One :class:`LayerHierarchy` per layer.
    placements:
        The ``Att`` function entries.  Each placement's layer must have a
        hierarchy and its kind must appear in that hierarchy.
    application_dimensions:
        OLAP dimension schemas of the application part.  For every
        placement there should be a dimension whose bottom level equals the
        attribute name (the paper's convention: the geometric member is
        associated to the *finest* application category, e.g. polygon ↔
        neighborhood and neighborhood → city in the Neighbourhoods
        dimension).  This linkage is checked lazily by the instance.
    """

    def __init__(
        self,
        hierarchies: Iterable[LayerHierarchy],
        placements: Iterable[AttributePlacement] = (),
        application_dimensions: Iterable[DimensionSchema] = (),
    ) -> None:
        self._hierarchies: Dict[str, LayerHierarchy] = {}
        for hierarchy in hierarchies:
            if hierarchy.layer_name in self._hierarchies:
                raise SchemaError(
                    f"duplicate hierarchy for layer {hierarchy.layer_name!r}"
                )
            self._hierarchies[hierarchy.layer_name] = hierarchy
        if not self._hierarchies:
            raise SchemaError("a GIS dimension schema needs at least one layer")
        self._placements: Dict[str, AttributePlacement] = {}
        for placement in placements:
            if placement.attribute in self._placements:
                raise SchemaError(
                    f"attribute {placement.attribute!r} placed twice"
                )
            if placement.layer not in self._hierarchies:
                raise SchemaError(
                    f"attribute {placement.attribute!r} placed on unknown "
                    f"layer {placement.layer!r}"
                )
            if placement.kind not in self._hierarchies[placement.layer].kinds:
                raise SchemaError(
                    f"attribute {placement.attribute!r} placed on kind "
                    f"{placement.kind!r} absent from layer "
                    f"{placement.layer!r}"
                )
            self._placements[placement.attribute] = placement
        self._dimensions: Dict[str, DimensionSchema] = {}
        for dim in application_dimensions:
            if dim.name in self._dimensions:
                raise SchemaError(f"duplicate application dimension {dim.name!r}")
            self._dimensions[dim.name] = dim

    # -- access ---------------------------------------------------------------

    @property
    def layer_names(self) -> List[str]:
        """All layer names."""
        return sorted(self._hierarchies)

    def hierarchy(self, layer_name: str) -> LayerHierarchy:
        """Return the hierarchy of a layer."""
        try:
            return self._hierarchies[layer_name]
        except KeyError:
            raise SchemaError(f"unknown layer {layer_name!r}") from None

    @property
    def attributes(self) -> List[str]:
        """All placed attribute names."""
        return sorted(self._placements)

    def placement(self, attribute: str) -> AttributePlacement:
        """Return the ``Att`` entry of an attribute."""
        try:
            return self._placements[attribute]
        except KeyError:
            raise SchemaError(f"attribute {attribute!r} not placed") from None

    @property
    def application_dimensions(self) -> Dict[str, DimensionSchema]:
        """The OLAP dimension schemas of the application part."""
        return dict(self._dimensions)

    def application_dimension(self, name: str) -> DimensionSchema:
        """Return one application dimension schema."""
        try:
            return self._dimensions[name]
        except KeyError:
            raise SchemaError(f"unknown application dimension {name!r}") from None

    def dimension_for_attribute(self, attribute: str) -> Optional[DimensionSchema]:
        """Return the application dimension whose bottom level is the attribute."""
        self.placement(attribute)
        for dim in self._dimensions.values():
            if dim.bottom_level == attribute:
                return dim
        return None
