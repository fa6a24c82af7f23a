"""GIS dimension instances — Definition 2 of the paper.

An instance provides, on top of a :class:`~repro.gis.schema.GISDimensionSchema`:

* the stored geometries of every layer (:class:`~repro.gis.layer.Layer`);
* the **rollup relations** ``r^{Gj,Gk}_L ⊆ dom(Gj) × dom(Gk)`` for every
  hierarchy edge between identifiable kinds (e.g. which lines compose which
  polyline), plus the infinite ``(point, G)`` relations answered
  algorithmically through the layer geometry;
* the **α functions** ``α^{A,G}_L: dom(A) → dom(G) × dom(L)`` tying
  application members to geometry ids (``α^{neighb,Pg}_{Ln}(Berchem) = pg``);
* application **dimension instances** with their RUP rollup functions; and
* attribute values on application members (``n.income < 1500``).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.errors import InstanceError, RollupError, SchemaError
from repro.geometry.index import Grid
from repro.geometry.overlay import LayerOverlay
from repro.geometry.point import Point
from repro.gis import geometries as gk
from repro.gis.layer import Layer, grid_of
from repro.gis.schema import GISDimensionSchema
from repro.olap.dimension import DimensionInstance


class GISDimensionInstance:
    """A populated GIS dimension."""

    def __init__(self, schema: GISDimensionSchema) -> None:
        self.schema = schema
        self._layers: Dict[str, Layer] = {
            name: Layer(name) for name in schema.layer_names
        }
        # (layer, finer kind, coarser kind) -> set of (finer id, coarser id)
        self._rollup_relations: Dict[
            Tuple[str, str, str], Set[Tuple[Hashable, Hashable]]
        ] = {}
        # attribute -> {application member -> geometry id}
        self._alpha: Dict[str, Dict[Hashable, Hashable]] = {}
        # application dimension name -> instance
        self._app_instances: Dict[str, DimensionInstance] = {
            name: DimensionInstance(dim)
            for name, dim in schema.application_dimensions.items()
        }
        # (attribute, member) -> {value name -> value}
        self._member_values: Dict[Tuple[str, Hashable], Dict[str, Hashable]] = {}
        self._overlay: Optional[LayerOverlay] = None
        #: Moves with every geometry added (when the overlay is dropped),
        #: so that what was resolved against the geometries can tell.
        self.generation = 0

    # -- layers -------------------------------------------------------------------

    def layer(self, name: str) -> Layer:
        """Return a layer by name."""
        try:
            return self._layers[name]
        except KeyError:
            raise InstanceError(f"unknown layer {name!r}") from None

    def add_geometry(
        self, layer_name: str, kind: str, element_id: Hashable, geometry: object
    ) -> None:
        """Add an identified geometry to a layer.

        The kind must appear in the layer's hierarchy.
        """
        hierarchy = self.schema.hierarchy(layer_name)
        if kind not in hierarchy.kinds:
            raise InstanceError(
                f"kind {kind!r} is not in the hierarchy of layer "
                f"{layer_name!r}"
            )
        self.layer(layer_name).add(kind, element_id, geometry)
        self._overlay = None  # geometry changed; rebuild lazily
        self.generation += 1

    # -- rollup relations (r) -----------------------------------------------------

    def relate(
        self,
        layer_name: str,
        finer_kind: str,
        finer_id: Hashable,
        coarser_kind: str,
        coarser_id: Hashable,
    ) -> None:
        """Record ``(finer_id, coarser_id) ∈ r^{finer,coarser}_layer``.

        Both elements must exist in the layer (``All``'s single member is
        implicit), and the kinds must form a hierarchy edge.
        """
        hierarchy = self.schema.hierarchy(layer_name)
        if (finer_kind, coarser_kind) not in hierarchy.edges():
            raise RollupError(
                f"({finer_kind!r}, {coarser_kind!r}) is not an edge of the "
                f"hierarchy of layer {layer_name!r}"
            )
        if finer_kind == gk.POINT:
            raise RollupError(
                "the (point, G) relation is infinite and answered "
                "algorithmically; do not materialize it"
            )
        layer = self.layer(layer_name)
        if (finer_kind, finer_id) not in layer:
            raise InstanceError(
                f"no element {finer_id!r} of kind {finer_kind!r} in layer "
                f"{layer_name!r}"
            )
        if coarser_kind != gk.ALL and (coarser_kind, coarser_id) not in layer:
            raise InstanceError(
                f"no element {coarser_id!r} of kind {coarser_kind!r} in "
                f"layer {layer_name!r}"
            )
        key = (layer_name, finer_kind, coarser_kind)
        self._rollup_relations.setdefault(key, set()).add((finer_id, coarser_id))

    def rollup_relation(
        self, layer_name: str, finer_kind: str, coarser_kind: str
    ) -> Set[Tuple[Hashable, Hashable]]:
        """Return the materialized relation ``r^{finer,coarser}_layer``.

        For ``coarser_kind == All`` the relation is synthesized: every
        stored element of ``finer_kind`` relates to ``all``.
        """
        hierarchy = self.schema.hierarchy(layer_name)
        if (finer_kind, coarser_kind) not in hierarchy.edges():
            raise RollupError(
                f"({finer_kind!r}, {coarser_kind!r}) is not an edge of the "
                f"hierarchy of layer {layer_name!r}"
            )
        if coarser_kind == gk.ALL:
            layer = self.layer(layer_name)
            return {
                (element_id, gk.ALL_GEOMETRY)
                for element_id in layer.elements(finer_kind)
            }
        return set(
            self._rollup_relations.get((layer_name, finer_kind, coarser_kind), set())
        )

    def point_rollup(
        self, layer_name: str, kind: str, point: Point
    ) -> Set[Hashable]:
        """Evaluate the infinite relation ``r^{point,kind}_layer`` at a point.

        This is the paper's ``r^{Pt,Pg}_{Ln}(x, y, pg)`` atom: the ids of
        the elements of ``kind`` containing ``(x, y)``.
        """
        return self.point_layer(layer_name, kind).locate_point(kind, point)

    def point_layer(self, layer_name: str, kind: str) -> Layer:
        """The layer whose ``kind`` elements ``r^{point,kind}_layer``
        reads; :class:`RollupError` when ``kind`` is not above ``point``
        in its hierarchy."""
        hierarchy = self.schema.hierarchy(layer_name)
        if kind not in hierarchy.kinds or not hierarchy.is_coarsening(
            gk.POINT, kind
        ):
            raise RollupError(
                f"kind {kind!r} is not above 'point' in layer {layer_name!r}"
            )
        return self.layer(layer_name)

    # -- alpha functions ------------------------------------------------------------

    def set_alpha(
        self, attribute: str, member: Hashable, element_id: Hashable
    ) -> None:
        """Record ``α^{attribute}(member) = element_id``.

        The attribute's placement fixes the kind and layer; the element
        must exist there.  Registers the member in the application
        dimension whose bottom level is the attribute, when one exists.
        """
        placement = self.schema.placement(attribute)
        layer = self.layer(placement.layer)
        if (placement.kind, element_id) not in layer:
            raise InstanceError(
                f"α target {element_id!r} of kind {placement.kind!r} missing "
                f"from layer {placement.layer!r}"
            )
        mapping = self._alpha.setdefault(attribute, {})
        existing = mapping.get(member)
        if existing is not None and existing != element_id:
            raise InstanceError(
                f"α^{attribute}({member!r}) already set to {existing!r}"
            )
        mapping[member] = element_id
        dim = self.schema.dimension_for_attribute(attribute)
        if dim is not None:
            self._app_instances[dim.name].add_member(attribute, member)

    def alpha(self, attribute: str, member: Hashable) -> Hashable:
        """Return ``α^{attribute}(member)`` — the geometry id of a member."""
        self.schema.placement(attribute)
        try:
            return self._alpha[attribute][member]
        except KeyError:
            raise InstanceError(
                f"α^{attribute}({member!r}) is undefined"
            ) from None

    def alpha_members(self, attribute: str) -> Set[Hashable]:
        """All members with a defined α for the attribute."""
        self.schema.placement(attribute)
        return set(self._alpha.get(attribute, {}))

    def alpha_inverse(self, attribute: str, element_id: Hashable) -> Set[Hashable]:
        """Members mapped onto a given geometry id (usually at most one)."""
        self.schema.placement(attribute)
        return {
            member
            for member, gid in self._alpha.get(attribute, {}).items()
            if gid == element_id
        }

    # -- application part ------------------------------------------------------------

    def application_instance(self, dimension_name: str) -> DimensionInstance:
        """Return the instance of one application dimension."""
        try:
            return self._app_instances[dimension_name]
        except KeyError:
            raise InstanceError(
                f"unknown application dimension {dimension_name!r}"
            ) from None

    def set_member_value(
        self, attribute: str, member: Hashable, name: str, value: Hashable
    ) -> None:
        """Attach a named value to an application member (``n.income``)."""
        self.schema.placement(attribute)
        self._member_values.setdefault((attribute, member), {})[name] = value

    def member_value(
        self, attribute: str, member: Hashable, name: str
    ) -> Hashable:
        """Read a named value of an application member."""
        try:
            return self._member_values[(attribute, member)][name]
        except KeyError:
            raise InstanceError(
                f"{attribute} member {member!r} has no value {name!r}"
            ) from None

    def members_where(self, attribute: str, predicate) -> Set[Hashable]:
        """All α-registered members whose values satisfy ``predicate``.

        ``predicate`` receives a read function ``value(name)`` so queries
        like "income < 1500" are written
        ``members_where("neighborhood", lambda v: v("income") < 1500)``.
        """
        result: Set[Hashable] = set()
        for member in self.alpha_members(attribute):
            values = self._member_values.get((attribute, member), {})

            def read(name: str, _values=values, _member=member):
                if name not in _values:
                    raise InstanceError(
                        f"{attribute} member {_member!r} has no value {name!r}"
                    )
                return _values[name]

            if predicate(read):
                result.add(member)
        return result

    # -- overlay ----------------------------------------------------------------------

    def overlay(self) -> LayerOverlay:
        """Return (building lazily) the cross-layer overlay.

        The overlay exposes every stored geometry under the name
        ``"<layer>:<kind>"`` so that cross-layer, cross-kind relations can
        be precomputed Piet-style.
        """
        if self._overlay is None:
            named: Dict[str, Dict[Hashable, object]] = {}
            sources: Dict[str, Tuple[Layer, str]] = {}
            for layer_name, layer in self._layers.items():
                for kind in layer.kinds():
                    named[f"{layer_name}:{kind}"] = layer.elements(kind)
                    sources[f"{layer_name}:{kind}"] = (layer, kind)
            if not named:
                raise InstanceError("no geometries loaded; cannot build overlay")
            # (The overlay holds the layers, not this instance: no cycle.)
            self._overlay = LayerOverlay(
                named, kept=partial(_kept_grid, sources)
            )
        return self._overlay


def _kept_grid(
    sources: Dict[str, Tuple[Layer, str]], name: str
) -> Optional[Grid]:
    """The grid of the overlay layer ``name`` (``"<layer>:<kind>"``)
    when its layer keeps the kind's whole index (None: it does not)."""
    layer, kind = sources[name]
    index = layer.kept_index(kind)
    return None if index is None else grid_of(index)

