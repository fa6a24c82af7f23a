"""Classical OLAP dimensions in the Hurtado–Mendelzon–Vaisman style.

The application part of the paper's GIS dimension schema (Definition 1) is
"a set of dimension schemas D defined as in [7]" — i.e. the dimension model
of Hurtado, Mendelzon & Vaisman (ICDE'99): a dimension is a name, a set of
levels (categories) with a partial order, and instances carry *rollup
functions* ``RUP`` between the members of comparable levels.  This module
implements that model, including the consistency condition that rollups
composed along different paths agree.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

import networkx as nx

from repro.errors import RollupError, SchemaError

#: The distinguished top level present in every dimension.
ALL_LEVEL = "All"
#: The single member of the top level.
ALL_MEMBER = "all"


class DimensionSchema:
    """A dimension schema: levels plus a parent/child partial order.

    Parameters
    ----------
    name:
        The dimension's name (``dname`` in Definition 1).
    edges:
        Pairs ``(child_level, parent_level)`` meaning the child rolls up to
        the parent (the paper's ``child → parent``).  The transitive partial
        order is derived from these edges.  The top level ``All`` is added
        automatically above every maximal level if absent.

    The schema must be a DAG with exactly one bottom level (a level with no
    incoming edge) from which every level is reachable.
    """

    def __init__(self, name: str, edges: Iterable[Tuple[str, str]]) -> None:
        if not name:
            raise SchemaError("dimension name must be non-empty")
        self.name = name
        graph = nx.DiGraph()
        for child, parent in edges:
            if child == parent:
                raise SchemaError(f"self rollup on level {child!r}")
            graph.add_edge(child, parent)
        if len(graph) == 0:
            raise SchemaError("dimension schema needs at least one rollup edge")
        # Add the distinguished All level above every maximal level.
        maximal = [
            node
            for node in list(graph.nodes)
            if node != ALL_LEVEL and graph.out_degree(node) == 0
        ]
        for node in maximal:
            graph.add_edge(node, ALL_LEVEL)
        if not nx.is_directed_acyclic_graph(graph):
            raise SchemaError(f"dimension {name!r} has a rollup cycle")
        bottoms = [node for node in graph.nodes if graph.in_degree(node) == 0]
        if len(bottoms) != 1:
            raise SchemaError(
                f"dimension {name!r} must have exactly one bottom level, "
                f"found {sorted(bottoms)}"
            )
        self._graph = graph
        self._bottom = bottoms[0]
        reachable = nx.descendants(graph, self._bottom) | {self._bottom}
        if reachable != set(graph.nodes):
            unreachable = sorted(set(graph.nodes) - reachable)
            raise SchemaError(
                f"levels {unreachable} unreachable from bottom level "
                f"{self._bottom!r} in dimension {name!r}"
            )

    # -- structure ----------------------------------------------------------

    @property
    def levels(self) -> Set[str]:
        """All level names, including ``All``."""
        return set(self._graph.nodes)

    @property
    def bottom_level(self) -> str:
        """The unique finest level."""
        return self._bottom

    def parents(self, level: str) -> Set[str]:
        """Direct parents of ``level`` in the rollup order."""
        self._check_level(level)
        return set(self._graph.successors(level))

    def children(self, level: str) -> Set[str]:
        """Direct children of ``level``."""
        self._check_level(level)
        return set(self._graph.predecessors(level))

    def edges(self) -> List[Tuple[str, str]]:
        """All direct (child, parent) pairs."""
        return list(self._graph.edges)

    def rolls_up_to(self, lower: str, upper: str) -> bool:
        """True when ``lower`` ⪯ ``upper`` in the transitive order."""
        self._check_level(lower)
        self._check_level(upper)
        return lower == upper or nx.has_path(self._graph, lower, upper)

    def path(self, lower: str, upper: str) -> List[str]:
        """Return one rollup path from ``lower`` to ``upper`` (inclusive)."""
        self._check_level(lower)
        self._check_level(upper)
        if not self.rolls_up_to(lower, upper):
            raise SchemaError(
                f"level {lower!r} does not roll up to {upper!r} "
                f"in dimension {self.name!r}"
            )
        return nx.shortest_path(self._graph, lower, upper)

    def all_paths(self, lower: str, upper: str) -> List[List[str]]:
        """Return every rollup path between two comparable levels."""
        self._check_level(lower)
        self._check_level(upper)
        if lower == upper:
            return [[lower]]
        return [list(p) for p in nx.all_simple_paths(self._graph, lower, upper)]

    def _check_level(self, level: str) -> None:
        if level not in self._graph:
            raise SchemaError(
                f"unknown level {level!r} in dimension {self.name!r}"
            )

    def __repr__(self) -> str:
        return f"DimensionSchema({self.name!r}, levels={sorted(self.levels)})"


class DimensionInstance:
    """Members and rollup functions for a dimension schema.

    The instance stores, for each direct edge ``(child, parent)`` of the
    schema, a total function from child members to parent members — the
    ``RUP`` functions of Definition 2.  Composed rollups between arbitrary
    comparable levels are derived; :meth:`check_consistency` verifies the
    HMV condition that all paths between two levels compose to the same
    function.
    """

    def __init__(self, schema: DimensionSchema) -> None:
        self.schema = schema
        self._members: Dict[str, Set[Hashable]] = {
            level: set() for level in schema.levels
        }
        self._members[ALL_LEVEL] = {ALL_MEMBER}
        self._rollups: Dict[Tuple[str, str], Dict[Hashable, Hashable]] = {
            edge: {} for edge in schema.edges()
        }
        # Mutation counter: bumped by every population call so derived
        # caches (e.g. TimeDimension granule partitions) can detect that
        # their snapshot went stale without hashing the whole instance.
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone mutation counter (see population methods)."""
        return self._version

    # -- population ---------------------------------------------------------

    def add_member(self, level: str, member: Hashable) -> None:
        """Register a member at a level (idempotent)."""
        self.schema._check_level(level)
        if level == ALL_LEVEL and member != ALL_MEMBER:
            raise RollupError("the All level has the single member 'all'")
        if member not in self._members[level]:
            self._members[level].add(member)
            self._version += 1

    def set_rollup(
        self, child_level: str, child: Hashable, parent_level: str, parent: Hashable
    ) -> None:
        """Record that ``child`` (at child_level) rolls up to ``parent``.

        Both members are registered implicitly.  ``(child_level,
        parent_level)`` must be a direct schema edge.
        """
        edge = (child_level, parent_level)
        if edge not in self._rollups:
            raise RollupError(
                f"({child_level!r}, {parent_level!r}) is not a direct edge "
                f"of dimension {self.schema.name!r}"
            )
        self.add_member(child_level, child)
        self.add_member(parent_level, parent)
        existing = self._rollups[edge].get(child)
        if existing is not None and existing != parent:
            raise RollupError(
                f"member {child!r} of level {child_level!r} already rolls up "
                f"to {existing!r}, cannot remap to {parent!r}"
            )
        if existing is None:
            self._rollups[edge][child] = parent
            self._version += 1

    # -- access --------------------------------------------------------------

    def members(self, level: str) -> Set[Hashable]:
        """Return all members of a level."""
        self.schema._check_level(level)
        return set(self._members[level])

    def rollup(self, member: Hashable, from_level: str, to_level: str) -> Hashable:
        """Return the ancestor of ``member`` at ``to_level``.

        This is the paper's ``R^{to}_{from}(member)`` notation, e.g.
        ``R^{timeOfDay}_{timeId}(t)``.  Raises :class:`RollupError` when a
        link is missing.
        """
        if to_level == ALL_LEVEL:
            # Everything rolls up to 'all'; the member need not be registered
            # along a full path for this universal fact.
            return ALL_MEMBER
        path = self.schema.path(from_level, to_level)
        current = member
        for child_level, parent_level in zip(path, path[1:]):
            mapping = self._rollups[(child_level, parent_level)]
            if current not in mapping:
                raise RollupError(
                    f"no rollup for member {current!r} from level "
                    f"{child_level!r} to {parent_level!r} in dimension "
                    f"{self.schema.name!r}"
                )
            current = mapping[current]
        return current

    def try_rollup(
        self, member: Hashable, from_level: str, to_level: str
    ) -> Optional[Hashable]:
        """Like :meth:`rollup` but returns None on missing links."""
        try:
            return self.rollup(member, from_level, to_level)
        except RollupError:
            return None

    def descendants(
        self, member: Hashable, level: str, at_level: str
    ) -> Set[Hashable]:
        """Return the members of ``at_level`` that roll up to ``member``."""
        self.schema._check_level(at_level)
        if not self.schema.rolls_up_to(at_level, level):
            raise RollupError(
                f"level {at_level!r} does not roll up to {level!r}"
            )
        return {
            candidate
            for candidate in self._members[at_level]
            if self.try_rollup(candidate, at_level, level) == member
        }

    # -- validation ------------------------------------------------------------

    def check_consistency(self) -> None:
        """Verify totality and path-independence of the rollup functions.

        Raises :class:`RollupError` when some member lacks a rollup along a
        schema edge, or when two different paths between the same pair of
        levels map a member to different ancestors (the HMV consistency
        condition).
        """
        for (child_level, parent_level), mapping in self._rollups.items():
            if parent_level == ALL_LEVEL:
                continue  # handled universally
            for member in self._members[child_level]:
                if member not in mapping:
                    raise RollupError(
                        f"member {member!r} of level {child_level!r} has no "
                        f"rollup to {parent_level!r}"
                    )
        for lower in self.schema.levels:
            for upper in self.schema.levels:
                if lower == upper or upper == ALL_LEVEL:
                    continue
                paths = self.schema.all_paths(lower, upper)
                if len(paths) < 2:
                    continue
                for member in self._members[lower]:
                    images = set()
                    for path in paths:
                        current: Optional[Hashable] = member
                        for a, b in zip(path, path[1:]):
                            current = self._rollups[(a, b)].get(current)
                            if current is None:
                                break
                        if current is not None:
                            images.add(current)
                    if len(images) > 1:
                        raise RollupError(
                            f"member {member!r} rolls up from {lower!r} to "
                            f"{upper!r} ambiguously: {sorted(map(str, images))}"
                        )

    def __repr__(self) -> str:
        sizes = {
            level: len(members)
            for level, members in self._members.items()
            if members
        }
        return f"DimensionInstance({self.schema.name!r}, members={sizes})"
