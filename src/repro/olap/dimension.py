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

from repro.errors import RollupError, SchemaError

#: The distinguished top level present in every dimension.
ALL_LEVEL = "All"
#: The single member of the top level.
ALL_MEMBER = "all"


class LevelOrder:
    """The finite partial order of Definition 1's few levels, given by
    its direct ``(lower, upper)`` edges.

    Both halves of the GIS dimension schema hold one: a layer's
    granularity graph ``H(L)`` over geometry kinds and an application
    dimension's levels.  Construction checks what Definition 1 asks of
    each, once: no cycle, nothing above ``All``, and exactly one bottom
    level (``source``, when named).  Every level is then reachable from
    the bottom, since each level of a finite acyclic order lies above
    some level with nothing below it.  ``cycle`` and ``sources`` word
    the two violations for the schema that holds the order; the second
    is followed by the bottoms found.

    Levels and each level's neighbours keep the order the edges named
    them in, and repeated edges count once.  Each level's up-set is
    computed here, so comparing two levels is a set lookup.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[str, str]],
        *,
        cycle: str,
        sources: str,
        source: Optional[str] = None,
    ) -> None:
        self._up_edges: Dict[str, List[str]] = {}
        self._down_edges: Dict[str, List[str]] = {}
        for lower, upper in dict.fromkeys((a, b) for a, b in edges):
            for level in (lower, upper):
                self._up_edges.setdefault(level, [])
                self._down_edges.setdefault(level, [])
            self._up_edges[lower].append(upper)
            self._down_edges[upper].append(lower)
        # Kahn's order, bottoms first: a level left out lies on a cycle.
        pending = {level: len(down) for level, down in self._down_edges.items()}
        bottoms = [level for level, n in pending.items() if n == 0]
        order = list(bottoms)
        for level in order:
            for upper in self._up_edges[level]:
                pending[upper] -= 1
                if pending[upper] == 0:
                    order.append(upper)
        if len(order) != len(pending):
            raise SchemaError(cycle)
        if self._up_edges.get(ALL_LEVEL):
            raise SchemaError(f"{ALL_LEVEL!r} must have no outgoing edges")
        if len(bottoms) != 1 or source not in (None, bottoms[0]):
            raise SchemaError(f"{sources}, found {sorted(bottoms)}")
        self.bottom = bottoms[0]
        self._up: Dict[str, Set[str]] = {}
        for level in reversed(order):
            self._up[level] = {level}.union(
                *(self._up[upper] for upper in self._up_edges[level])
            )

    def __contains__(self, level: object) -> bool:
        return level in self._up_edges

    def __iter__(self):
        return iter(self._up_edges)

    def edges(self) -> List[Tuple[str, str]]:
        """Every direct ``(lower, upper)`` pair, level by level."""
        return [
            (lower, upper)
            for lower, uppers in self._up_edges.items()
            for upper in uppers
        ]

    def below(self, level: str) -> List[str]:
        """The levels one edge below ``level``."""
        return list(self._down_edges[level])

    def leq(self, lower: str, upper: str) -> bool:
        """True when ``lower`` ⪯ ``upper`` (reflexive, transitive)."""
        return upper in self._up[lower]

    def shortest_path(self, lower: str, upper: str) -> List[str]:
        """One fewest-edge path from ``lower`` to ``upper`` (they must
        compare).  Where several tie, the search from both ends —
        growing the smaller frontier, neighbours in edge order — picks
        the first on which the two meet."""
        steps = (self._up_edges, self._down_edges)
        fringes = [[lower], [upper]]
        # Per direction, each level reached and the level it came from.
        reached: List[Dict[str, Optional[str]]] = [{lower: None}, {upper: None}]

        def grow(side: int) -> Optional[str]:
            frontier, fringes[side] = fringes[side], []
            here, there = reached[side], reached[1 - side]
            for level in frontier:
                for nxt in steps[side][level]:
                    if nxt not in here:
                        here[nxt] = level
                        fringes[side].append(nxt)
                    if nxt in there:
                        return nxt
            return None

        meet = lower if lower == upper else None
        while meet is None:
            meet = grow(0 if len(fringes[0]) <= len(fringes[1]) else 1)
        path = [meet]
        while reached[0][path[0]] is not None:
            path.insert(0, reached[0][path[0]])
        while reached[1][path[-1]] is not None:
            path.append(reached[1][path[-1]])
        return path

    def all_paths(self, lower: str, upper: str) -> List[List[str]]:
        """Every path from ``lower`` up to ``upper``, depth first in edge
        order (none when they do not compare)."""
        if lower == upper:
            return [[lower]]
        return [
            [lower] + rest
            for nxt in self._up_edges[lower]
            if self.leq(nxt, upper)
            for rest in self.all_paths(nxt, upper)
        ]


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
    incoming edge) from which every level is reachable (:class:`LevelOrder`).
    """

    def __init__(self, name: str, edges: Iterable[Tuple[str, str]]) -> None:
        if not name:
            raise SchemaError("dimension name must be non-empty")
        self.name = name
        pairs = list(edges)
        for child, parent in pairs:
            if child == parent:
                raise SchemaError(f"self rollup on level {child!r}")
        if not pairs:
            raise SchemaError("dimension schema needs at least one rollup edge")
        # Add the distinguished All level above every maximal level.
        children = {child for child, _ in pairs}
        pairs += [
            (level, ALL_LEVEL)
            for level in dict.fromkeys(level for pair in pairs for level in pair)
            if level != ALL_LEVEL and level not in children
        ]
        self._order = LevelOrder(
            pairs,
            cycle=f"dimension {name!r} has a rollup cycle",
            sources=f"dimension {name!r} must have exactly one bottom level",
        )

    # -- structure ----------------------------------------------------------

    @property
    def levels(self) -> Set[str]:
        """All level names, including ``All``."""
        return set(self._order)

    @property
    def bottom_level(self) -> str:
        """The unique finest level."""
        return self._order.bottom

    def children(self, level: str) -> Set[str]:
        """Direct children of ``level``."""
        self._check_level(level)
        return set(self._order.below(level))

    def edges(self) -> List[Tuple[str, str]]:
        """All direct (child, parent) pairs."""
        return self._order.edges()

    def rolls_up_to(self, lower: str, upper: str) -> bool:
        """True when ``lower`` ⪯ ``upper`` in the transitive order."""
        self._check_level(lower)
        self._check_level(upper)
        return self._order.leq(lower, upper)

    def path(self, lower: str, upper: str) -> List[str]:
        """Return one rollup path from ``lower`` to ``upper`` (inclusive)."""
        if not self.rolls_up_to(lower, upper):
            raise SchemaError(
                f"level {lower!r} does not roll up to {upper!r} "
                f"in dimension {self.name!r}"
            )
        return self._order.shortest_path(lower, upper)

    def all_paths(self, lower: str, upper: str) -> List[List[str]]:
        """Return every rollup path between two comparable levels."""
        self._check_level(lower)
        self._check_level(upper)
        return self._order.all_paths(lower, upper)

    def _check_level(self, level: str) -> None:
        if level not in self._order:
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
