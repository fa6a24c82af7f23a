"""The Time dimension of the paper (Figure 2, right-hand side).

The paper treats Time as "a special kind of dimension" because it is
essential for moving objects: every example query constrains the MOFT
through Time rollups like ``R^{timeOfDay}_{timeId}(t) = "Morning"``.

:class:`TimeDimension` wraps a standard
:class:`~repro.olap.dimension.DimensionInstance` whose schema is::

    timeId -> hour -> timeOfDay -> All
    timeId -> day  -> dayOfWeek -> All
              day  -> typeOfDay -> All
              day  -> month -> year -> All

where ``hour`` is the hour-of-day (0..23), so that the paper's numeric
comparisons over hours (``h >= 8 AND h <= 10``) type-check, and ``day`` is
an ISO date string, so that slices like ``R^{day}_{timeId}(t) =
"2006-01-07"`` read exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import RollupError, SchemaError
from repro.olap.dimension import ALL_LEVEL, DimensionInstance, DimensionSchema
from repro.temporal.calendar import (
    DEFAULT_DAY_PARTS,
    InstantMapping,
    day_of_week_name,
    time_of_day_for_hour,
    type_of_day,
)

#: The schema edges of the Time dimension.
TIME_SCHEMA_EDGES = (
    ("timeId", "hour"),
    ("hour", "timeOfDay"),
    ("timeId", "day"),
    ("day", "dayOfWeek"),
    ("day", "typeOfDay"),
    ("day", "month"),
    ("month", "year"),
)


def time_dimension_schema(name: str = "Time") -> DimensionSchema:
    """Return the paper's Time dimension schema."""
    return DimensionSchema(name, TIME_SCHEMA_EDGES)


@dataclass(frozen=True)
class GranulePartition:
    """The instants partitioned into *contiguous* granules of one level.

    A granule is one member of ``level`` together with the instants
    rolling up to it.  The partition is only constructible when every
    granule's instants form a contiguous run of the globally sorted
    instant list — the property that makes a granule an *interval* of
    time, so that instant-range windows can be decomposed into whole
    granules plus edge slivers (the pre-aggregation store relies on
    this; see :mod:`repro.preagg`).

    Attributes
    ----------
    level:
        The granule level (e.g. ``"hour"`` or ``"day"``).
    members:
        Granule members ordered by their first instant.
    starts / ends:
        Per-granule first/last instant (float arrays, same order).
    instants / codes:
        All registered instants sorted ascending, and the granule code
        (index into ``members``) of each.
    """

    level: str
    members: Tuple[Hashable, ...]
    starts: np.ndarray
    ends: np.ndarray
    instants: np.ndarray
    codes: np.ndarray
    _index: Dict[Hashable, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index.update(
            {member: i for i, member in enumerate(self.members)}
        )

    def __len__(self) -> int:
        return len(self.members)

    def code_of(self, member: Hashable) -> int:
        """Index of a granule member; raises on unknown members."""
        try:
            return self._index[member]
        except KeyError:
            raise RollupError(
                f"{member!r} is not a granule of level {self.level!r}"
            ) from None

    def codes_for(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized instant → granule-code lookup.

        One ``np.searchsorted`` over the sorted instant column instead of
        a Python dict hop per sample.  Instants not registered in the
        dimension map to ``-1``.
        """
        ts = np.asarray(ts, dtype=float)
        if self.instants.size == 0:
            return np.full(ts.shape, -1, dtype=np.int64)
        slots = np.searchsorted(self.instants, ts)
        slots = np.minimum(slots, self.instants.size - 1)
        out = self.codes[slots].astype(np.int64, copy=True)
        out[self.instants[slots] != ts] = -1
        return out

    def span(self, first: int, last: int) -> Tuple[float, float]:
        """Instant interval ``[start, end]`` covered by granules first..last."""
        if not (0 <= first <= last < len(self.members)):
            raise RollupError(
                f"granule run {first}..{last} out of range 0..{len(self) - 1}"
            )
        return float(self.starts[first]), float(self.ends[last])

    def aligned_run(
        self, start: float, end: float
    ) -> Optional[Tuple[int, int]]:
        """The granule run exactly spanning ``[start, end]``, if any.

        Returns ``(first, last)`` when ``start`` is some granule's first
        instant and ``end`` is some granule's last instant; ``None`` when
        the window is misaligned (callers then fall back to
        :meth:`covered_run` plus sliver handling).
        """
        first = int(np.searchsorted(self.starts, float(start)))
        last = int(np.searchsorted(self.ends, float(end)))
        if (
            first < len(self.members)
            and last < len(self.members)
            and self.starts[first] == float(start)
            and self.ends[last] == float(end)
            and first <= last
        ):
            return first, last
        return None

    def covered_run(
        self, start: float, end: float
    ) -> Optional[Tuple[int, int]]:
        """The maximal granule run fully inside ``[start, end]``.

        Returns ``None`` when no whole granule fits in the window.
        """
        first = int(np.searchsorted(self.starts, float(start)))
        last = int(np.searchsorted(self.ends, float(end), side="right")) - 1
        if first <= last and first < len(self.members) and last >= 0:
            return first, last
        return None

    def rollup_codes(
        self, time: "TimeDimension", parent_level: str
    ) -> Tuple["GranulePartition", np.ndarray]:
        """Map this partition onto a coarser one along the lattice.

        Returns the parent :class:`GranulePartition` and an array giving,
        for each granule here, the parent granule code it rolls up to.
        Raises :class:`RollupError` when some granule's instants straddle
        two parents (the rollup would not be a partition refinement).
        """
        parent = time.granules(parent_level)
        mapping = np.full(len(self.members), -1, dtype=np.int64)
        parent_of_instant = parent.codes
        for code in range(len(self.members)):
            parents = np.unique(parent_of_instant[self.codes == code])
            if parents.size != 1 or parents[0] < 0:
                raise RollupError(
                    f"granule {self.members[code]!r} of level "
                    f"{self.level!r} does not roll up to a single "
                    f"{parent_level!r} granule"
                )
            mapping[code] = parents[0]
        return parent, mapping


class TimeDimension:
    """A populated Time dimension over a set of integer instants.

    Construct with :meth:`from_mapping` for calendar-backed instants or
    :meth:`from_explicit_rollups` for hand-specified toy instances (like
    the paper's Figure 1 example, where "Morning" is simply the instants
    {2, 3, 4}).
    """

    def __init__(self, instance: DimensionInstance) -> None:
        if instance.schema.bottom_level != "timeId":
            raise SchemaError("a Time dimension must bottom out at 'timeId'")
        self.instance = instance
        # Granule partitions and inverted rollups (member -> instants)
        # per level, keyed by the instance's mutation counter so later
        # set_rollup calls invalidate the snapshot.
        self._granule_cache: Dict[str, Tuple[int, GranulePartition]] = {}
        self._instant_index: Dict[
            str, Tuple[int, Dict[Hashable, FrozenSet[int]]]
        ] = {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_mapping(
        cls,
        mapping: InstantMapping,
        instants: Iterable[int],
        day_parts: Dict[str, Tuple[int, int]] | None = None,
        name: str = "Time",
    ) -> "TimeDimension":
        """Populate the dimension from a calendar mapping.

        Every instant's hour, day part, day, weekday, day type, month and
        year are derived from ``mapping.to_datetime``.
        """
        schema = time_dimension_schema(name)
        instance = DimensionInstance(schema)
        parts = day_parts or DEFAULT_DAY_PARTS
        seen_hours: Set[int] = set()
        seen_days: Set[str] = set()
        seen_months: Set[str] = set()
        for t in instants:
            moment = mapping.to_datetime(t)
            hour = moment.hour
            day = moment.date().isoformat()
            month = f"{moment.year:04d}-{moment.month:02d}"
            instance.set_rollup("timeId", t, "hour", hour)
            instance.set_rollup("timeId", t, "day", day)
            if hour not in seen_hours:
                seen_hours.add(hour)
                instance.set_rollup(
                    "hour", hour, "timeOfDay", time_of_day_for_hour(hour, parts)
                )
            if day not in seen_days:
                seen_days.add(day)
                instance.set_rollup("day", day, "dayOfWeek", day_of_week_name(moment))
                instance.set_rollup("day", day, "typeOfDay", type_of_day(moment))
                instance.set_rollup("day", day, "month", month)
            if month not in seen_months:
                seen_months.add(month)
                instance.set_rollup("month", month, "year", moment.year)
        return cls(instance)

    @classmethod
    def from_explicit_rollups(
        cls,
        rollups: Iterable[Tuple[str, Hashable, str, Hashable]],
        name: str = "Time",
    ) -> "TimeDimension":
        """Populate from explicit ``(child_level, child, parent_level, parent)``.

        Used for small hand-built instances where the calendar is abstract,
        e.g. the Figure 1 example where instants 2..4 are "the morning".
        """
        schema = time_dimension_schema(name)
        instance = DimensionInstance(schema)
        for child_level, child, parent_level, parent in rollups:
            instance.set_rollup(child_level, child, parent_level, parent)
        return cls(instance)

    # -- rollup access -------------------------------------------------------------

    @property
    def instants(self) -> Set[int]:
        """All registered timeId members."""
        return self.instance.members("timeId")  # type: ignore[return-value]

    def rollup(self, instant: int, level: str) -> Hashable:
        """The paper's ``R^{level}_{timeId}(instant)``."""
        return self.instance.rollup(instant, "timeId", level)

    def try_rollup(self, instant: int, level: str) -> Optional[Hashable]:
        """Like :meth:`rollup`, None when the instant is unregistered."""
        return self.instance.try_rollup(instant, "timeId", level)

    def matches(self, instant: int, level: str, member: Hashable) -> bool:
        """True when the instant rolls up to ``member`` at ``level``.

        Unregistered instants match nothing (rather than raising): the MOFT
        may contain samples outside the populated time window and those
        simply fail every temporal constraint.
        """
        return self.try_rollup(instant, level) == member

    def _members_instants(self, level: str) -> Dict[Hashable, FrozenSet[int]]:
        """The rollup to ``level`` inverted: member -> the instants rolling
        up to it (an instant with no rollup there under ``None``).  Built
        once per (level, instance version), like :meth:`granules`."""
        cached = self._instant_index.get(level)
        if cached is not None and cached[0] == self.instance.version:
            return cached[1]
        groups: Dict[Hashable, Set[int]] = {}
        for t in self.instants:
            groups.setdefault(self.try_rollup(t, level), set()).add(t)
        index = {member: frozenset(ts) for member, ts in groups.items()}
        self._instant_index[level] = (self.instance.version, index)
        return index

    def instants_where(self, level: str, member: Hashable) -> FrozenSet[int]:
        """All instants rolling up to ``member`` at ``level``.

        This inverts the rollup function — the evaluator uses it to push
        temporal constraints into MOFT scans.  A dictionary read after
        the first call per level (see :meth:`_members_instants`).
        """
        return self._members_instants(level).get(member, frozenset())

    def span(self, level: str, member: Hashable) -> int:
        """Number of instants covered by ``member`` at ``level``.

        The running query divides the number of contributing samples by the
        *time span* of "the morning" (Remark 1: three hours); this method
        provides that denominator.
        """
        count = len(self.instants_where(level, member))
        if count == 0:
            raise RollupError(
                f"no instants roll up to {member!r} at level {level!r}"
            )
        return count

    # -- granule partitions ------------------------------------------------------

    def granules(self, level: str) -> GranulePartition:
        """The instants partitioned into contiguous ``level`` granules.

        Built once per (level, instance version) and cached — repeated
        store constructions and planner probes reuse the sorted boundary
        arrays instead of re-deriving per-instant rollups.

        Raises
        ------
        RollupError
            When some instant has no rollup at ``level`` (the partition
            would drop instants) or some granule's instants are not a
            contiguous run of the sorted instant list (the granule would
            not be a time interval, so window decomposition would be
            unsound).
        """
        cached = self._granule_cache.get(level)
        if cached is not None and cached[0] == self.instance.version:
            return cached[1]
        instants = sorted(self.instants)
        members: List[Hashable] = []
        codes = np.empty(len(instants), dtype=np.int64)
        last_member: Optional[Hashable] = None
        seen: Set[Hashable] = set()
        for i, t in enumerate(instants):
            member = self.try_rollup(t, level)
            if member is None:
                raise RollupError(
                    f"instant {t!r} has no rollup at level {level!r}; "
                    f"granule partition would drop it"
                )
            if member != last_member:
                if member in seen:
                    raise RollupError(
                        f"granule {member!r} of level {level!r} is not "
                        f"contiguous: its instants are interleaved with "
                        f"other granules"
                    )
                seen.add(member)
                members.append(member)
                last_member = member
            codes[i] = len(members) - 1
        instant_col = np.asarray([float(t) for t in instants], dtype=float)
        starts = np.empty(len(members), dtype=float)
        ends = np.empty(len(members), dtype=float)
        for code in range(len(members)):
            rows = np.flatnonzero(codes == code)
            starts[code] = instant_col[rows[0]]
            ends[code] = instant_col[rows[-1]]
        partition = GranulePartition(
            level=level,
            members=tuple(members),
            starts=starts,
            ends=ends,
            instants=instant_col,
            codes=codes,
        )
        self._granule_cache[level] = (self.instance.version, partition)
        return partition
