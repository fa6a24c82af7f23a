"""Calendar helpers backing the Time dimension.

The paper keeps time instants abstract (``timeId`` values, rational in
theory, integers from sampling in practice) and reaches calendar concepts
through rollup functions: ``R^{timeOfDay}_{timeId}(t) = "Morning"``,
``R^{dayOfWeek}_{timeId}(t) = "Wednesday"`` and so on.  This module supplies
the concrete calendar arithmetic those rollups need.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, Tuple

from repro.errors import SchemaError

#: Weekday names indexed by :meth:`datetime.date.weekday` (Monday = 0).
DAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)

#: The day-part categories used by the paper's example queries.
TIME_OF_DAY_NAMES = ("Night", "Morning", "Afternoon", "Evening")

#: Default hour-of-day boundaries for the day parts, as half-open ranges.
DEFAULT_DAY_PARTS: Dict[str, Tuple[int, int]] = {
    "Night": (0, 6),
    "Morning": (6, 12),
    "Afternoon": (12, 18),
    "Evening": (18, 24),
}


def time_of_day_for_hour(
    hour: int, day_parts: Dict[str, Tuple[int, int]] | None = None
) -> str:
    """Return the day-part name containing the given hour of day."""
    if not 0 <= hour <= 23:
        raise SchemaError(f"hour of day out of range: {hour}")
    parts = day_parts or DEFAULT_DAY_PARTS
    for name, (lo, hi) in parts.items():
        if lo <= hour < hi:
            return name
    raise SchemaError(f"hour {hour} not covered by the day-part table")


def day_of_week_name(moment: datetime) -> str:
    """Return the weekday name of a datetime."""
    return DAY_NAMES[moment.weekday()]


def type_of_day(moment: datetime) -> str:
    """Classify a datetime as Weekday or Weekend."""
    return "Weekend" if moment.weekday() >= 5 else "Weekday"


@dataclass(frozen=True)
class InstantMapping:
    """Affine mapping from integer ``timeId`` instants to wall-clock time.

    Instant ``t`` denotes ``epoch + t * step``.  The mapping is the bridge
    between the MOFT's abstract instants and the Time dimension's calendar
    levels.
    """

    epoch: datetime
    step: timedelta

    def __post_init__(self) -> None:
        if self.step <= timedelta(0):
            raise SchemaError("instant step must be positive")

    def to_datetime(self, instant: int) -> datetime:
        """Return the wall-clock moment of an instant."""
        return self.epoch + instant * self.step

    def from_datetime(self, moment: datetime) -> int:
        """Return the instant whose interval contains ``moment``."""
        delta = moment - self.epoch
        return int(delta / self.step)


def hourly(epoch: datetime) -> InstantMapping:
    """Mapping where each instant is one hour (the paper's bus example)."""
    return InstantMapping(epoch, timedelta(hours=1))


def every_minutes(epoch: datetime, minutes: int) -> InstantMapping:
    """Mapping where each instant is ``minutes`` minutes."""
    if minutes <= 0:
        raise SchemaError("minutes must be positive")
    return InstantMapping(epoch, timedelta(minutes=minutes))
