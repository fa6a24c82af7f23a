"""The aggregate operation of Definition 7 (after Consens & Mendelzon).

``γ_{f A(X)}(r)`` groups the relation ``r`` by the attribute list ``X`` and
aggregates attribute ``A`` within each group with ``f`` from
``AGG = {MIN, MAX, COUNT, SUM, AVG}``.  The paper applies this operator to
the spatio-temporal region ``C`` — a relation of ``(Oid, t[, gid])`` tuples
— to answer every moving-object aggregate query.
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import AggregationError


class AggregateFunction(enum.Enum):
    """The aggregate functions of Definition 7."""

    MIN = "MIN"
    MAX = "MAX"
    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"

    @classmethod
    def parse(cls, name: str) -> "AggregateFunction":
        """Parse a (case-insensitive) function name."""
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise AggregationError(
                f"unknown aggregate function {name!r}; "
                f"expected one of {[f.value for f in cls]}"
            ) from None

    def apply(self, values: Sequence) -> float:
        """Apply the function to a non-empty sequence of values.

        COUNT counts values (including duplicates); the numeric functions
        require numeric inputs.
        """
        if len(values) == 0:
            raise AggregationError(f"{self.value} over an empty group")
        if self is AggregateFunction.COUNT:
            return len(values)
        try:
            if self is AggregateFunction.MIN:
                return min(values)
            if self is AggregateFunction.MAX:
                return max(values)
            if self is AggregateFunction.SUM:
                return sum(values)
            return sum(values) / len(values)
        except TypeError as exc:
            raise AggregationError(
                f"{self.value} applied to non-numeric values"
            ) from exc


Row = Mapping[str, Hashable]


def aggregate(
    rows: Iterable[Row],
    function: AggregateFunction | str,
    measure: Optional[str],
    group_by: Sequence[str] = (),
) -> Dict[Tuple[Hashable, ...], float]:
    """Compute ``γ_{f measure(group_by)}(rows)``.

    Parameters
    ----------
    rows:
        The relation, as an iterable of mappings.
    function:
        Aggregate function (enum or name).
    measure:
        The attribute ``A`` to aggregate.  May be None for COUNT, which then
        counts rows.
    group_by:
        The grouping attribute list ``X``.  Empty means one global group,
        keyed by the empty tuple.

    Returns
    -------
    dict
        Mapping from group key (tuple of the ``group_by`` values) to the
        aggregated value.
    """
    if isinstance(function, str):
        function = AggregateFunction.parse(function)
    if measure is None and function is not AggregateFunction.COUNT:
        raise AggregationError(f"{function.value} requires a measure attribute")
    groups: Dict[Tuple[Hashable, ...], List] = {}
    for row in rows:
        try:
            key = tuple(row[attr] for attr in group_by)
        except KeyError as exc:
            raise AggregationError(
                f"grouping attribute {exc.args[0]!r} missing from row"
            ) from None
        if measure is None:
            value: Hashable = 1
        else:
            try:
                value = row[measure]
            except KeyError:
                raise AggregationError(
                    f"measure attribute {measure!r} missing from row"
                ) from None
        groups.setdefault(key, []).append(value)
    return {key: function.apply(values) for key, values in groups.items()}
