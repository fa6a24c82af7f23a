"""Serializable query specifications and canonical result payloads.

A job queue that survives process death must store *descriptions* of
queries, not closures: a :class:`QuerySpec` is the JSON-serializable
description of one analytical query in either of the engine's two
vocabularies —

* ``kind="through"`` — the builder-API Section 5 pipeline: count the
  objects passing through the target geometries satisfying the
  constraints, optionally restricted to a time window (executed through
  the cost-based planner, so the stored EXPLAIN plan records which
  strategy ran);
* ``kind="pietql"`` — a Piet-QL query string, executed through a
  :class:`~repro.pietql.PietQLExecutor` that plans its ``THROUGH
  RESULT`` with the cost-based planner too;
* ``kind="ingest"`` — a batch of GPS samples for a streaming world's
  :class:`~repro.ingest.StreamingIngestor` (``samples`` is a list of
  ``[oid, t, x, y]`` rows); the result payload is the per-batch
  accounting (submitted/ingested/late/buffered, watermark, version).

Results are persisted as *canonical JSON* (:func:`canonical_json`:
sorted keys, no whitespace), so "the service answer equals the direct
executor answer" is a byte-for-byte string comparison — the form the
differential suite (``tests/service``) asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.mo.moft import PLAIN_IDS, ObjectSet

#: The query vocabularies a spec can carry.
SPEC_KINDS: Tuple[str, ...] = ("through", "pietql", "ingest")


@dataclass(frozen=True)
class QuerySpec:
    """One submitted query, in storable form.

    Use the :meth:`through` / :meth:`pietql` constructors; the raw
    constructor validates but does not normalize.
    """

    kind: str
    text: Optional[str] = None
    moft_name: str = "FM"
    target: Optional[Tuple[str, str]] = None
    constraints: Tuple[Tuple[str, Tuple[str, str]], ...] = ()
    window: Optional[Tuple[float, float]] = None
    samples: Tuple[Tuple[str, float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise ServiceError(
                f"unknown query spec kind {self.kind!r}; "
                f"expected one of {SPEC_KINDS}"
            )
        if self.kind == "pietql":
            if not self.text or not str(self.text).strip():
                raise ServiceError("a pietql spec needs non-empty query text")
        elif self.kind == "ingest":
            if not self.samples:
                raise ServiceError("an ingest spec needs >= 1 sample")
            for sample in self.samples:
                if len(sample) != 4:
                    raise ServiceError(
                        f"each ingest sample must be (oid, t, x, y), "
                        f"got {sample!r}"
                    )
        else:
            if self.target is None or len(self.target) != 2:
                raise ServiceError(
                    "a through spec needs a (layer, kind) target, got "
                    f"{self.target!r}"
                )
            for constraint in self.constraints:
                if (
                    len(constraint) != 2
                    or not isinstance(constraint[0], str)
                    or len(constraint[1]) != 2
                ):
                    raise ServiceError(
                        "each constraint must be (relation, (layer, kind)), "
                        f"got {constraint!r}"
                    )
            if self.window is not None and len(self.window) != 2:
                raise ServiceError(
                    f"window must be (start, end), got {self.window!r}"
                )

    # -- constructors --------------------------------------------------------

    @classmethod
    def through(
        cls,
        target: Tuple[str, str],
        constraints=(),
        moft_name: str = "FM",
        window: Optional[Tuple[float, float]] = None,
    ) -> "QuerySpec":
        """A builder-API count-objects-through query."""
        return cls(
            kind="through",
            moft_name=moft_name,
            target=(str(target[0]), str(target[1])),
            constraints=tuple(
                (str(rel), (str(ref[0]), str(ref[1])))
                for rel, ref in constraints
            ),
            window=(
                None
                if window is None
                else (float(window[0]), float(window[1]))
            ),
        )

    @classmethod
    def pietql(cls, text: str) -> "QuerySpec":
        """A Piet-QL query string."""
        return cls(kind="pietql", text=str(text))

    @classmethod
    def ingest(cls, samples) -> "QuerySpec":
        """A batch of ``(oid, t, x, y)`` samples for a streaming world."""
        return cls(
            kind="ingest",
            samples=tuple(
                (str(s[0]), float(s[1]), float(s[2]), float(s[3]))
                for s in samples
            ),
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON form (what the queue stores)."""
        payload: Dict[str, object] = {"kind": self.kind}
        if self.kind == "pietql":
            payload["text"] = self.text
        elif self.kind == "ingest":
            payload["samples"] = [list(sample) for sample in self.samples]
        else:
            payload["moft_name"] = self.moft_name
            payload["target"] = list(self.target)
            payload["constraints"] = [
                [rel, list(ref)] for rel, ref in self.constraints
            ]
            if self.window is not None:
                payload["window"] = list(self.window)
        return canonical_json(payload)

    @classmethod
    def from_json(cls, text: str) -> "QuerySpec":
        """Parse a stored spec; malformed input raises :class:`ServiceError`."""
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed query spec JSON: {exc}") from exc
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ServiceError(
                f"query spec JSON must be an object with a 'kind', "
                f"got {payload!r}"
            )
        kind = payload["kind"]
        try:
            if kind == "pietql":
                return cls.pietql(payload["text"])
            if kind == "ingest":
                return cls.ingest(payload["samples"])
            if kind == "through":
                return cls.through(
                    tuple(payload["target"]),
                    [
                        (rel, tuple(ref))
                        for rel, ref in payload.get("constraints", [])
                    ],
                    moft_name=payload.get("moft_name", "FM"),
                    window=(
                        tuple(payload["window"])
                        if payload.get("window") is not None
                        else None
                    ),
                )
        except ServiceError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ServiceError(f"malformed query spec JSON: {exc}") from exc
        raise ServiceError(
            f"unknown query spec kind {kind!r}; expected one of {SPEC_KINDS}"
        )

    def describe(self) -> str:
        """One-line human summary (CLI status output)."""
        if self.kind == "pietql":
            text = str(self.text)
            return text if len(text) <= 72 else text[:69] + "..."
        if self.kind == "ingest":
            ts = [s[1] for s in self.samples]
            return (
                f"ingest {len(self.samples)} sample(s) "
                f"[t={min(ts):g}..{max(ts):g}]"
            )
        parts = [f"through {self.target[0]}:{self.target[1]}"]
        for rel, ref in self.constraints:
            parts.append(f"{rel} {ref[0]}:{ref[1]}")
        label = ", ".join(parts) + f" [moft={self.moft_name}]"
        if self.window is not None:
            label += f" [window={self.window[0]:g}..{self.window[1]:g}]"
        return label


def canonical_json(payload: object) -> str:
    """Deterministic JSON text: sorted keys, compact separators.

    Every result and spec the queue persists goes through this one door,
    so equal answers are equal *strings* — the chaos-recovery suite's
    "byte-identical to the serial oracle" check is a plain ``==``.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sorted_ids(ids) -> list:
    """Id collections as sorted lists (order-insensitive, JSON-safe).
    Plain ``str`` / ``int`` ids (:data:`~repro.mo.moft.PLAIN_IDS`, which
    :func:`_plain` returns as they are and no two of which share a
    ``repr``) need no coercion, and an answer over a table of only such
    ids is already in order: one gather through the table's ``repr``
    order.  Any other id set is coerced, then sorted."""
    if isinstance(ids, ObjectSet) and ids.plain:
        return ids.in_repr_order()
    ids = list(ids)
    if PLAIN_IDS.issuperset(map(type, ids)):
        return sorted(ids, key=repr)
    return sorted(map(_plain, ids), key=repr)


def _plain(value):
    """Coerce numpy scalars and tuples to JSON-representable values."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def result_payload(kind: str, outcome) -> Dict[str, object]:
    """Project one execution outcome into a JSON-safe result dict.

    ``through`` outcomes are plain counts; ``pietql`` outcomes are
    :class:`~repro.pietql.executor.PietQLResult` instances, projected
    the same way the differential oracle fingerprints them (sorted id
    collections, sorted OLAP items) so that any two exact-equal results
    serialize identically.
    """
    if kind == "through":
        return {"kind": "through", "count": int(outcome)}
    if kind == "ingest":
        # outcome is a repro.ingest.IngestReport.
        return {
            "kind": "ingest",
            "submitted": int(outcome.submitted),
            "ingested": int(outcome.ingested),
            "late": int(outcome.late),
            "buffered": int(outcome.buffered),
            "watermark": float(outcome.watermark),
            "version": int(outcome.ordinal),
            "rows": int(outcome.rows),
        }
    payload: Dict[str, object] = {
        "kind": "pietql",
        "geometry_ids": _sorted_ids(outcome.geometry_ids),
        "count": _plain(outcome.count),
        "matched_objects": (
            None
            if outcome.matched_objects is None
            else _sorted_ids(outcome.matched_objects)
        ),
        "olap_result": (
            None
            if outcome.olap_result is None
            else sorted(
                ([_plain(k), _plain(v)] for k, v in outcome.olap_result.items()),
                key=repr,
            )
        ),
    }
    return payload


__all__ = [
    "SPEC_KINDS",
    "QuerySpec",
    "canonical_json",
    "result_payload",
]
