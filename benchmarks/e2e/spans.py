"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's side, around calls into the
public functions of each layer (name, start, end, parent, op id); the
program under test is not instrumented.  Observer deltas
(:meth:`repro.obs.PipelineStats.since`) of the enclosing call are
attached as span attributes.  Spans stay in memory and are written once,
after the measured phases.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional


class Tracer:
    """Collects spans; one parent stack per thread (service clients)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_op = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, kind: str, observers: Iterable = ()):
        """The root span of one operation; children share its op id."""
        with self._lock:
            self._next_op += 1
            self._local.op = self._next_op
        with self.span(f"op:{kind}", observers) as record:
            yield record

    @contextmanager
    def span(self, name: str, observers: Iterable = ()):
        stack = self._stack()
        record = {
            "name": name,
            "op": getattr(self._local, "op", 0),
            "parent": stack[-1] if stack else None,
            "attrs": {},
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        observers = tuple(observers)
        before = [obs.snapshot() for obs in observers]
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            for obs, snap in zip(observers, before):
                for key, value in obs.since(snap).items():
                    record["attrs"][key] = record["attrs"].get(key, 0) + value
            stack.pop()


def durations(spans: List[dict], name: str, under: Optional[str] = None) -> List[float]:
    """Seconds of every span called ``name`` (optionally only those whose
    op root is ``op:<under>``)."""
    roots = {s["op"]: s["name"] for s in spans if s["parent"] is None}
    return [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name
        and (under is None or roots.get(s["op"]) == f"op:{under}")
    ]


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Total self seconds per span name: a span's duration minus the
    part of it its child spans cover."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = (
                covered.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    totals: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def child_coverage(spans: List[dict]) -> Dict[str, float]:
    """Per op kind, the share of the root spans their children cover."""
    parent_s: Dict[str, float] = {}
    child_s: Dict[str, float] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is None:
            parent_s[s["name"]] = parent_s.get(s["name"], 0.0) + s["end"] - s["start"]
        elif by_id[s["parent"]]["parent"] is None:
            root = by_id[s["parent"]]["name"]
            child_s[root] = child_s.get(root, 0.0) + s["end"] - s["start"]
    return {
        name[3:]: child_s.get(name, 0.0) / total
        for name, total in parent_s.items()
        if total > 0
    }


def attr_total(
    spans: List[dict], key: str, kinds: Optional[Iterable[str]] = None, *, name: str
) -> float:
    """Sum of one attribute over the spans called ``name`` (of the ops
    of ``kinds``)."""
    roots = {s["op"]: s["name"] for s in spans if s["parent"] is None}
    wanted = None if kinds is None else {f"op:{k}" for k in kinds}
    return sum(
        s["attrs"].get(key, 0)
        for s in spans
        if s["name"] == name and (wanted is None or roots.get(s["op"]) in wanted)
    )
