"""Differential-testing oracle for the sharded query engine.

The seed serial pipeline is the reference implementation; every parallel
backend must return *exactly* its answers — parallelism is an execution
strategy, never a semantics change.  The oracle runs one query through
the serial path and then through each (backend, shard count) pair,
collects every disagreement, and raises a single assertion listing all
of them, so a failure shows the full shape of the divergence instead of
the first mismatched backend.

Use the query-specific helpers (:meth:`DifferentialOracle.check_count`,
:meth:`DifferentialOracle.check_pietql`) for the built-in pipelines, or
:meth:`DifferentialOracle.check` to compare any serial callable against
a sharded one.

With the materialized pre-aggregation layer (:mod:`repro.preagg`) the
oracle is *three-way*: serial scan vs sharded scans vs the planner's
store route (:meth:`DifferentialOracle.check_count_three_way`,
:meth:`DifferentialOracle.check_dwell_three_way`).  Extra named runs
report mismatches with the run name as the backend and ``n_shards=0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.pietql.executor import LayerBinding, PietQLExecutor, PietQLResult
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import count_objects_through
from repro.query.region import EvaluationContext

#: Every execution backend the engine ships.
ALL_BACKENDS: Tuple[str, ...] = ("serial", "processes")

#: Shard counts worth exercising: degenerate (1), even, and "more shards
#: than is sensible" (forces empty / tiny shards).
DEFAULT_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 5)


@dataclass
class Mismatch:
    """One disagreement between the serial path and a parallel run."""

    backend: str
    n_shards: int
    expected: object
    actual: object

    def describe(self) -> str:
        return (
            f"backend={self.backend!r} n_shards={self.n_shards}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


@dataclass
class OracleReport:
    """Outcome of one differential check: the reference answer plus runs."""

    label: str
    expected: object
    runs: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            lines = "\n  ".join(m.describe() for m in self.mismatches)
            raise AssertionError(
                f"differential oracle: {len(self.mismatches)}/{self.runs} "
                f"parallel runs diverged from the serial path for "
                f"{self.label!r}:\n  {lines}"
            )


def sorted_ids(ids: Optional[object]) -> Optional[Tuple[object, ...]]:
    """Normalize an id collection to a sorted tuple (``None`` passes through).

    Both sides of every comparison go through this, so a backend that
    happens to yield objects in shard order compares equal to the serial
    path's scan order — the *set* of ids is the semantics, not the
    iteration order.  Sorting is by ``repr`` so mixed-type id vocabularies
    (ints vs strings) stay comparable.
    """
    if ids is None:
        return None
    return tuple(sorted(ids, key=repr))


def pietql_fingerprint(result: PietQLResult) -> Tuple[object, ...]:
    """A comparable, order-insensitive projection of a query result."""
    olap: Optional[Tuple[Tuple[object, float], ...]] = None
    if result.olap_result is not None:
        olap = tuple(sorted(result.olap_result.items(), key=repr))
    return (
        sorted_ids(result.geometry_ids),
        result.count,
        sorted_ids(result.matched_objects),
        olap,
    )


class DifferentialOracle:
    """Runs queries serially and through every backend, demanding equality."""

    def __init__(
        self,
        backends: Sequence[str] = ALL_BACKENDS,
        shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    ) -> None:
        self.backends = tuple(backends)
        self.shard_counts = tuple(shard_counts)

    # -- the generic comparison -------------------------------------------------

    def check(
        self,
        label: str,
        serial_fn: Callable[[], object],
        sharded_fn: Callable[[str, int], object],
        normalize: Callable[[object], object] = lambda value: value,
        extras: Optional[Mapping[str, Callable[[], object]]] = None,
        equal: Optional[Callable[[object, object], bool]] = None,
    ) -> OracleReport:
        """Compare ``serial_fn()`` against every (backend, shard) run.

        ``sharded_fn(backend, n_shards)`` produces the parallel answer;
        ``normalize`` maps both sides into comparable values (e.g. a
        result-object fingerprint).  ``extras`` adds named answer paths
        (e.g. the pre-agg planner route) run once each and held to the
        same reference; their mismatches carry the name as the backend
        and ``n_shards=0``.  ``equal`` overrides ``==`` for tolerant
        comparison of float answers.  Raises ``AssertionError`` listing
        every divergence; returns the report (with the serial answer)
        when all runs agree.
        """
        expected = normalize(serial_fn())
        same = equal if equal is not None else (lambda a, b: a == b)
        report = OracleReport(label=label, expected=expected)
        for backend in self.backends:
            for n_shards in self.shard_counts:
                actual = normalize(sharded_fn(backend, n_shards))
                report.runs += 1
                if not same(expected, actual):
                    report.mismatches.append(
                        Mismatch(backend, n_shards, expected, actual)
                    )
        for name, fn in (extras or {}).items():
            actual = normalize(fn())
            report.runs += 1
            if not same(expected, actual):
                report.mismatches.append(Mismatch(name, 0, expected, actual))
        report.raise_on_mismatch()
        return report

    # -- pipeline-specific helpers ----------------------------------------------

    def check_count(
        self,
        context: EvaluationContext,
        target: Tuple[str, str],
        constraints: Sequence[Tuple[str, Tuple[str, str]]],
        moft_name: str = "FM",
    ) -> OracleReport:
        """Differential ``count_objects_through``: serial vs sharded scans."""

        def serial() -> int:
            return count_objects_through(
                context, target, constraints, moft_name=moft_name
            )

        def sharded(backend: str, n_shards: int) -> int:
            executor = ShardedExecutor(
                backend=backend, n_shards=n_shards, obs=context.obs
            )
            return executor.count_objects_through(
                context, target, constraints, moft_name=moft_name
            )

        return self.check(
            f"count_objects_through(target={target})", serial, sharded
        )

    def check_count_three_way(
        self,
        context: EvaluationContext,
        target: Tuple[str, str],
        constraints: Sequence[Tuple[str, Tuple[str, str]]],
        moft_name: str = "FM",
        window: Optional[Tuple[float, float]] = None,
    ) -> OracleReport:
        """Serial scan vs sharded scans vs the pre-agg planner route.

        ``context`` must carry a registered fresh
        :class:`~repro.preagg.PreAggStore` for the target; the scan legs
        force ``use_preagg=False`` so they remain an independent
        reference, while the two extra legs route through the store —
        serially and with a sharded executor (which shards the residual
        sliver scan on misaligned windows).  The preagg legs also assert
        the route actually fired (``preagg_hits`` advanced): a silently
        falling-back rewrite would otherwise vacuously pass.
        """

        def serial() -> int:
            return count_objects_through(
                context, target, constraints, moft_name=moft_name,
                window=window, use_preagg=False,
            )

        def sharded(backend: str, n_shards: int) -> int:
            executor = ShardedExecutor(
                backend=backend, n_shards=n_shards, obs=context.obs
            )
            return executor.count_objects_through(
                context, target, constraints, moft_name=moft_name,
                window=window, use_preagg=False,
            )

        def routed(executor: Optional[ShardedExecutor]) -> int:
            before = context.obs.counters.get("preagg_hits", 0)
            value = count_objects_through(
                context, target, constraints, moft_name=moft_name,
                window=window, use_preagg=True, executor=executor,
            )
            assert context.obs.counters.get("preagg_hits", 0) == before + 1, (
                f"pre-agg route did not fire for window={window}"
            )
            return value

        return self.check(
            f"count_objects_through(target={target}, window={window})",
            serial,
            sharded,
            extras={
                "preagg": lambda: routed(None),
                "preagg+sharded-sliver": lambda: routed(
                    ShardedExecutor(
                        backend="serial", n_shards=3, obs=context.obs
                    )
                ),
            },
        )

    def check_dwell_three_way(
        self,
        context: EvaluationContext,
        target: Tuple[str, str],
        constraints: Sequence[Tuple[str, Tuple[str, str]]],
        moft_name: str = "FM",
        window: Optional[Tuple[float, float]] = None,
    ) -> OracleReport:
        """Serial dwell-time aggregate vs the pre-agg cell route.

        Dwell is a float sum whose terms associate differently between
        the interval-merging serial path and the per-segment store
        cells, so equality is up to a tight relative tolerance; counts
        and id sets elsewhere stay exact.  There is no sharded dwell
        scan, so the backend legs re-run the serial path (degenerate but
        keeps the report shape uniform).
        """

        def serial() -> float:
            return total_dwell_time(
                context, target, constraints, moft_name=moft_name,
                window=window, use_preagg=False,
            )

        def routed() -> float:
            before = context.obs.counters.get("preagg_hits", 0)
            value = total_dwell_time(
                context, target, constraints, moft_name=moft_name,
                window=window, use_preagg=True,
            )
            assert context.obs.counters.get("preagg_hits", 0) == before + 1, (
                f"pre-agg dwell route did not fire for window={window}"
            )
            return value

        return self.check(
            f"total_dwell_time(target={target}, window={window})",
            serial,
            lambda backend, n_shards: serial(),
            extras={"preagg": routed},
            equal=lambda a, b: math.isclose(
                a, b, rel_tol=1e-9, abs_tol=1e-9
            ),
        )

    def check_pietql(
        self,
        context: EvaluationContext,
        bindings: Optional[Mapping[str, LayerBinding]],
        query: str,
    ) -> OracleReport:
        """Differential Piet-QL execution: seed executor vs sharded one."""

        def serial() -> PietQLResult:
            return PietQLExecutor(context, bindings).execute(query)

        def sharded(backend: str, n_shards: int) -> PietQLResult:
            executor = ShardedPietQLExecutor(
                context, bindings, backend=backend, n_shards=n_shards
            )
            return executor.execute(query)

        return self.check(query, serial, sharded, normalize=pietql_fingerprint)
