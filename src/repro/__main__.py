"""``python -m repro`` — the command-line entry point.

Subcommands:

* ``demo`` (the default) — renders the paper's Figure 1 as ASCII, runs
  the Remark 1 query and prints the 4/3 answer with its breakdown;
* ``info PATH`` — reads a MOFT dump (CSV with an ``oid,t,x,y`` header,
  or a columnar ``.moft`` file — sniffed by magic) and prints a
  one-screen summary: rows, objects, time span, bounding box;
* ``convert SRC DST`` — converts between the CSV and columnar MOFT
  formats (``repro.mo.storage``).  The source format is sniffed by
  magic bytes; the destination format follows its extension (``.csv``
  writes CSV, anything else writes columnar);
* ``ingest PATH`` — streams a MOFT CSV through the watermarked ingest
  pipeline (``repro.ingest``) in batches against a named world's
  dimensions, then prints the accounting: samples
  submitted/ingested/late, flushes, final snapshot version (see
  ``docs/ingest.md``);
* ``poi`` — builds a POI world (Figure 1 with its places of interest,
  or the synthetic city with schools/stores promoted to discs and a
  stop-biased population), runs the stop/move segmentation and prints
  visits, dwell, top-k places and the planner's EXPLAIN route (see
  ``docs/poi.md``);
* the query-service verbs (see ``docs/service.md``), all sharing a
  SQLite-backed durable job queue file (``--db``):

  - ``submit`` — admission-checked enqueue of a Piet-QL string or a
    builder-API ``--through`` count spec; prints the job id;
  - ``serve`` — run a worker pool over the queue (``--drain``
    processes everything queued, then exits — the batch mode the
    tests and CI drive);
  - ``status JOB`` — one-screen job record: state, attempts, error,
    fault trace, metrics snapshot;
  - ``result JOB`` — the canonical result JSON of a ``done`` job (and
    its EXPLAIN plan with ``--explain``).

Failure semantics: bad input (a missing file, a malformed CSV or query,
a rejected admission, an unknown job id) exits with status 2 and a
single ``error: ...`` line on stderr — never a traceback.  Every domain
failure is a typed :class:`~repro.errors.ReproError` subclass, which is
what makes that guarantee enforceable (see ``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import ReproError, ServiceError


def _run_demo() -> int:
    from repro.query import (
        AggregateSpec,
        MovingObjectAggregateQuery,
        RegionBuilder,
        count_per_group,
    )
    from repro.synth import LOW_INCOME_THRESHOLD, figure1_instance
    from repro.viz import render_figure1

    print("Figure 1 demo: the paper's running example.")
    print()
    print(render_figure1(width=64, height=20))
    print()
    world = figure1_instance()
    ctx = world.context()
    region = (
        RegionBuilder()
        .from_moft("FMbus")
        .during("timeOfDay", "Morning")
        .in_attribute_polygon(
            "neighborhood", value_filter=("income", "<", LOW_INCOME_THRESHOLD)
        )
        .build(world.gis)
    )
    query = MovingObjectAggregateQuery(
        region,
        AggregateSpec(per_span_level="timeOfDay", per_span_member="Morning"),
    )
    answer = query.run_scalar(ctx)
    per_object = count_per_group(region, ctx, ["oid"])
    print(
        "Buses per hour in the morning in neighborhoods with income "
        f"< {LOW_INCOME_THRESHOLD}: {answer:.4f}  (paper's Remark 1: 4/3)"
    )
    print(
        "Contributions: "
        + ", ".join(f"{k[0]}×{v:.0f}" for k, v in sorted(per_object.items()))
    )
    return 0


def _load_any_moft(path: str):
    """Load ``path`` as columnar (sniffed by magic) or CSV; returns
    ``(moft, format_name)``."""
    from repro.mo import storage
    from repro.mo.io import read_csv

    if storage.is_columnar_file(path):
        return storage.load_moft(path), "columnar"
    return read_csv(path), "CSV"


def _run_info(path: str) -> int:
    moft, fmt = _load_any_moft(path)
    print(f"MOFT {fmt}: {path}")
    print(f"  rows:    {len(moft)}")
    print(f"  objects: {len(moft.objects())}")
    if len(moft):
        t_min, t_max = moft.time_range()
        box = moft.bbox()
        print(f"  time:    [{t_min:g}, {t_max:g}]")
        print(
            f"  bbox:    ({box.min_x:g}, {box.min_y:g}) — "
            f"({box.max_x:g}, {box.max_y:g})"
        )
    return 0


def _run_convert(args) -> int:
    import os

    from repro.mo import storage
    from repro.mo.io import write_csv

    moft, src_fmt = _load_any_moft(args.src)
    to_csv = os.path.splitext(args.dst)[1].lower() == ".csv"
    if to_csv:
        write_csv(moft, args.dst)
        dst_fmt, nbytes = "CSV", os.path.getsize(args.dst)
    else:
        dst_fmt = "columnar"
        nbytes = storage.save_moft(
            moft, args.dst, include_index=not args.no_index
        )
    print(
        f"converted {args.src} ({src_fmt}) -> {args.dst} ({dst_fmt}): "
        f"{len(moft)} rows, {len(moft.objects())} objects, "
        f"{nbytes} bytes"
    )
    return 0


def _run_ingest(args) -> int:
    from repro.gis import POLYGON
    from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
    from repro.mo.io import read_csv
    from repro.service import load_world

    world = load_world(args.world)
    context = world.context
    moft_name = "FMbus" if args.world == "fig1" else "FM"
    # Hour-of-day granules wrap on the 100-instant synth clock; its
    # streaming store maintains day granules (matching load_world).
    granule = "hour" if args.world == "fig1" else "day"
    data = read_csv(args.path, name=moft_name)
    ingestor = StreamingIngestor(
        context.gis,
        context.time,
        moft_name=moft_name,
        config=IngestConfig(allowed_lateness=args.lateness),
        store_specs=[StoreSpec(granule, "Ln", POLYGON)],
    )
    t, x, y = data.as_arrays()
    oids = data.oid_column()
    batch = max(1, args.batch_size)
    for i in range(0, len(data), batch):
        j = min(i + batch, len(data))
        ingestor.submit(
            oids[i:j].tolist(),
            t[i:j].tolist(),
            x[i:j].tolist(),
            y[i:j].tolist(),
        )
    snapshot = ingestor.close()
    counters = ingestor.obs.counters
    print(f"ingested {args.path} into world {args.world!r} ({moft_name})")
    print(
        f"  samples:     {counters.get('samples_submitted', 0)} submitted, "
        f"{counters.get('samples_ingested', 0)} ingested, "
        f"{counters.get('samples_late', 0)} late"
    )
    print(
        f"  pipeline:    {counters.get('ingest_batches', 0)} batch(es), "
        f"{counters.get('ingest_flushes', 0)} flush(es)"
    )
    print(
        f"  head:        version {snapshot.ordinal}, {snapshot.rows} rows, "
        f"watermark {snapshot.watermark:g}"
    )
    return 0


# -- service verbs -------------------------------------------------------------


def _parse_target(text: str):
    parts = text.split(":")
    if len(parts) != 2 or not all(parts):
        raise ServiceError(
            f"target must be LAYER:KIND (e.g. Ln:polygon), got {text!r}"
        )
    return (parts[0], parts[1])


def _parse_constraint(text: str):
    parts = text.split(":")
    if len(parts) != 3 or not all(parts):
        raise ServiceError(
            "constraint must be RELATION:LAYER:KIND "
            f"(e.g. intersects:Lr:polyline), got {text!r}"
        )
    return (parts[0], (parts[1], parts[2]))


def _parse_window(text: str):
    parts = text.split(":")
    try:
        start, end = (float(parts[0]), float(parts[1]))
    except (ValueError, IndexError):
        raise ServiceError(
            f"window must be START:END (two numbers), got {text!r}"
        ) from None
    return (start, end)


def _build_spec(args):
    from repro.service import QuerySpec

    if args.through is not None:
        if args.query is not None:
            raise ServiceError(
                "pass either a Piet-QL query or --through, not both"
            )
        return QuerySpec.through(
            _parse_target(args.through),
            [_parse_constraint(c) for c in args.constraint],
            moft_name=args.moft,
            window=(
                _parse_window(args.window)
                if args.window is not None
                else None
            ),
        )
    if args.query is None:
        raise ServiceError(
            "nothing to submit: pass a Piet-QL query string or --through"
        )
    return QuerySpec.pietql(args.query)


def _run_submit(args) -> int:
    from repro.service import (
        AdmissionController,
        AdmissionPolicy,
        SQLiteJobQueue,
    )

    spec = _build_spec(args)
    queue = SQLiteJobQueue(args.db)
    try:
        admission = AdmissionController(
            AdmissionPolicy(
                max_queue_depth=args.max_depth,
                max_in_flight_per_client=args.max_inflight,
            ),
            obs=queue.obs,
        )
        with queue._lock:
            admission.admit(queue, args.client)
            job = queue.enqueue(
                spec, client_id=args.client, max_retries=args.retries
            )
        print(job.job_id)
        print(
            f"queued {spec.describe()} (depth={queue.depth()})",
            file=sys.stderr,
        )
        return 0
    finally:
        queue.close()


def _run_serve(args) -> int:
    from repro.service import SQLiteJobQueue, WorkerPool, load_world

    world = load_world(args.world)
    queue = SQLiteJobQueue(args.db)
    pool = WorkerPool(
        queue,
        world,
        n_workers=args.workers,
        lease_s=args.lease,
        backend=args.backend,
    )
    try:
        with pool:
            if args.drain:
                pool.drain(timeout=args.timeout)
            else:  # pragma: no cover - interactive mode
                print(
                    f"serving world {args.world!r} from {args.db} "
                    f"with {args.workers} worker(s); Ctrl-C to stop"
                )
                try:
                    while True:
                        pool._stop.wait(0.5)
                except KeyboardInterrupt:
                    pass
        counts = queue.counts()
        print(
            f"queue {args.db}: "
            + " ".join(f"{s}={counts[s]}" for s in sorted(counts))
        )
        return 0
    finally:
        queue.close()


def _format_job(job, verbose: bool = True) -> str:
    lines = [f"job {job.job_id}: {job.state}"]
    lines.append(f"  client:   {job.client_id}")
    lines.append(f"  query:    {job.spec.describe()}")
    lines.append(
        f"  attempts: {job.attempts} (max_retries={job.max_retries})"
    )
    if job.worker_id:
        lines.append(f"  worker:   {job.worker_id}")
    if job.error:
        lines.append(f"  error:    {job.error}")
    if job.fault_trace:
        lines.append(f"  faults:   {job.fault_trace}")
    if verbose and job.metrics_json:
        lines.append(f"  metrics:  {job.metrics_json}")
    return "\n".join(lines)


def _run_status(args) -> int:
    from repro.service import SQLiteJobQueue

    queue = SQLiteJobQueue(args.db)
    try:
        print(_format_job(queue.get(args.job_id)))
        return 0
    finally:
        queue.close()


def _run_result(args) -> int:
    from repro.errors import JobFailedError, JobStateError
    from repro.service import SQLiteJobQueue

    queue = SQLiteJobQueue(args.db)
    try:
        job = queue.get(args.job_id)
        if job.state in ("failed", "dead"):
            raise JobFailedError(
                f"job {args.job_id} is {job.state}: {job.error}"
                + (f" [faults: {job.fault_trace}]" if job.fault_trace else ""),
                error=job.error,
            )
        if job.state != "done":
            raise JobStateError(
                f"job {args.job_id} has no result yet "
                f"(state={job.state!r})"
            )
        print(job.result_json)
        if args.explain and job.explain:
            print(job.explain, file=sys.stderr)
        return 0
    finally:
        queue.close()



def _run_poi(args) -> int:
    from repro.query.planner import plan
    from repro.query.poi import resolve_poi
    from repro.query.region import EvaluationContext

    if args.world == "fig1":
        from repro.synth import figure1_instance

        world = figure1_instance(with_pois=True)
        context = world.context()
        moft_name, layer = "FMbus", "Lp"
        granule = args.granule or "hour"
    else:
        from datetime import datetime

        import numpy as np

        from repro.synth import (
            CityConfig,
            build_city,
            install_city_pois,
            stop_biased_moft,
        )
        from repro.temporal.calendar import hourly
        from repro.temporal.timedim import TimeDimension

        city = build_city(
            CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
        )
        pois = install_city_pois(city, radius=args.radius)
        n_instants = 100
        time_dim = TimeDimension.from_mapping(
            hourly(datetime(2006, 1, 9, 0, 0)), range(n_instants)
        )
        moft = stop_biased_moft(pois, args.objects, n_instants)
        context = EvaluationContext(city.gis, time_dim, moft)
        moft_name, layer = "FM", "Lp"
        granule = args.granule or "day"

    # One top-k leaf, planned and executed once; visits and dwell are
    # read off the store that run segmented.
    chosen = plan(resolve_poi(
        context, layer, granule, args.min_dwell, moft_name, "topk", args.k
    ))
    run = chosen.execute()
    visits, dwell = run.store.visit_counts(), run.store.dwell_times()
    topk = run.answer
    n_pois = len(context.gis.layer(layer).elements("poi"))
    print(
        f"POI world {args.world!r}: {n_pois} places, "
        f"granule level {granule!r}, min_dwell {args.min_dwell:g}"
    )
    print(f"  visited cells: {len(visits)}, total visits "
          f"{sum(visits.values())}, dwell {sum(dwell.values()):.3f}")
    for member in sorted(topk, key=repr):
        ranked = ", ".join(
            f"{gid}×{count}" for gid, count in topk[member]
        )
        print(f"  top-{args.k} @ {member}: {ranked}")
    print()
    print(chosen.render())
    counters = context.obs.counters
    interesting = (
        "stop_episodes",
        "poi_visits",
        "poi_preagg_hits",
        "disc_kernel_segments",
    )
    shown = {k: counters[k] for k in interesting if k in counters}
    if shown:
        print("counters: " + ", ".join(f"{k}={v}" for k, v in shown.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Moving-object aggregation (Kuijpers & Vaisman, ICDE 2007): "
            "run the Figure 1 demo, inspect a MOFT CSV dump, or operate "
            "the durable query service (submit/serve/status/result)."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("demo", help="render Figure 1 and run the Remark 1 query")
    info = sub.add_parser("info", help="summarize a MOFT file (CSV or columnar)")
    info.add_argument(
        "path", help="path to a MOFT CSV (oid,t,x,y header) or columnar file"
    )

    convert = sub.add_parser(
        "convert",
        help="convert a MOFT between CSV and the columnar format",
    )
    convert.add_argument(
        "src", help="source MOFT file (CSV or columnar; sniffed by magic)"
    )
    convert.add_argument(
        "dst",
        help="destination path (.csv writes CSV, anything else columnar)",
    )
    convert.add_argument(
        "--no-index", action="store_true",
        help="omit the per-object sorted index from columnar output",
    )

    ingest = sub.add_parser(
        "ingest",
        help="stream a MOFT CSV through the watermarked ingest pipeline",
    )
    ingest.add_argument(
        "path",
        help="MOFT CSV to stream (instants must be registered in the "
        "chosen world's Time dimension)",
    )
    ingest.add_argument(
        "--world", default="fig1", choices=("fig1", "synth"),
        help="world providing the GIS and Time dimensions (default fig1)",
    )
    ingest.add_argument(
        "--batch-size", type=int, default=64,
        help="samples per submitted batch (default 64)",
    )
    ingest.add_argument(
        "--lateness", type=float, default=0.0,
        help="allowed lateness in event-time units (default 0)",
    )

    poi = sub.add_parser(
        "poi",
        help="run the places-of-interest stop/move aggregation demo",
    )
    poi.add_argument(
        "--world", default="fig1", choices=("fig1", "synth"),
        help="POI world: Figure 1 places or the synthetic city "
        "(default fig1)",
    )
    poi.add_argument(
        "--granule", default=None,
        help="Time granule level (default: hour for fig1, day for synth)",
    )
    poi.add_argument(
        "--radius", type=float, default=None,
        help="synth disc radius (default: a quarter block)",
    )
    poi.add_argument(
        "--min-dwell", type=float, default=0.0, dest="min_dwell",
        help="minimum stop duration in event-time units (default 0)",
    )
    poi.add_argument(
        "--k", type=int, default=3,
        help="places per granule in the top-k ranking (default 3)",
    )
    poi.add_argument(
        "--objects", type=int, default=40,
        help="synth population size (default 40)",
    )

    submit = sub.add_parser(
        "submit", help="enqueue a query into a durable job queue"
    )
    submit.add_argument("--db", required=True, help="job queue SQLite file")
    submit.add_argument(
        "query", nargs="?", help="a Piet-QL query string to enqueue"
    )
    submit.add_argument(
        "--through",
        metavar="LAYER:KIND",
        help="builder-API count: target geometries (e.g. Ln:polygon)",
    )
    submit.add_argument(
        "--constraint",
        action="append",
        default=[],
        metavar="REL:LAYER:KIND",
        help="constraint on the target (repeatable), "
        "e.g. intersects:Lr:polyline",
    )
    submit.add_argument(
        "--moft", default="FM", help="MOFT name for --through (default FM)"
    )
    submit.add_argument(
        "--window", metavar="START:END", help="time window for --through"
    )
    submit.add_argument(
        "--client", default="cli", help="client id for admission control"
    )
    submit.add_argument(
        "--max-depth", type=int, default=1024,
        help="admission cap: max queued jobs (default 1024)",
    )
    submit.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission cap: max in-flight jobs per client (default 64)",
    )
    submit.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts granted on retryable failures (default 2)",
    )

    serve = sub.add_parser(
        "serve", help="run a worker pool over a durable job queue"
    )
    serve.add_argument("--db", required=True, help="job queue SQLite file")
    serve.add_argument(
        "--world", default="fig1", choices=("fig1", "synth"),
        help="evaluation world queries run against (default fig1)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker threads (default 2)"
    )
    serve.add_argument(
        "--lease", type=float, default=30.0,
        help="claim visibility timeout in seconds (default 30)",
    )
    serve.add_argument(
        "--backend", default="serial",
        choices=("serial", "processes"),
        help="sharded-executor backend jobs run with (default serial)",
    )
    serve.add_argument(
        "--drain", action="store_true",
        help="process everything queued, then exit",
    )
    serve.add_argument(
        "--timeout", type=float, default=300.0,
        help="--drain timeout in seconds (default 300)",
    )

    status = sub.add_parser("status", help="show one job's record")
    status.add_argument("--db", required=True, help="job queue SQLite file")
    status.add_argument("job_id", help="the job id printed by submit")

    result = sub.add_parser(
        "result", help="print a done job's canonical result JSON"
    )
    result.add_argument("--db", required=True, help="job queue SQLite file")
    result.add_argument("job_id", help="the job id printed by submit")
    result.add_argument(
        "--explain", action="store_true",
        help="also print the stored EXPLAIN plan to stderr",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return _run_info(args.path)
        if args.command == "convert":
            return _run_convert(args)
        if args.command == "ingest":
            return _run_ingest(args)
        if args.command == "poi":
            return _run_poi(args)
        if args.command == "submit":
            return _run_submit(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "status":
            return _run_status(args)
        if args.command == "result":
            return _run_result(args)
        return _run_demo()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
