"""Command-line entry point: ``python -m repro <command>``.

Commands:
    demo      run the SBI quickstart online (generated data)
    console   interactive online-SQL console over generated workloads
    queries   list the bundled paper queries
    trace     run a query online with tracing, writing a JSONL event log
    report    render the per-phase/per-operator profile of a trace file
    serve     start the concurrent multi-query HTTP server
    submit    submit a query to a running server, stream its snapshots
    convert   write a CSV or generated workload as a colstore dataset
    inspect   report a colstore dataset's layout and stored state
    fuzz      differential query fuzzing across every execution path
    calibrate measure empirical bootstrap-CI coverage vs nominal
    chaos     kill and stop workers between batches; assert answers
              are bit-identical to serial
"""

from __future__ import annotations

import argparse
import sys


def _parse_faults(spec):
    """``--faults`` spec -> FaultsConfig (default when not given)."""
    from .config import FaultsConfig

    return FaultsConfig.parse(spec) if spec else FaultsConfig()


def _parse_workers(spec):
    """``--workers`` spec -> ParallelConfig (serial when not given)."""
    from .config import ParallelConfig

    return ParallelConfig.parse(spec) if spec else ParallelConfig()


#: Counters that record a recovery: row quarantine, the supervised
#: pool's two actions (rebuild, serial fallback) and their causes.
_RECOVERY_COUNTERS = (
    "faults.rows_quarantined", "parallel.restarts",
    "parallel.serial_fallbacks", "parallel.worker_lost",
    "parallel.task_timeouts", "parallel.task_failures",
    "parallel.corrupt_results",
)


def _print_recovery(metrics) -> None:
    """Print the run's recovery counters, if any fired."""
    counters = metrics.snapshot().counters
    recovery = {
        name: counters[name] for name in _RECOVERY_COUNTERS
        if counters.get(name)
    }
    if not recovery:
        return
    print("recovery:")
    for name in sorted(recovery):
        print(f"  {name:<28} {recovery[name]:>10,}")


def _demo(args) -> int:
    from .config import GolaConfig
    from .core.session import GolaSession
    from .frontends.console import ProgressConsole
    from .workloads.sessions import SBI_QUERY, generate_sessions

    parallel = _parse_workers(args.workers)
    tracer = None
    if parallel.enabled:
        from .obs import MetricsRegistry, Tracer

        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
    with GolaSession(
        GolaConfig(num_batches=args.batches, bootstrap_trials=80,
                   seed=args.seed, faults=_parse_faults(args.faults),
                   parallel=parallel),
        tracer=tracer,
    ) as session:
        print(f"generating {args.rows:,} session rows ...")
        session.register_table(
            "sessions", generate_sessions(args.rows, seed=args.seed)
        )
        query = session.sql(SBI_QUERY)
        print(query.plan_description, "\n")
        console = ProgressConsole()
        for snapshot in query.run_online():
            console.update(snapshot)
        console.finish()
    if tracer is not None:
        _print_recovery(tracer.metrics)
    return 0


def _console(args) -> int:
    from .frontends.console import run_console

    run_console(args.rows)
    return 0


def _trace(args) -> int:
    from .config import GolaConfig
    from .core.session import GolaSession
    from .frontends.console import ProgressConsole
    from .errors import ReproError
    from .obs import AggregatingSink, JsonlSink, MetricsRegistry, TeeSink, \
        Tracer
    from .workloads.conviva import generate_conviva
    from .workloads.sessions import SBI_QUERY, generate_sessions

    agg = AggregatingSink()
    if args.trace_out:
        try:  # fail before the run, not at the first span
            open(args.trace_out, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write {args.trace_out}: {exc.strerror}",
                  file=sys.stderr)
            return 1
        sink = TeeSink(agg, JsonlSink(args.trace_out))
    else:
        sink = agg
    tracer = Tracer(sink, metrics=MetricsRegistry(enabled=True))

    session = GolaSession(
        GolaConfig(num_batches=args.batches, bootstrap_trials=80,
                   seed=args.seed, faults=_parse_faults(args.faults),
                   parallel=_parse_workers(args.workers)),
        tracer=tracer,
    )
    print(f"generating {args.rows:,} rows ...")
    session.register_table(
        "sessions", generate_sessions(args.rows, seed=args.seed)
    )
    session.register_table(
        "conviva", generate_conviva(args.rows, seed=args.seed)
    )
    sql = SBI_QUERY if args.query.lower() == "sbi" else args.query
    try:
        query = session.sql(sql)
        console = ProgressConsole(tracer=tracer, max_rows=5)
        for snapshot in query.run_online():
            console.update(snapshot)
        console.finish()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer.close()
    _print_recovery(tracer.metrics)
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _report(args) -> int:
    import json

    from .obs import build_profile, load_events, render_profile

    try:
        records = load_events(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc.strerror}",
              file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.trace} is not a JSONL trace file ({exc})",
              file=sys.stderr)
        return 1
    if not records:
        print(f"{args.trace}: no trace events")
        return 1
    print(render_profile(build_profile(records)))
    return 0


def _serve(args) -> int:
    import dataclasses

    from .config import GolaConfig, ServeConfig
    from .core.session import GolaSession
    from .obs import MetricsRegistry, Tracer
    from .serve import GolaServer, QueryScheduler
    from .workloads import generate_conviva, generate_sessions, generate_tpch

    serve = ServeConfig.parse(args.serve) if args.serve else ServeConfig()
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if overrides:
        serve = dataclasses.replace(serve, **overrides)
    config = GolaConfig(
        num_batches=args.batches, bootstrap_trials=80, seed=args.seed,
        faults=_parse_faults(args.faults),
        parallel=_parse_workers(args.workers),
    )
    tracer = Tracer(metrics=MetricsRegistry(enabled=True))
    session = GolaSession(config, tracer=tracer)
    print(f"generating {args.rows:,} rows per workload table ...")
    session.register_table(
        "sessions", generate_sessions(args.rows, seed=args.seed)
    )
    session.register_table(
        "conviva", generate_conviva(args.rows, seed=args.seed)
    )
    session.register_table("tpch", generate_tpch(args.rows, seed=args.seed))
    server = GolaServer(QueryScheduler(session, serve=serve))
    server.start()

    def ready():
        # Printed only once signal handlers are live, so "serving on"
        # means a SIGTERM from here on always drains gracefully.
        print(f"serving on {server.url}  (Ctrl-C to stop)")
        print("submit a query and stream its estimates:")
        print(f"  curl -s -X POST {server.url}/query "
              "-d '{\"sql\": \"SELECT AVG(play_time) FROM sessions\"}'")
        print(f"  curl -sN {server.url}/query/q1/snapshots")

    try:
        server.serve_forever(ready=ready)
    finally:
        session.close()
    return 0


def _submit(args) -> int:
    import json
    import urllib.error
    import urllib.request

    from .workloads import SBI_QUERY

    base = f"http://{args.host}:{args.port}"
    body = {"sql": SBI_QUERY if args.sql.lower() == "sbi" else args.sql,
            "priority": args.priority}
    if args.deadline is not None:
        body["deadline_s"] = args.deadline
    if args.target_rsd is not None:
        body["target_rsd"] = args.target_rsd
    request = urllib.request.Request(
        base + "/query", method="POST",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            submitted = json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"error: HTTP {exc.code}: {detail}", file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(f"error: cannot reach {base}: {exc.reason}", file=sys.stderr)
        return 1
    print(f"submitted as {submitted['id']}", file=sys.stderr)
    with urllib.request.urlopen(
        base + submitted["snapshots_url"], timeout=args.timeout
    ) as resp:
        for line in resp:
            line = line.strip()
            if line:
                print(line.decode("utf-8"))
    return 0


def _convert(args) -> int:
    from .faults.quarantine import RowQuarantine
    from .errors import ReproError
    from .storage.colstore import convert_table

    quarantine = None
    source = None
    try:
        if args.csv is not None:
            from .storage.io import read_csv

            source = args.csv
            quarantine = RowQuarantine(
                error_budget=args.error_budget, label=args.csv
            )
            print(f"loading {args.csv} ...")
            table = read_csv(args.csv, quarantine=quarantine)
        else:
            from .workloads import (
                generate_conviva,
                generate_sessions,
                generate_tpch,
            )

            generate = {"sessions": generate_sessions,
                        "conviva": generate_conviva,
                        "tpch": generate_tpch}[args.workload]
            source = f"workload:{args.workload}"
            print(f"generating {args.rows:,} {args.workload} rows ...")
            table = generate(args.rows, seed=args.seed)
        dataset = convert_table(
            table, args.out, num_batches=args.batches, seed=args.seed,
            shuffle=not args.no_shuffle, codec=args.codec,
            quarantine=quarantine, source=source,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    encoded = sum(p["bytes"] for p in dataset.manifest["partitions"])
    print(
        f"wrote {dataset.num_batches} partitions, "
        f"{dataset.num_rows:,} rows, {encoded:,} encoded bytes "
        f"(~{encoded / max(dataset.estimated_bytes, 1):.0%} of decoded) "
        f"to {args.out}"
    )
    if quarantine is not None and quarantine.rows:
        print(f"quarantined {len(quarantine.rows)} malformed row(s) "
              "(recorded in the manifest; see 'repro inspect')")
    print(f"fingerprint: {dataset.fingerprint}")
    return 0


def _inspect(args) -> int:
    import json

    from .errors import ReproError
    from .storage.colstore import open_dataset

    try:
        dataset = open_dataset(args.dataset)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = dataset.manifest
    partitions = manifest["partitions"]
    encoded = sum(p["bytes"] for p in partitions)
    codec_counts = {}
    zone_summary = {}
    for index in range(dataset.num_batches):
        for col in dataset.reader(index).footer["columns"]:
            codec_counts[col["codec"]] = \
                codec_counts.get(col["codec"], 0) + 1
            zones = col.get("zones") or []
            entry = zone_summary.setdefault(
                col["name"],
                {"type": col["type"], "chunks": 0, "nulls": 0,
                 "lo": None, "hi": None},
            )
            entry["chunks"] += len(zones)
            for z in zones:
                entry["nulls"] += z["nulls"]
                if z["lo"] is not None and entry["type"] != "string":
                    entry["lo"] = z["lo"] if entry["lo"] is None \
                        else min(entry["lo"], z["lo"])
                    entry["hi"] = z["hi"] if entry["hi"] is None \
                        else max(entry["hi"], z["hi"])
    quarantine = manifest.get("quarantine")
    report = {
        "path": dataset.path,
        "fingerprint": dataset.fingerprint,
        "num_rows": dataset.num_rows,
        "num_batches": dataset.num_batches,
        "seed": dataset.seed,
        "shuffle": dataset.shuffle,
        "chunk_rows": manifest["chunk_rows"],
        "schema": manifest["schema"],
        "source": manifest.get("source"),
        "encoded_bytes": encoded,
        "estimated_decoded_bytes": dataset.estimated_bytes,
        "codec_segments": codec_counts,
        "zones": zone_summary,
        "partitions": partitions,
        "quarantine": quarantine,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"{dataset.path}: colstore dataset "
          f"(fingerprint {dataset.fingerprint})")
    print(f"  rows {dataset.num_rows:,} in {dataset.num_batches} "
          f"partitions (seed={dataset.seed}, shuffle={dataset.shuffle}, "
          f"chunk_rows={manifest['chunk_rows']})")
    if manifest.get("source"):
        print(f"  source: {manifest['source']}")
    print(f"  encoded {encoded:,} bytes "
          f"(~{encoded / max(dataset.estimated_bytes, 1):.0%} of "
          f"estimated decoded {dataset.estimated_bytes:,})")
    print("  columns:")
    for name, entry in zone_summary.items():
        span = ""
        if entry["lo"] is not None:
            span = f", range [{entry['lo']:g}, {entry['hi']:g}]"
        print(f"    {name:<16} {entry['type']:<8} "
              f"{entry['chunks']} zone chunks, "
              f"{entry['nulls']} nulls{span}")
    print("  codec segments: " + ", ".join(
        f"{codec}={count}" for codec, count in sorted(codec_counts.items())
    ))
    if quarantine and quarantine["rows"]:
        rows = quarantine["rows"]
        print(f"  quarantined rows: {len(rows)} "
              f"(budget {quarantine['error_budget']}, "
              f"seen {quarantine['total_seen']})")
        for row in rows[:10]:
            print(f"    line {row['line_number']}: "
                  f"{row['column']}={row['value']!r} ({row['reason']})")
        if len(rows) > 10:
            print(f"    ... and {len(rows) - 10} more")
    else:
        print("  quarantined rows: none")
    return 0


def _fuzz(args) -> int:
    from .qa.cli import main_fuzz

    return main_fuzz(args)


def _calibrate(args) -> int:
    from .qa.cli import main_calibrate

    return main_calibrate(args)


def _chaos(args) -> int:
    import dataclasses
    import json

    from .faults.chaos import ChaosRunner, ChaosSpec

    spec = ChaosSpec.smoke() if args.smoke else ChaosSpec()
    overrides = {}
    if args.queries:
        overrides["queries"] = tuple(
            q.strip().lower() for q in args.queries.split(",") if q.strip()
        )
    for name in ("rows", "batches", "workers", "seed"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    report = ChaosRunner(
        spec, progress=lambda msg: print(msg, file=sys.stderr)
    ).run()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(text)
    return 0 if report["identical"] else 1


def _queries(args) -> int:
    from .workloads import (
        ADSTREAM_QUERIES,
        CONVIVA_QUERIES,
        SBI_QUERY,
        TPCH_QUERIES,
    )

    print("SBI (paper Example 1):")
    print(SBI_QUERY)
    for suite, queries in (("Conviva", CONVIVA_QUERIES),
                           ("TPC-H", TPCH_QUERIES),
                           ("Ad stream", ADSTREAM_QUERIES)):
        for name, sql in queries.items():
            print(f"-- {suite} {name} " + "-" * 40)
            print(sql.strip())
            print()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="G-OLA reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    faults_help = (
        "row quarantine and checkpoints: 'key=value,...' over "
        "FaultsConfig fields, e.g. 'checkpoint_every=2,"
        "checkpoint_path=run.ck'"
    )
    workers_help = (
        "parallel execution: a worker count ('4') or 'key=value,...' "
        "over ParallelConfig fields, e.g. 'workers=4,min_shard_rows=512'; "
        "results are bit-identical to the serial default"
    )

    demo = sub.add_parser("demo", help="run the SBI quickstart online")
    demo.add_argument("--rows", type=int, default=100_000)
    demo.add_argument("--batches", type=int, default=10)
    demo.add_argument("--seed", type=int, default=2015)
    demo.add_argument("--faults", default=None, metavar="SPEC",
                      help=faults_help)
    demo.add_argument("--workers", default=None, metavar="SPEC",
                      help=workers_help)
    demo.set_defaults(fn=_demo)

    console = sub.add_parser("console", help="interactive SQL console")
    console.add_argument("--rows", type=int, default=50_000)
    console.set_defaults(fn=_console)

    queries = sub.add_parser("queries", help="print the bundled queries")
    queries.set_defaults(fn=_queries)

    trace = sub.add_parser(
        "trace", help="run a query online with tracing enabled"
    )
    trace.add_argument(
        "query", nargs="?", default="sbi",
        help="'sbi' (default) or a SQL string over the generated "
             "'sessions'/'conviva' tables",
    )
    trace.add_argument("--rows", type=int, default=100_000)
    trace.add_argument("--batches", type=int, default=10)
    trace.add_argument("--seed", type=int, default=2015)
    trace.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the JSONL event log here (e.g. trace.jsonl)",
    )
    trace.add_argument("--faults", default=None, metavar="SPEC",
                       help=faults_help)
    trace.add_argument("--workers", default=None, metavar="SPEC",
                       help=workers_help)
    trace.set_defaults(fn=_trace)

    report = sub.add_parser(
        "report", help="profile a JSONL trace file"
    )
    report.add_argument("trace", help="path to a trace .jsonl file")
    report.set_defaults(fn=_report)

    serve = sub.add_parser(
        "serve",
        help="serve concurrent online queries over HTTP (NDJSON streams)",
    )
    serve.add_argument("--host", default=None,
                       help="bind address (default from ServeConfig)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument("--rows", type=int, default=100_000,
                       help="rows per generated workload table")
    serve.add_argument("--batches", type=int, default=20)
    serve.add_argument("--seed", type=int, default=2015)
    serve.add_argument(
        "--serve", default=None, metavar="SPEC",
        help="scheduler knobs: 'key=value,...' over ServeConfig fields, "
             "e.g. 'max_concurrent=8,queue_depth=32,max_steps_per_turn=2'",
    )
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help=faults_help)
    serve.add_argument("--workers", default=None, metavar="SPEC",
                       help=workers_help)
    serve.set_defaults(fn=_serve)

    submit = sub.add_parser(
        "submit", help="submit a query to a running server and stream it"
    )
    submit.add_argument(
        "sql", nargs="?", default="sbi",
        help="'sbi' (default) or a SQL string over the served tables",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8000)
    submit.add_argument("--priority", type=int, default=1)
    submit.add_argument("--deadline", type=float, default=None,
                        help="per-query deadline in seconds")
    submit.add_argument("--target-rsd", type=float, default=None,
                        help="stop once relative stdev reaches this")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="stream read timeout in seconds")
    submit.set_defaults(fn=_submit)

    convert = sub.add_parser(
        "convert",
        help="convert a CSV file or generated workload into a "
             "compressed colstore dataset directory",
    )
    convert_src = convert.add_mutually_exclusive_group(required=True)
    convert_src.add_argument("--csv", default=None, metavar="PATH",
                             help="source CSV file (malformed rows are "
                                  "quarantined into the manifest)")
    convert_src.add_argument("--workload", default=None,
                             choices=("sessions", "conviva", "tpch"),
                             help="generate this paper workload instead")
    convert.add_argument("--out", required=True, metavar="DIR",
                         help="dataset directory to write")
    convert.add_argument("--rows", type=int, default=100_000,
                         help="rows when generating a workload")
    convert.add_argument("--batches", type=int, default=20,
                         help="mini-batch partitions to write")
    convert.add_argument("--seed", type=int, default=2015)
    convert.add_argument("--no-shuffle", action="store_true",
                         help="partition without the random shuffle")
    convert.add_argument("--codec", default="auto",
                         choices=("auto", "plain", "dict", "rle", "delta"),
                         help="column codec (auto picks the smallest "
                              "per column chunk)")
    convert.add_argument("--error-budget", type=float, default=0.05,
                         help="malformed-row fraction tolerated before "
                              "the CSV load aborts")
    convert.set_defaults(fn=_convert)

    inspect_p = sub.add_parser(
        "inspect",
        help="report a colstore dataset's layout: partitions, codecs, "
             "zone maps, quarantined rows",
    )
    inspect_p.add_argument("dataset", help="dataset directory")
    inspect_p.add_argument("--json", action="store_true",
                           help="emit the full report as JSON")
    inspect_p.set_defaults(fn=_inspect)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random queries through every "
             "execution path, comparing final answers",
    )
    fuzz.add_argument("--seed", type=int, default=None,
                      help="master seed for schema/data/query generation")
    fuzz.add_argument("--queries", type=int, default=None,
                      help="number of random queries to check")
    fuzz.add_argument("--rows", type=int, default=None,
                      help="rows in the generated fact table")
    fuzz.add_argument("--batches", type=int, default=None,
                      help="mini-batches per online run")
    fuzz.add_argument("--trials", type=int, default=None,
                      help="bootstrap trials per online run")
    fuzz.add_argument("--serve", action="store_true",
                      help="also run each query through the scheduler")
    fuzz.add_argument("--colstore", action="store_true",
                      help="also stream each query from a converted "
                           "on-disk colstore dataset (bit-identity "
                           "checked against the in-memory stream)")
    fuzz.add_argument("--grammar", default=None,
                      choices=("default", "deep"),
                      help="query-generation profile: 'deep' adds "
                           "window functions, DISTINCT/quantile "
                           "aggregates, multi-fact subqueries and "
                           "NULL-heavy/empty-group edge biases")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip minimizing divergent queries")
    fuzz.add_argument("--artifact-dir", default=None, metavar="DIR",
                      help="where reproducer artifacts are written")
    fuzz.add_argument("--inject-bug", default=None, metavar="PATH",
                      choices=("batch", "cdm", "serial", "parallel",
                               "serve", "colstore"),
                      help="corrupt this path's results (harness "
                           "self-check: the sweep must then fail)")
    fuzz.add_argument("--replay", default=None, metavar="ARTIFACT",
                      help="replay a saved reproducer instead of fuzzing")
    fuzz.add_argument("--out", default=None, metavar="PATH",
                      help="write the JSON divergence report here")
    fuzz.set_defaults(fn=_fuzz)

    calibrate = sub.add_parser(
        "calibrate",
        help="empirical bootstrap-CI coverage vs an exact binomial band",
    )
    calibrate.add_argument(
        "--queries", default=None, metavar="NAMES",
        help="comma-separated workload queries (default: all of "
             "sbi,c3,q17,q20,t_roll,t_dist,t_p95,t_tip; the t_* names "
             "are the deep-surface taxi queries)",
    )
    calibrate.add_argument("--runs", type=int, default=None,
                           help="runs (seeds) per query")
    calibrate.add_argument("--rows", type=int, default=None,
                           help="rows in the generated workload table")
    calibrate.add_argument("--batches", type=int, default=None,
                           help="mini-batches per run")
    calibrate.add_argument("--trials", type=int, default=None,
                           help="bootstrap trials per snapshot")
    calibrate.add_argument("--seed", type=int, default=None,
                           help="base seed offset for the run sweep")
    calibrate.add_argument("--alpha", type=float, default=None,
                           help="binomial band significance level")
    calibrate.add_argument("--out", default=None, metavar="PATH",
                           help="write the JSON calibration report here")
    calibrate.set_defaults(fn=_calibrate)

    chaos = sub.add_parser(
        "chaos",
        help="run the paper workload while a seeded schedule SIGKILLs "
             "and SIGSTOPs workers between batches; assert snapshots "
             "bit-identical to serial",
    )
    chaos.add_argument("--smoke", action="store_true",
                       help="CI-sized campaign: one query, small table")
    chaos.add_argument("--queries", default=None, metavar="NAMES",
                       help="comma-separated workload queries "
                            "(default sbi,c3,q17; smoke: sbi)")
    chaos.add_argument("--rows", type=int, default=None,
                       help="rows in each generated workload table")
    chaos.add_argument("--batches", type=int, default=None,
                       help="mini-batches per run")
    chaos.add_argument("--workers", type=int, default=None,
                       help="supervised pool size (default 4)")
    chaos.add_argument("--seed", type=int, default=None,
                       help="seed for the data and the signal schedule")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="write the JSON chaos report here")
    chaos.set_defaults(fn=_chaos)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
