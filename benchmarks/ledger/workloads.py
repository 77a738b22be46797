"""The three in-process workloads: set-up, one pass, checks, layer numbers.

Everything here goes through public entry points of ``repro``
(``GolaSession.sql/run_online/execute_batch/register_colstore``,
``convert_table``, ``ParallelConfig``, the ``Tracer``) and changes
nothing under ``src/``.  ``serve_mix`` lives in ``serve_client.py``.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.estimate import PoissonWeightSource
from repro.obs import MetricsRegistry, Tracer, TraceSink
from repro.plan import Binder, rewrite_query
from repro.sql import parse_sql
from repro.storage import MiniBatchPartitioner, convert_table
from repro.workloads import (
    C2_QUERY,
    C3_QUERY,
    Q11_QUERY,
    Q17_QUERY,
    Q20_QUERY,
    SBI_QUERY,
    TAXI_QUERIES,
    generate_conviva,
    generate_sessions,
    generate_taxi,
    generate_tpch,
)

import checks
import stats
from spans import Span, SpanLog, adopt, self_time_by_name

#: A scalar answer counts as "accurate" from this relative stdev on.
TARGET_RSD = 0.01
#: The warm-up stops every query after this many batches; the timed
#: pass must reproduce exactly these snapshots.
WARM_BATCHES = 3
#: Every table, the partition shuffle and the bootstrap of the three
#: in-process workloads come from this one seed (``serve_mix`` has its
#: own, see ``serve_client.py``); ``--seed`` only orders the queries of a
#: pass.  The program runs at its default configuration, where a guard
#: fails and a block is rebuilt on about half the seeds at these sizes.
#: A rebuild stalls one batch and holds the weights of every row seen
#: so far, so when it happens decides peak RSS and up to a sixth of
#: pass_s: across data seeds both read the seed, not the program.  With
#: the seed fixed the rebuilds are the same on every run, and they are
#: in the pass.  101 is the first seed from 100 up on which both
#: ``nested_mem`` and ``fold_dispatch`` rebuild: each rebuilds C3 once,
#: at batch 10 of 20 and 10 of 12.  ``core.rebuilds`` moves when a
#: change to the program moves a guard.
DATA_SEED = 101

MM1_QUERY = (
    "SELECT content_id, MIN(buffer_time), MAX(play_time), COUNT(*) "
    "FROM conviva "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM conviva) "
    "GROUP BY content_id"
)
AVGP_QUERY = "SELECT AVG(play_time) FROM sessions"
GEO_QUERY = (
    "SELECT geo, COUNT(*), AVG(buffer_time) FROM conviva GROUP BY geo"
)


@dataclass(frozen=True)
class QuerySpec:
    name: str
    sql: str
    #: The streamed table whose size the uncertain fraction is a share of.
    fact: str
    #: Single-cell answer: it has a relative stdev, so it counts
    #: toward time-to-accuracy.
    scalar: bool = False
    #: Columns held by the stream digest only.  QuantileState is a
    #: 4096-row reservoir in both engines; the two answers differ.
    exempt: frozenset = frozenset()


QUERIES = {q.name: q for q in (
    QuerySpec("SBI", SBI_QUERY, "sessions", scalar=True),
    QuerySpec("AVGP", AVGP_QUERY, "sessions", scalar=True),
    QuerySpec("C2", C2_QUERY, "conviva"),
    QuerySpec("C3", C3_QUERY, "conviva", scalar=True),
    QuerySpec("GEO", GEO_QUERY, "conviva"),
    QuerySpec("MM1", MM1_QUERY, "conviva"),
    QuerySpec("Q11", Q11_QUERY, "tpch"),
    QuerySpec("Q17", Q17_QUERY, "tpch", scalar=True),
    QuerySpec("Q20", Q20_QUERY, "tpch", scalar=True),
    QuerySpec("T1", TAXI_QUERIES["T1"], "trips"),
    QuerySpec("T2", TAXI_QUERIES["T2"], "trips"),
    QuerySpec("T3", TAXI_QUERIES["T3"], "trips"),
    QuerySpec("T4", TAXI_QUERIES["T4"], "trips", scalar=True),
    QuerySpec("T5", TAXI_QUERIES["T5"], "trips",
              exempt=frozenset({"p95_fare"})),
    QuerySpec("T6", TAXI_QUERIES["T6"], "trips", scalar=True,
              exempt=frozenset({"p95_fare"})),
    QuerySpec("T8", TAXI_QUERIES["T8"], "trips", scalar=True),
    QuerySpec("T9", TAXI_QUERIES["T9"], "trips"),
    QuerySpec("T10", TAXI_QUERIES["T10"], "trips"),
)}


@dataclass(frozen=True)
class Workload:
    name: str
    #: Rows of every fact table but taxi's, which has ``taxi_rows``.
    rows: int
    taxi_rows: int
    batches: int
    trials: int
    queries: tuple
    #: Timed passes fold on a process pool of this many workers.
    workers: int = 0
    #: ``trips`` is converted to a colstore dataset in set-up.
    colstore: bool = False

    def smoke(self, divisor: int) -> "Workload":
        if self.workers:
            # Smaller batches would fall under min_shard_rows and fold
            # inline, and the smoke run would not check the pool.
            return self
        return dataclasses.replace(
            self, rows=max(self.rows // divisor, 1),
            taxi_rows=max(self.taxi_rows // divisor, 1),
        )


def _specs(*names: str) -> tuple:
    return tuple(QUERIES[n] for n in names)


IN_PROCESS = {w.name: w for w in (
    Workload("nested_mem", rows=80_000, taxi_rows=40_000, batches=20,
             trials=100,
             queries=_specs("SBI", "C3", "Q17", "Q20", "Q11", "T8", "MM1")),
    Workload("deep_colstore", rows=0, taxi_rows=280_000, batches=20,
             trials=100, colstore=True,
             queries=_specs("T1", "T2", "T3", "T4", "T5", "T6", "T9",
                            "T10")),
    # 6,000-row batches stay above min_shard_rows (2,048) after Q17's
    # container filter, so every query's folds go to the pool.
    Workload("fold_dispatch", rows=72_000, taxi_rows=0, batches=12,
             trials=100, workers=1,
             queries=_specs("SBI", "C3", "Q17", "Q20", "Q11", "MM1")),
)}


# ---------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------


@dataclass
class Prepared:
    """What set-up leaves behind: the inputs, ready to register."""

    #: Streamed tables held in memory.
    tables: Dict[str, object]
    #: Dimension tables.
    static: Dict[str, object]
    #: Streamed table -> rows.
    rows: Dict[str, int]
    #: ``trips`` as a colstore dataset (``deep_colstore`` only).
    dataset: Optional[object] = None
    layer: Dict[str, float] = field(default_factory=dict)

    def register(self, session: GolaSession) -> None:
        for name, table in self.tables.items():
            session.register_table(name, table, streamed=True)
        for name, table in self.static.items():
            session.register_table(name, table, streamed=False)
        if self.dataset is not None:
            session.register_colstore("trips", self.dataset, streamed=True)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


def prepare(workload: Workload, seed: int, workdir: str) -> Prepared:
    """Generate the inputs from ``seed``; write the colstore dataset."""
    facts = {q.fact for q in workload.queries}
    tables: Dict[str, object] = {}
    static: Dict[str, object] = {}
    if "sessions" in facts:
        tables["sessions"] = generate_sessions(workload.rows, seed=seed)
    if "conviva" in facts:
        tables["conviva"] = generate_conviva(workload.rows, seed=seed)
    if "tpch" in facts:
        tables["tpch"] = generate_tpch(workload.rows, seed=seed)
    if "trips" in facts:
        taxi = generate_taxi(workload.taxi_rows, seed=seed)
        tables["trips"] = taxi["trips"]
        static = {"zones": taxi["zones"], "vendors": taxi["vendors"]}
        if not workload.colstore:
            tables["surcharges"] = taxi["surcharges"]  # T8 streams it
    prepared = Prepared(tables, static,
                        {name: t.num_rows for name, t in tables.items()})
    if workload.colstore:
        path = os.path.join(workdir, "trips.colstore")
        started = time.perf_counter()
        # mmap and pruning are the StorageConfig defaults.
        prepared.dataset = convert_table(
            tables.pop("trips"), path, num_batches=workload.batches,
            seed=seed, shuffle=True)
        convert_s = time.perf_counter() - started
        rows = prepared.rows["trips"]
        prepared.layer = {
            "storage.colstore.convert_s": convert_s,
            "storage.colstore.convert_rows_per_s": rows / convert_s,
            "storage.colstore.bytes_per_row": _dir_bytes(path) / rows,
        }
    return prepared


def base_config(workload: Workload, seed: int) -> GolaConfig:
    return GolaConfig(num_batches=workload.batches,
                      bootstrap_trials=workload.trials, seed=seed)


# ---------------------------------------------------------------------
# One query, one pass
# ---------------------------------------------------------------------


@dataclass
class QueryRun:
    name: str
    online_s: float = 0.0
    sql_s: float = 0.0
    ttfa_s: float = 0.0
    tta_s: float = 0.0
    #: ``elapsed_s`` of every snapshot.
    batch_s: List[float] = field(default_factory=list)
    #: The first WARM_BATCHES snapshots (all of them with keep_all).
    head: List[object] = field(default_factory=list)
    last: Optional[object] = None
    uncertain_peak: int = 0
    error: Optional[str] = None


def run_query(session: GolaSession, spec: QuerySpec,
              config: Optional[GolaConfig] = None,
              log: Optional[SpanLog] = None,
              stop_after: Optional[int] = None,
              keep_all: bool = False) -> QueryRun:
    """SQL text in, snapshots out; clocks around the public calls only.

    The clock is read once per boundary whether or not ``log`` is set,
    so a traced and an untraced pass run the same benchmark code.
    """
    clock = time.perf_counter
    run = QueryRun(spec.name)
    marks = []
    reached = not spec.scalar
    t0 = clock()
    try:
        online = session.sql(spec.sql)
        t_sql = clock()
        run.sql_s = t_sql - t0
        # The controller is built by run_online(); begin() and the
        # first batch run inside the first next().
        edge = t_sql
        for snapshot in online.run_online(config):
            now = clock()
            marks.append((edge, now))
            edge = now
            if not run.batch_s:
                run.ttfa_s = now - t0
            run.batch_s.append(snapshot.elapsed_s)
            if not reached and snapshot.relative_stdev <= TARGET_RSD:
                reached = True
                run.tta_s = now - t0
            if keep_all or len(run.head) < WARM_BATCHES:
                run.head.append(snapshot)
            run.last = snapshot
            if snapshot.total_uncertain > run.uncertain_peak:
                run.uncertain_peak = snapshot.total_uncertain
            if stop_after is not None and len(run.batch_s) >= stop_after:
                online.stop()
        t_end = clock()
        # The generator's finally (release of batches and pools).
        marks.append((edge, t_end))
    except Exception as exc:  # a failed query is a counted failure
        t_end = clock()
        run.error = f"{type(exc).__name__}: {exc}"
    run.online_s = t_end - t0
    if not reached:
        run.tta_s = run.online_s  # never got there: its full time
    if log is not None:
        qid = log.add("query", t0, t_end, query=spec.name)
        log.add("session.sql", t0, t0 + run.sql_s, parent=qid)
        for start, end in marks:
            log.add("core.step", start, end, parent=qid)
    return run


@dataclass
class PassResult:
    pass_s: float
    #: Every query run to its end (or to ``stop_after`` in a warm-up).
    runs: List[QueryRun]
    traced: bool = False
    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


class MemorySink(TraceSink):
    """Keeps the program's trace records in memory, read after the pass."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


def traced_session(prepared: Prepared, config: GolaConfig):
    sink = MemorySink()
    tracer = Tracer(sink, metrics=MetricsRegistry(enabled=True))
    session = GolaSession(config, tracer=tracer)
    prepared.register(session)
    return session, tracer, sink


def run_pass(session: GolaSession, workload: Workload,
             config: Optional[GolaConfig] = None,
             log: Optional[SpanLog] = None,
             stop_after: Optional[int] = None,
             keep_all: bool = False) -> PassResult:
    started = time.perf_counter()
    runs = [
        run_query(session, spec, config=config, log=log,
                  stop_after=stop_after, keep_all=keep_all)
        for spec in workload.queries
    ]
    return PassResult(time.perf_counter() - started, runs)


def run_traced_pass(prepared: Prepared, workload: Workload,
                    config: GolaConfig, pass_config: Optional[GolaConfig],
                    keep_all: bool) -> PassResult:
    """The same pass on a session whose tracer writes to memory."""
    session, tracer, sink = traced_session(prepared, config)
    log = SpanLog()
    result = run_pass(session, workload, config=pass_config, log=log,
                      keep_all=keep_all)
    result.traced = True
    result.spans = adopt(log.spans, sink.records, tracer.origin)
    result.counters = dict(tracer.metrics.snapshot().counters)
    return result


# ---------------------------------------------------------------------
# A trial: set-up, warm-up, reference, timed window, checks
# ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_trial(workload: Workload, seed: int, seconds: float, trace: bool,
              workdir: str, started: float) -> dict:
    """One process's worth of a run: its set-up time, its peak RSS and
    the timings of each pass it measured in ``seconds`` (or, traced,
    its layer numbers).  ``started`` is when the process began, so that
    importing the program is part of set-up."""
    prepared = prepare(workload, DATA_SEED, workdir)
    config = base_config(workload, DATA_SEED)
    session = GolaSession(config)
    prepared.register(session)
    setup_s = time.perf_counter() - started

    pass_config = None
    if workload.workers:
        pass_config = dataclasses.replace(
            config, parallel=ParallelConfig(workers=workload.workers)
        )
    full_stream = bool(workload.workers)

    # Warm-up: caches fill, lazy imports finish.  Untimed.
    warm = run_pass(session, workload, stop_after=WARM_BATCHES)
    reference = {r.name: checks.stream_digests(r.head) for r in warm.runs}
    layer: Dict[str, float] = dict(prepared.layer)
    if full_stream:
        # The pool must reproduce the serial stream bit for bit, so the
        # reference is one whole serial pass.
        serial = run_pass(session, workload, keep_all=True)
        reference = {r.name: checks.stream_digests(r.head)
                     for r in serial.runs}
        layer["parallel.serial_ref_s"] = serial.pass_s

    exact_tables = {}
    exact_s: Dict[str, float] = {}
    for spec in workload.queries:
        timings = []
        for _ in range(3 if trace else 1):
            t0 = time.perf_counter()
            exact_tables[spec.name] = session.execute_batch(spec.sql)
            timings.append(time.perf_counter() - t0)
        exact_s[spec.name] = min(timings)

    gc.collect()
    order = random.Random(seed)
    passes: List[PassResult] = []
    window_start = time.perf_counter()
    while True:
        # The seed orders the queries, anew for every pass.
        queries = list(workload.queries)
        order.shuffle(queries)
        shuffled = dataclasses.replace(workload, queries=tuple(queries))
        if trace and len(passes) % 2 == 1:
            passes.append(run_traced_pass(prepared, shuffled, config,
                                          pass_config, full_stream))
        else:
            passes.append(run_pass(session, shuffled, config=pass_config,
                                   keep_all=full_stream))
        # Another pass is measured if more than half of it fits.
        spent = time.perf_counter() - window_start
        enough = len(passes) >= (2 if trace else 1)
        if enough and spent + 0.5 * spent / len(passes) >= seconds:
            break

    failures = check_passes(workload, passes, reference, exact_tables)
    untraced = [p for p in passes if not p.traced]
    result = {
        "attempted": sum(len(p.runs) for p in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "pass_count": len(passes),
    }
    if not trace:
        result["setup_s"] = setup_s
        result["peak_rss_mb"] = peak_rss_mb()
        result["passes"] = [pass_metrics(workload, p) for p in untraced]
    else:
        layer.update(layer_metrics(workload, prepared, config, passes,
                                   exact_s))
        if full_stream:
            layer["parallel.w1_over_serial"] = (
                stats.median([p.pass_s for p in untraced])
                / layer["parallel.serial_ref_s"])
            if not layer["parallel.shard_tasks"]:
                # Batches under min_shard_rows fold inline: the pool,
                # and the check against the serial stream, saw nothing.
                result["failed"] += 1
                result["failures"].insert(0, "no fold reached the pool")
        result["layers"] = layer
    return result


def check_passes(workload: Workload, passes: List[PassResult],
                 reference: Dict[str, List[str]],
                 exact_tables: Dict[str, object]) -> List[str]:
    """One entry per failed operation (a query run in a timed pass)."""
    failures: List[str] = []
    specs = {q.name: q for q in workload.queries}
    for index, result in enumerate(passes):
        for run in result.runs:
            where = f"pass {index} {run.name}"
            if run.error is not None:
                failures.append(f"{where}: raised {run.error}")
                continue
            if run.last is None or not run.last.is_final:
                failures.append(f"{where}: ended before its last batch")
                continue
            expected = reference[run.name]
            digests = checks.stream_digests(run.head)[:len(expected)]
            if digests != expected[:len(digests)]:
                failures.append(f"{where}: stream digest differs from "
                                "the reference run")
                continue
            reason = checks.table_mismatch(
                run.last.table, exact_tables[run.name],
                exempt=specs[run.name].exempt,
            )
            if reason is not None:
                failures.append(f"{where}: {reason}")
    return failures


def _per_query(passes: List[PassResult], value) -> Dict[str, float]:
    """Query name -> median of ``value(run)`` over the passes."""
    samples: Dict[str, List[float]] = {}
    for result in passes:
        for run in result.runs:
            if run.error is None:
                samples.setdefault(run.name, []).append(value(run))
    return {name: stats.median(v) for name, v in samples.items()}


def pass_metrics(workload: Workload, result: PassResult) -> Dict[str, float]:
    """The end-to-end timings of one pass.  The run reports, of each,
    the median over its passes."""
    ok = [r for r in result.runs if r.error is None] or result.runs
    scalar = {q.name for q in workload.queries if q.scalar}
    ttfa = [r.ttfa_s for r in ok]
    return {
        "pass_s": result.pass_s,
        "ttfa_p50_s": stats.median(ttfa),
        "ttfa_p90_s": stats.percentile(ttfa, 90),
        "tta_p50_s": stats.median(
            [r.tta_s for r in ok if r.name in scalar]),
    }


# ---------------------------------------------------------------------
# Per-layer numbers
# ---------------------------------------------------------------------

#: Program span name -> per-layer metric its self time is booked to.
SPAN_LAYER = {
    "phase:classify": "core.classify_s",
    "phase:fold": "core.fold_s",
    "phase:guards": "core.guards_s",
    "phase:publish": "core.publish_s",
    "phase:snapshot": "core.snapshot_s",
    "colstore.prune": "storage.colstore.prune_s",
    "parallel.shard": "parallel.shard_s",
    "parallel.merge": "parallel.merge_s",
    "parallel.supervise": "parallel.supervise_s",
    # Spans without a finer child: the certain filters, dimension joins
    # and row preparation of a block; the controller's per-batch glue;
    # begin(), release() and the generator around each step.
    "block": "core.block_self_s",
    "batch": "core.batch_self_s",
    "core.step": "core.step_self_s",
}
#: Accounted for without a metric of their own: the front end (the
#: parse and bind probes split it), a rebuild's own glue, and the
#: benchmark's span of one query, which its steps leave no self time.
ACCOUNTED_ONLY = ("session.sql", "phase:rebuild", "query")

_RECOVERY_COUNTERS = (
    "parallel.restarts", "parallel.task_timeouts",
    "parallel.serial_fallbacks", "parallel.redispatched",
)


def _pass_layers(result: PassResult,
                 chunk_rows: Optional[int]) -> Dict[str, float]:
    """Layer numbers of one traced pass: self times and counters.

    A span that never ran leaves no line, so an unreached layer reads
    n/a and not 0.  ``chunk_rows`` is None without a colstore dataset.
    """
    out: Dict[str, float] = {}
    unknown = 0.0
    for name, seconds in self_time_by_name(result.spans).items():
        metric = SPAN_LAYER.get(name)
        if metric is not None:
            out[metric] = seconds
        elif name not in ACCOUNTED_ONLY:
            unknown += seconds
    # The share of the pass inside a span that is booked to a layer.
    # Not the sum of the layers over the pass: spans of two threads
    # (the supervisor's beside the coordinator's) overlap, and their
    # self times add up to more than the wall clock.
    inside = sum(s.duration for s in result.spans if s.name == "query")
    out["obs.accounted_frac"] = (inside - unknown) / result.pass_s
    # What a rebuild costs is everything under its span; its children
    # (classify, fold) are also booked to their own layers above.
    out["core.rebuild_s"] = sum(
        s.duration for s in result.spans if s.name == "phase:rebuild")
    c = result.counters
    out["core.rows_classified"] = c.get("delta.rows_classified", 0)
    out["core.rows_folded"] = c.get("delta.rows_folded", 0)
    out["core.rebuilds"] = c.get("delta.rebuilds", 0)
    out["core.rebuild_rows"] = c.get("delta.rebuild_rows", 0)
    out["estimate.weights_drawn"] = c.get("bootstrap.weights_drawn", 0)
    out["parallel.shard_tasks"] = c.get("parallel.shard_tasks", 0)
    out["parallel.shm_bytes"] = c.get("parallel.shm_bytes", 0)
    out["parallel.pipeline_overlap_s"] = c.get(
        "parallel.pipeline_overlap_s", 0.0)
    out["parallel.recoveries"] = sum(c.get(n, 0) for n in _RECOVERY_COUNTERS)
    if chunk_rows is not None:
        out["storage.colstore.chunks_pruned"] = c.get(
            "colstore.chunks_pruned", 0)
        out["storage.colstore.chunks_tri_decided"] = c.get(
            "colstore.chunks_tri_decided", 0)

    # The paper's bound on work per batch is |delta D_i| + |U_{i-1}|;
    # rows_processed above it is wasted work.
    chunks = 0
    processed = 0
    bound = 0
    previous: Dict[tuple, int] = {}
    for span in sorted(result.spans, key=lambda s: s.start):
        attrs = span.attrs or {}
        if span.name == "colstore.prune" and chunk_rows is not None:
            chunks += math.ceil(attrs.get("rows_in", 0) / chunk_rows)
        elif span.name == "block":
            key = (span.query, attrs.get("block"))
            processed += attrs.get("rows_processed", 0)
            bound += attrs.get("rows_in", 0) + previous.get(key, 0)
            previous[key] = attrs.get("uncertain", 0)
    if chunk_rows is not None:
        out["storage.colstore.chunks_total"] = chunks
    out["core.work_ratio"] = processed / bound if bound else 0.0
    return out


def layer_metrics(workload: Workload, prepared: Prepared,
                  config: GolaConfig, passes: List[PassResult],
                  exact_s: Dict[str, float]) -> Dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    dataset = prepared.dataset
    chunk_rows = int(dataset.manifest["chunk_rows"]) if dataset else None

    per_pass = [_pass_layers(p, chunk_rows) for p in traced]
    out = {
        name: stats.median([layers[name] for layers in per_pass
                            if name in layers])
        for name in {n for layers in per_pass for n in layers}
    }

    # Clocks around public calls and snapshot fields: untraced passes.
    pass_s = stats.median([p.pass_s for p in untraced])
    out["obs.trace_overhead_frac"] = (
        stats.median([p.pass_s for p in traced]) / pass_s - 1.0
    )
    online = _per_query(untraced, lambda r: r.online_s)
    ttfa = _per_query(untraced, lambda r: r.ttfa_s)
    for name, seconds in online.items():
        out[f"q.{name}.online_s"] = seconds
    out["core.begin_s"] = stats.median(list(_per_query(
        untraced, lambda r: r.ttfa_s - r.sql_s - r.batch_s[0]).values()))
    batch_s = [s for p in untraced for r in p.runs for s in r.batch_s]
    out["core.batch_p50_s"] = stats.median(batch_s)
    out["core.batch_max_s"] = max(batch_s)
    facts = {q.name: prepared.rows[q.fact] for q in workload.queries}
    runs = [r for p in untraced for r in p.runs if r.last is not None]
    out["core.uncertain_peak"] = max(r.uncertain_peak for r in runs)
    out["core.uncertain_final_frac"] = max(
        r.last.total_uncertain / facts[r.name] for r in runs)

    out["engine.exact_s"] = sum(exact_s.values())
    out["ratio.online_over_exact"] = (
        sum(online.values()) / out["engine.exact_s"])
    out["ratio.ttfa_over_exact"] = stats.median(
        [ttfa[name] / exact_s[name] for name in ttfa])
    out.update(probes(workload, prepared, config))
    return out


def probes(workload: Workload, prepared: Prepared,
           config: GolaConfig) -> Dict[str, float]:
    """Layers the pass gives no clock for, timed on their own.

    Each probe calls the public function the pass goes through, on the
    pass's inputs, outside the timed window.
    """
    clock = time.perf_counter
    out: Dict[str, float] = {}
    session, tracer, sink = traced_session(prepared, config)

    parse_s = bind_s = meta_s = 0.0
    for spec in workload.queries:
        online = session.sql(spec.sql)
        t0 = clock()
        stmt = parse_sql(spec.sql)
        t1 = clock()
        rewrite_query(Binder(session.catalog, session.udafs).bind(stmt))
        t2 = clock()
        online.explain()  # compile_meta_plan, and rendering it
        t3 = clock()
        parse_s += t1 - t0
        bind_s += t2 - t1
        meta_s += t3 - t2
    out["sql.parse_s"] = parse_s
    out["plan.bind_s"] = bind_s
    out["core.meta_plan_s"] = meta_s

    t0 = clock()
    for table in prepared.tables.values():
        MiniBatchPartitioner(config.num_batches, seed=config.seed,
                             shuffle=config.shuffle).partition(table)
    out["storage.partition_s"] = clock() - t0

    # One streamed table's weights, drawn densely: what a pass draws
    # per query block, lazily and in shards, with no span of its own.
    fact_rows = max(prepared.rows.values())
    source = PoissonWeightSource(config.bootstrap_trials, config.seed,
                                 tracer=tracer)
    t0 = clock()
    for _ in range(config.num_batches):
        source.weights_for(fact_rows // config.num_batches)
    out["estimate.weights_s"] = clock() - t0

    # The exact engine's operators, from the program's own op:* spans.
    sink.records.clear()
    log = SpanLog()
    for spec in workload.queries:
        with log.span("exact", query=spec.name):
            session.execute_batch(spec.sql)
    merged = adopt(log.spans, sink.records, tracer.origin)
    out["engine.op_s"] = sum(
        seconds for name, seconds in self_time_by_name(merged).items()
        if name.startswith("op:"))

    dataset = prepared.dataset
    if dataset is not None:
        t0 = clock()
        for i in range(dataset.num_batches):
            batch = dataset.batch(i)
            for name in batch.schema.names:
                # A plain column is a memory map: copy it to read it.
                np.array(batch.column(name))
        out["storage.colstore.decode_s"] = clock() - t0
        t0 = clock()
        dataset.to_table()
        out["storage.colstore.to_table_s"] = clock() - t0
    return out
