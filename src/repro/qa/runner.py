"""Differential execution of one query across every engine path.

:class:`DifferentialRunner` executes a query through the four (optionally
five) execution paths that must agree —

* ``batch`` — the exact batch engine (ground truth),
* ``cdm`` — classical delta maintenance's final prefix answer,
* ``serial`` — G-OLA online, final-batch snapshot, serial execution,
* ``parallel`` — G-OLA online on a process pool that shards every
  fold,
* ``serve`` — the concurrent scheduler's finished-run snapshot
  (optional; one shared scheduler is reused across queries),

* ``colstore`` — G-OLA online streaming a converted on-disk colstore
  dataset (optional); beyond the final-table compare, its whole
  snapshot stream must be *bit-identical* to the in-memory serial
  stream,

compares every path's final table against ``batch`` with the
float-tolerant structural comparator, and produces one JSON-ready report
per query.  A query that every path *rejects with the same error class*
(the generator walks right up to the dialect boundary on purpose) counts
as an agreed rejection, not a divergence; a query that one path rejects
and another answers is a divergence.

``inject_bug`` deliberately corrupts one named path's result before
comparison.  It exists so the harness can test *itself*: CI runs a short
sweep with an injected bug and fails if the harness reports nothing, and
the shrinker's tests use it as a deterministic divergence source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..baselines.cdm import ClassicalDeltaMaintenance
from ..config import GolaConfig, ParallelConfig
from ..core.session import GolaSession
from ..obs import MetricsRegistry, Tracer
from ..storage.table import Table
from .compare import compare_tables
from .generator import QuerySpec
from .tables import TableSpec, generate_table

PATHS = ("batch", "cdm", "serial", "parallel", "serve", "colstore")


@dataclass
class FuzzCase:
    """Everything needed to reproduce one differential run."""

    tables: Tuple[TableSpec, ...]
    query: QuerySpec
    num_batches: int = 4
    bootstrap_trials: int = 16
    seed: int = 0
    inject_bug: Optional[str] = None

    @property
    def sql(self) -> str:
        return self.query.render()

    def to_dict(self) -> dict:
        return {
            "tables": [t.to_dict() for t in self.tables],
            "query": self.query.to_dict(),
            "num_batches": self.num_batches,
            "bootstrap_trials": self.bootstrap_trials,
            "seed": self.seed,
            "inject_bug": self.inject_bug,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzCase":
        return cls(
            tables=tuple(TableSpec.from_dict(t) for t in d["tables"]),
            query=QuerySpec.from_dict(d["query"]),
            num_batches=int(d.get("num_batches", 4)),
            bootstrap_trials=int(d.get("bootstrap_trials", 16)),
            seed=int(d.get("seed", 0)),
            inject_bug=d.get("inject_bug"),
        )


@dataclass
class PathOutcome:
    """One path's result: a table, or the error that rejected the query."""

    path: str
    status: str  # "ok" | "error"
    table: Optional[Table] = None
    error: Optional[str] = None
    error_class: Optional[str] = None
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        out = {"path": self.path, "status": self.status,
               "elapsed_s": round(self.elapsed_s, 6)}
        if self.status == "ok" and self.table is not None:
            out["rows"] = self.table.num_rows
            out["columns"] = self.table.schema.names
        else:
            out["error"] = self.error
            out["error_class"] = self.error_class
        return out


@dataclass
class CaseReport:
    """The differential verdict for one query."""

    case: FuzzCase
    outcomes: Dict[str, PathOutcome] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)
    agreed_rejection: Optional[str] = None

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)

    def to_dict(self, include_case: bool = True) -> dict:
        out = {
            "sql": self.case.sql,
            "diverged": self.diverged,
            "divergences": list(self.divergences),
            "agreed_rejection": self.agreed_rejection,
            "outcomes": {
                name: o.to_dict() for name, o in self.outcomes.items()
            },
        }
        if include_case:
            out["case"] = self.case.to_dict()
        return out


def _corrupt(table: Table) -> Table:
    """Deliberately perturb a result (the harness's own fault injection).

    Scales the first float column by 0.1%, far outside comparator
    tolerance; falls back to doubling an int column or dropping a row so
    *every* result shape can be corrupted detectably.
    """
    columns = {n: table.column(n) for n in table.schema.names}
    for name, values in columns.items():
        if np.issubdtype(values.dtype, np.floating):
            scaled = values.copy()
            finite = np.isfinite(scaled)
            if finite.any():
                scaled[finite] = scaled[finite] * 1.001 + 1e-6
                columns[name] = scaled
                return Table.from_columns(columns)
    for name, values in columns.items():
        if np.issubdtype(values.dtype, np.integer):
            columns[name] = values * 2 + 1
            return Table.from_columns(columns)
    if table.num_rows > 0:
        return Table.from_columns(
            {n: v[:-1] for n, v in columns.items()}
        )
    return Table.from_columns(
        {n: np.concatenate([v, v[:1]]) if len(v) else v
         for n, v in columns.items()}
    )


class DifferentialRunner:
    """Runs queries through every execution path and compares results."""

    def __init__(self, rtol: float = 1e-6, atol: float = 1e-9,
                 workers: int = 2, include_serve: bool = False,
                 include_colstore: bool = False,
                 tracer: Optional[Tracer] = None):
        self.rtol = rtol
        self.atol = atol
        self.workers = workers
        self.include_serve = include_serve
        self.include_colstore = include_colstore
        self.tracer = tracer if tracer is not None else Tracer()
        #: Folds the ``parallel`` path sent to the pool, over every case
        #: run so far: a sweep that shards none has not fuzzed the pool.
        self.sharded_folds = 0
        self._table_cache: Dict[TableSpec, Table] = {}
        # Converted-dataset cache for the colstore path: one temp dir
        # per (table, partitioning) combination, kept for the runner's
        # lifetime so repeated cases don't re-encode.
        self._dataset_cache: Dict[tuple, "Path"] = {}
        self._dataset_tmp = None

    # -- materialization -------------------------------------------------

    def _tables_for(self, case: FuzzCase) -> Dict[str, Table]:
        out = {}
        for spec in case.tables:
            table = self._table_cache.get(spec)
            if table is None:
                table = generate_table(spec)
                self._table_cache[spec] = table
            out[spec.name] = table
        return out

    def _session_for(self, case: FuzzCase) -> GolaSession:
        config = GolaConfig(
            num_batches=case.num_batches,
            bootstrap_trials=case.bootstrap_trials,
            seed=case.seed,
        )
        session = GolaSession(config)
        tables = self._tables_for(case)
        for spec in case.tables:
            session.register_table(spec.name, tables[spec.name],
                                   streamed=spec.streamed)
        return session

    # -- paths -----------------------------------------------------------

    def _run_path(self, name: str, fn) -> PathOutcome:
        started = time.perf_counter()
        try:
            table = fn()
        except Exception as exc:  # any rejection/crash is data here
            return PathOutcome(
                path=name, status="error", error=str(exc)[:500],
                error_class=type(exc).__name__,
                elapsed_s=time.perf_counter() - started,
            )
        return PathOutcome(
            path=name, status="ok", table=table,
            elapsed_s=time.perf_counter() - started,
        )

    def _batch(self, session: GolaSession, sql: str) -> Table:
        return session.execute_batch(sql)

    def _cdm(self, session: GolaSession, sql: str) -> Table:
        query = session.sql(sql)
        cdm = ClassicalDeltaMaintenance(
            query.query, session._tables(), session.config,
            udafs=session.udafs,
        )
        last = None
        for snap in cdm.run():
            last = snap
        if last is None:
            raise RuntimeError("CDM produced no snapshots")
        return last.table

    def _serial(self, session: GolaSession, sql: str) -> Table:
        return session.sql(sql).run_to_completion().table

    def _parallel(self, session: GolaSession, sql: str) -> Table:
        """Serial's run on a process pool with ``min_shard_rows=1``, so
        every fold of a column-mergeable state goes through shared-memory
        publish, shard dispatch and the column merge."""
        config = session.config.with_options(
            parallel=ParallelConfig(workers=self.workers, min_shard_rows=1)
        )
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        session.tracer = tracer
        table = session.sql(sql).run_to_completion(config).table
        counters = tracer.metrics.snapshot().counters
        self.sharded_folds += counters.get("parallel.sharded_folds", 0)
        return table

    def _colstore(self, session: GolaSession, sql: str) -> Table:
        """Serial stream over converted on-disk colstore datasets.

        Runs the query twice in the given session — once over the
        in-memory tables, once with every streamed table replaced by
        its converted dataset (mmap decode) — and requires the two
        snapshot *streams* to be bit-identical, not merely
        tolerance-close: conversion and memory-mapped decoding are
        storage concerns that must not perturb a single user-visible
        byte.  The final table then also enters
        the ordinary cross-path comparison.
        """
        import tempfile

        from .identity import snapshot_fingerprint
        from ..storage.colstore import convert_table

        config = session.config
        mem_fp = snapshot_fingerprint(session.sql(sql).run_online())

        if self._dataset_tmp is None:
            self._dataset_tmp = tempfile.TemporaryDirectory(
                prefix="repro-qa-colstore-"
            )
        for name in list(session.catalog):
            if not session.catalog.is_streamed(name):
                continue
            table = session.catalog.get(name)
            key = (id(table), config.num_batches, config.seed,
                   config.shuffle)
            ds_path = self._dataset_cache.get(key)
            if ds_path is None:
                ds_path = (Path(self._dataset_tmp.name)
                           / f"ds-{len(self._dataset_cache):04d}")
                convert_table(
                    table, ds_path, num_batches=config.num_batches,
                    seed=config.seed, shuffle=config.shuffle,
                )
                self._dataset_cache[key] = ds_path
            session.register_colstore(name, ds_path, streamed=True,
                                      replace=True)

        snaps = []
        for snap in session.sql(sql).run_online():
            snaps.append(snap)
        col_fp = snapshot_fingerprint(snaps)
        if col_fp != mem_fp:
            raise RuntimeError(
                "colstore snapshot stream diverged from the in-memory "
                f"stream: {col_fp} != {mem_fp}"
            )
        if not snaps:
            raise RuntimeError("colstore run produced no snapshots")
        return snaps[-1].table

    def _serve(self, session: GolaSession, sql: str) -> Table:
        from ..serve import QueryScheduler

        scheduler = QueryScheduler(session)
        try:
            run = scheduler.submit(sql, config=session.config)
            scheduler.wait(run.id, timeout=120.0)
            if run.state != "done" or run.last_snapshot is None:
                raise RuntimeError(
                    f"serve run ended {run.state!r}: {run.error}"
                )
            return run.last_snapshot.table
        finally:
            scheduler.close()

    # -- the differential ------------------------------------------------

    def run_case(self, case: FuzzCase) -> CaseReport:
        """Execute one case through every path and compare."""
        sql = case.sql
        metrics = self.tracer.metrics
        report = CaseReport(case=case)
        paths = [
            ("batch", self._batch),
            ("cdm", self._cdm),
            ("serial", self._serial),
            ("parallel", self._parallel),
        ]
        if self.include_serve:
            paths.append(("serve", self._serve))
        if self.include_colstore:
            paths.append(("colstore", self._colstore))

        with self.tracer.span("qa.query", sql=sql.replace("\n", " ")):
            for name, fn in paths:
                # A fresh session per path: no shared state (stored
                # batches, block caches) can mask a path's own bug.
                session = self._session_for(case)
                outcome = self._run_path(
                    name, lambda fn=fn, s=session: fn(s, sql)
                )
                if (outcome.status == "ok" and case.inject_bug == name
                        and outcome.table is not None):
                    outcome.table = _corrupt(outcome.table)
                report.outcomes[name] = outcome

        self._judge(report)
        if metrics.enabled:
            metrics.counter("qa.queries").inc()
            if report.diverged:
                metrics.counter("qa.divergences").inc()
            if report.agreed_rejection:
                metrics.counter("qa.agreed_rejections").inc()
        if self.tracer.enabled and report.diverged:
            self.tracer.event("qa.divergence", sql=sql.replace("\n", " "),
                              problems=len(report.divergences))
        return report

    def _judge(self, report: CaseReport) -> None:
        """Fill ``divergences``/``agreed_rejection`` from the outcomes."""
        outcomes = report.outcomes
        baseline = outcomes["batch"]
        if baseline.status == "error":
            classes = {o.error_class for o in outcomes.values()}
            if classes == {baseline.error_class}:
                report.agreed_rejection = baseline.error_class
                return
            for name, o in outcomes.items():
                if name == "batch":
                    continue
                if o.status == "ok":
                    report.divergences.append(
                        f"{name}: produced a result but batch rejected "
                        f"with {baseline.error_class}"
                    )
                elif o.error_class != baseline.error_class:
                    report.divergences.append(
                        f"{name}: rejected with {o.error_class} but "
                        f"batch rejected with {baseline.error_class}"
                    )
            return
        for name, o in outcomes.items():
            if name == "batch":
                continue
            if o.status == "error":
                report.divergences.append(
                    f"{name}: raised {o.error_class} ({o.error}) but "
                    "batch produced a result"
                )
                continue
            problems = compare_tables(
                baseline.table, o.table, rtol=self.rtol, atol=self.atol
            )
            report.divergences.extend(
                f"{name} vs batch: {p}" for p in problems
            )
