"""Implementations of ``python -m repro fuzz`` / ``calibrate``.

Kept out of ``repro.__main__`` so the argparse wiring there stays thin
and the sweeps are callable programmatically (the CI jobs and the
integration tests drive these functions directly).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..obs import MetricsRegistry, Tracer
from .calibrate import CalibrationConfig, calibrate
from .compare import self_test
from .generator import QueryGenerator
from .runner import DifferentialRunner, FuzzCase
from .shrink import Shrinker, replay_artifact, save_artifact
from .tables import (
    generate_table,
    random_dim_spec,
    random_fact2_spec,
    random_fact_spec,
)


def _print(msg: str) -> None:
    print(msg, flush=True)


def _make_tracer() -> Tracer:
    return Tracer(metrics=MetricsRegistry(enabled=True))


def _qa_counters(tracer: Tracer) -> dict:
    counters = tracer.metrics.snapshot().counters
    return {k: v for k, v in sorted(counters.items())
            if k.startswith("qa.")}


def run_fuzz(*, queries: int = 50, seed: int = 0, rows: int = 4000,
             num_batches: int = 4, bootstrap_trials: int = 16,
             grammar: str = "default", include_serve: bool = False,
             include_colstore: bool = False, shrink: bool = True,
             artifact_dir: str = "qa-artifacts",
             out: Optional[str] = None,
             inject_bug: Optional[str] = None,
             replay: Optional[str] = None) -> int:
    """One differential fuzz sweep; returns a process exit code.

    ``queries`` seeded random queries over a generated ``rows``-row fact
    table, each run online with ``num_batches`` mini-batches and
    ``bootstrap_trials`` trials; ``grammar`` is the generation profile
    ("default" or "deep").  ``include_serve`` and ``include_colstore``
    add the scheduler and colstore paths; ``shrink`` minimizes each
    divergent query into a reproducer under ``artifact_dir``.

    Order of operations: comparator self-test first (a broken comparator
    must refuse to certify anything), then either an artifact replay or
    a fresh seeded sweep.  Exit code 0 means every generated query agreed
    across all paths (agreed rejections included); 1 means at least one
    divergence (reproducer artifacts are written), 2 means the harness
    itself is unhealthy: the comparator failed its self-test, or the
    sweep's parallel path sharded no fold.
    """
    tracer = _make_tracer()
    runner = DifferentialRunner(
        include_serve=include_serve, include_colstore=include_colstore,
        tracer=tracer,
    )

    verdict = self_test(rtol=runner.rtol, atol=runner.atol, tracer=tracer)
    if verdict is not None:
        _print(f"FATAL: {verdict}")
        _print("the comparator cannot be trusted; aborting the sweep")
        return 2
    _print("comparator self-test: ok "
           f"(rtol={runner.rtol:g}, atol={runner.atol:g})")

    if replay is not None:
        report = replay_artifact(replay, runner)
        _print(f"replayed {replay}:")
        _print(f"  sql: {report.case.sql!r}")
        for problem in report.divergences:
            _print(f"  divergence: {problem}")
        if report.diverged:
            _print("replay REPRODUCED the divergence")
            return 1
        _print("replay did NOT reproduce (fixed, or environment-"
               "dependent)")
        return 0

    rng = np.random.default_rng(seed)
    fact = random_fact_spec(rng, rows=rows, seed=seed,
                            grammar=grammar)
    dim = random_dim_spec(rng, fact, seed=seed + 1)
    fact_table = generate_table(fact)
    dim_table = generate_table(dim)
    specs = (fact, dim)
    fact2_pair = None
    if grammar == "deep":
        fact2 = random_fact2_spec(rng, fact, seed=seed + 2)
        fact2_pair = (fact2, generate_table(fact2))
        specs = (fact, fact2, dim)
    generator = QueryGenerator(
        fact, fact_table, dims={dim.name: (dim, dim_table)},
        seed=seed, fact2=fact2_pair, grammar=grammar,
    )
    paths = "batch/cdm/serial/parallel" + (
        "/serve" if include_serve else ""
    ) + ("/colstore" if include_colstore else "")
    _print(f"fuzzing {queries} queries (seed={seed}, "
           f"rows={rows}, grammar={grammar}, paths={paths})"
           + (f", injected bug in path {inject_bug!r}" if inject_bug
              else ""))

    started = time.perf_counter()
    reports = []
    divergent = []
    with tracer.span("qa.fuzz", seed=seed, queries=queries):
        for i in range(queries):
            case = FuzzCase(
                tables=specs, query=generator.generate(),
                num_batches=num_batches,
                bootstrap_trials=bootstrap_trials,
                seed=seed + i, inject_bug=inject_bug,
            )
            report = runner.run_case(case)
            reports.append(report)
            if report.diverged:
                divergent.append(report)
                _print(f"  query {i}: DIVERGED "
                       f"({len(report.divergences)} problem(s))")
            elif (i + 1) % 10 == 0:
                _print(f"  {i + 1}/{queries} queries checked")
    # Read before shrinking: the shrinker re-runs cases.
    sharded_folds = runner.sharded_folds

    artifacts: List[str] = []
    if divergent and shrink:
        shrinker = Shrinker(runner)
        for j, report in enumerate(divergent):
            minimal, min_report = shrinker.shrink(report.case, report)
            path = save_artifact(
                minimal, min_report,
                Path(artifact_dir) / f"divergence-{seed}-{j}.json",
            )
            artifacts.append(str(path))
            _print(f"  reproducer written: {path}")

    elapsed = time.perf_counter() - started
    rejected = sum(1 for r in reports if r.agreed_rejection)
    summary = {
        "seed": seed,
        "grammar": grammar,
        "queries": len(reports),
        "ok": len(reports) - len(divergent) - rejected,
        "agreed_rejections": rejected,
        "divergences": len(divergent),
        "sharded_folds": sharded_folds,
        "paths": paths.split("/"),
        "elapsed_s": round(elapsed, 3),
        "rtol": runner.rtol,
        "atol": runner.atol,
        "injected_bug": inject_bug,
        "artifacts": artifacts,
        "counters": _qa_counters(tracer),
        "reports": [
            r.to_dict(include_case=r.diverged) for r in reports
        ],
    }
    if out:
        Path(out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        _print(f"report written to {out}")
    _print(
        f"fuzz: {summary['ok']} agreed, {rejected} agreed-rejected, "
        f"{len(divergent)} diverged, {sharded_folds} folds sharded "
        f"in {elapsed:.1f}s"
    )
    if not sharded_folds:
        _print("FATAL: the parallel path sharded no fold; the worker "
               "pool went unfuzzed")
        return 2
    return 1 if divergent else 0


def run_calibrate(queries: Optional[List[str]] = None, *, seed: int = 0,
                  out: Optional[str] = None, **knobs) -> int:
    """One CI-coverage calibration sweep; returns a process exit code.

    ``knobs`` override :class:`CalibrationConfig` fields (``runs``,
    ``rows``, ``num_batches``, ``bootstrap_trials``, ``alpha``); the
    sweep's seeds start at ``1000 + seed``.
    """
    tracer = _make_tracer()
    cal = CalibrationConfig(base_seed=1000 + seed, **knobs)
    _print(
        f"calibrating bootstrap CI coverage: {cal.runs} runs/query, "
        f"rows={cal.rows}, snapshot at batch "
        f"{max(1, round(cal.fraction * cal.num_batches))}"
        f"/{cal.num_batches}, alpha={cal.alpha:g}"
    )
    report = calibrate(queries, config=cal, tracer=tracer)
    for result in report.results:
        lo, hi = result.band
        state = "ok" if result.ok else "OUT OF BAND"
        _print(
            f"  {result.name:<4} coverage {result.hits}/{result.runs} "
            f"= {result.coverage:.1%} (nominal {result.nominal:.0%}, "
            f"band [{lo}, {hi}] = "
            f"[{lo / result.runs:.1%}, {hi / result.runs:.1%}]) "
            f"[{state}] in {result.elapsed_s:.1f}s"
        )
    if out:
        body = report.to_dict()
        body["counters"] = _qa_counters(tracer)
        Path(out).write_text(
            json.dumps(body, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        _print(f"report written to {out}")
    if not report.ok:
        _print("calibration FAILED: empirical coverage left the "
               "binomial tolerance band", )
        return 1
    _print("calibration ok: all queries inside the tolerance band")
    return 0


def _given(**flags) -> dict:
    """The flags the command line set (argparse leaves the rest None)."""
    return {name: value for name, value in flags.items()
            if value is not None}


def main_fuzz(args) -> int:
    """argparse adapter for ``python -m repro fuzz``."""
    try:
        return run_fuzz(
            include_serve=args.serve, include_colstore=args.colstore,
            shrink=not args.no_shrink, out=args.out,
            inject_bug=args.inject_bug, replay=args.replay,
            **_given(queries=args.queries, seed=args.seed, rows=args.rows,
                     num_batches=args.batches,
                     bootstrap_trials=args.trials, grammar=args.grammar,
                     artifact_dir=args.artifact_dir),
        )
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def main_calibrate(args) -> int:
    """argparse adapter for ``python -m repro calibrate``."""
    queries = None
    if args.queries:
        queries = [q.strip() for q in args.queries.split(",") if q.strip()]
    try:
        return run_calibrate(
            queries, out=args.out,
            **_given(seed=args.seed, runs=args.runs, rows=args.rows,
                     num_batches=args.batches, bootstrap_trials=args.trials,
                     alpha=args.alpha),
        )
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
