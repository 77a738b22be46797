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

from ..config import QaConfig
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


def run_fuzz(qa: QaConfig, out: Optional[str] = None,
             inject_bug: Optional[str] = None,
             replay: Optional[str] = None) -> int:
    """One differential fuzz sweep; returns a process exit code.

    Order of operations: comparator self-test first (a broken comparator
    must refuse to certify anything), then either an artifact replay or
    a fresh seeded sweep.  Exit code 0 means every generated query agreed
    across all paths (agreed rejections included); 1 means at least one
    divergence (reproducer artifacts are written), 2 means the harness
    itself is unhealthy: the comparator failed its self-test, or the
    sweep's parallel path sharded no fold.
    """
    tracer = _make_tracer()

    verdict = self_test(rtol=qa.rtol, atol=qa.atol, tracer=tracer)
    if verdict is not None:
        _print(f"FATAL: {verdict}")
        _print("the comparator cannot be trusted; aborting the sweep")
        return 2
    _print("comparator self-test: ok "
           f"(rtol={qa.rtol:g}, atol={qa.atol:g})")

    runner = DifferentialRunner(
        rtol=qa.rtol, atol=qa.atol, workers=qa.workers,
        include_serve=qa.include_serve,
        include_colstore=qa.include_colstore, tracer=tracer,
    )

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

    rng = np.random.default_rng(qa.seed)
    fact = random_fact_spec(rng, rows=qa.rows, seed=qa.seed,
                            grammar=qa.grammar)
    dim = random_dim_spec(rng, fact, seed=qa.seed + 1)
    fact_table = generate_table(fact)
    dim_table = generate_table(dim)
    specs = (fact, dim)
    fact2_pair = None
    if qa.grammar == "deep":
        fact2 = random_fact2_spec(rng, fact, seed=qa.seed + 2)
        fact2_pair = (fact2, generate_table(fact2))
        specs = (fact, fact2, dim)
    generator = QueryGenerator(
        fact, fact_table, dims={dim.name: (dim, dim_table)},
        seed=qa.seed, fact2=fact2_pair, grammar=qa.grammar,
    )
    paths = "batch/cdm/serial/parallel" + (
        "/serve" if qa.include_serve else ""
    ) + ("/colstore" if qa.include_colstore else "")
    _print(f"fuzzing {qa.queries} queries (seed={qa.seed}, "
           f"rows={qa.rows}, grammar={qa.grammar}, paths={paths})"
           + (f", injected bug in path {inject_bug!r}" if inject_bug
              else ""))

    started = time.perf_counter()
    reports = []
    divergent = []
    with tracer.span("qa.fuzz", seed=qa.seed, queries=qa.queries):
        for i in range(qa.queries):
            case = FuzzCase(
                tables=specs, query=generator.generate(),
                num_batches=qa.num_batches,
                bootstrap_trials=qa.bootstrap_trials,
                seed=qa.seed + i, inject_bug=inject_bug,
            )
            report = runner.run_case(case)
            reports.append(report)
            if report.diverged:
                divergent.append(report)
                _print(f"  query {i}: DIVERGED "
                       f"({len(report.divergences)} problem(s))")
            elif (i + 1) % 10 == 0:
                _print(f"  {i + 1}/{qa.queries} queries checked")
    # Read before shrinking: the shrinker re-runs cases.
    sharded_folds = runner.sharded_folds

    artifacts: List[str] = []
    if divergent and qa.shrink:
        shrinker = Shrinker(runner)
        for j, report in enumerate(divergent):
            minimal, min_report = shrinker.shrink(report.case, report)
            path = save_artifact(
                minimal, min_report,
                Path(qa.artifact_dir) / f"divergence-{qa.seed}-{j}.json",
            )
            artifacts.append(str(path))
            _print(f"  reproducer written: {path}")

    elapsed = time.perf_counter() - started
    rejected = sum(1 for r in reports if r.agreed_rejection)
    summary = {
        "seed": qa.seed,
        "grammar": qa.grammar,
        "queries": len(reports),
        "ok": len(reports) - len(divergent) - rejected,
        "agreed_rejections": rejected,
        "divergences": len(divergent),
        "sharded_folds": sharded_folds,
        "paths": paths.split("/"),
        "elapsed_s": round(elapsed, 3),
        "rtol": qa.rtol,
        "atol": qa.atol,
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


def run_calibrate(qa: QaConfig, queries: Optional[List[str]] = None,
                  runs: Optional[int] = None,
                  rows: Optional[int] = None,
                  num_batches: int = 6,
                  trials: int = 60,
                  out: Optional[str] = None) -> int:
    """One CI-coverage calibration sweep; returns a process exit code."""
    tracer = _make_tracer()
    cal = CalibrationConfig(
        runs=runs if runs is not None else qa.calibration_runs,
        rows=rows if rows is not None else qa.rows,
        num_batches=num_batches,
        bootstrap_trials=trials,
        fraction=qa.calibration_fraction,
        alpha=qa.calibration_alpha,
        base_seed=qa.seed + 1000,
    )
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


def main_fuzz(args) -> int:
    """argparse adapter for ``python -m repro fuzz``."""
    qa = QaConfig.parse(args.qa) if args.qa else QaConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.queries is not None:
        overrides["queries"] = args.queries
    if args.rows is not None:
        overrides["rows"] = args.rows
    if args.serve:
        overrides["include_serve"] = True
    if getattr(args, "colstore", False):
        overrides["include_colstore"] = True
    if args.no_shrink:
        overrides["shrink"] = False
    if args.artifact_dir is not None:
        overrides["artifact_dir"] = args.artifact_dir
    if getattr(args, "grammar", None):
        overrides["grammar"] = args.grammar
    if overrides:
        import dataclasses

        qa = dataclasses.replace(qa, **overrides)
    try:
        return run_fuzz(qa, out=args.out, inject_bug=args.inject_bug,
                        replay=args.replay)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def main_calibrate(args) -> int:
    """argparse adapter for ``python -m repro calibrate``."""
    qa = QaConfig.parse(args.qa) if args.qa else QaConfig()
    if args.seed is not None:
        import dataclasses

        qa = dataclasses.replace(qa, seed=args.seed)
    if args.alpha is not None:
        import dataclasses

        qa = dataclasses.replace(qa, calibration_alpha=args.alpha)
    queries = None
    if args.queries:
        queries = [q.strip() for q in args.queries.split(",") if q.strip()]
    try:
        return run_calibrate(
            qa, queries=queries, runs=args.runs, rows=args.rows,
            num_batches=args.batches, trials=args.trials, out=args.out,
        )
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
