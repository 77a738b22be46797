#!/usr/bin/env python
"""Every figure and claim of the paper's evaluation, on a wall clock.

Usage:
    PYTHONPATH=src python benchmarks/harness.py --all
    PYTHONPATH=src python benchmarks/harness.py fig3a fig3b uncertain \
        epsilon overhead convergence
    PYTHONPATH=src python benchmarks/harness.py --all --smoke --json out.json

Six fixed scenarios, one per figure or claim of the paper's section 5.
Times are wall seconds in this process.  Every G-OLA run builds a fresh
``GolaSession``, so every run is cold: the time it reports includes
partitioning its table, drawing its weights and, pooled, starting its
workers.  A ratio divides by ``execute_batch`` seconds over the same
rows, and the output prints that base beside it.  A timed value is the
median of ``REPEATS`` cold runs.

Each scenario also checks what the clock does not decide: final
snapshots equal ``execute_batch``, rows touched per batch, answers
across ε, classical OLA against G-OLA.  The harness exits 1 if any
check fails.  No check reads a time.  ``--smoke`` divides the large row
counts by ``SMOKE_DIVISOR`` and times each run once; CI runs it so the
figures cannot rot.  ``--json`` writes every series as one document,
keyed by scenario; EXPERIMENTS.md is written from that output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from repro import GolaConfig, GolaSession, UnsupportedQueryError
from repro.baselines import ClassicalDeltaMaintenance, ClassicalOLA
from repro.config import ParallelConfig
from repro.plan import bind_statement
from repro.qa.compare import compare_tables
from repro.sql import parse_sql
from repro.storage import Catalog, Table, batch_sizes
from repro.workloads import (
    CONVIVA_QUERIES,
    SBI_QUERY,
    TPCH_QUERIES,
    generate_conviva,
    generate_sessions,
    generate_tpch,
)

#: The seven nested-aggregate queries of Figure 3(b), each with the
#: fact table it reads.
FIGURE_QUERIES = {
    **{name: ("conviva", sql) for name, sql in CONVIVA_QUERIES.items()},
    **{name: ("tpch", sql) for name, sql in TPCH_QUERIES.items()},
}
GENERATORS = {"conviva": generate_conviva, "tpch": generate_tpch}
DATA_SEED = 2015
#: Bootstrap trials of every figure run.
TRIALS = 60
#: A timed value is the median of this many cold runs (one in smoke).
REPEATS = 5
#: ``--smoke`` divides the figure scenarios' row counts by this.
SMOKE_DIVISOR = 20
#: Figure 3(a)'s stopping point: relative standard deviation 2 %.
TARGET_RSD = 0.02


class Harness:
    """What every scenario shares: its size setting and the check log."""

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.repeats = 1 if smoke else REPEATS
        self.passed = 0
        self.failures: List[str] = []

    def rows(self, n: int) -> int:
        return n // SMOKE_DIVISOR if self.smoke else n

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}")

    def check_exact(self, exact: Table, run: OnlineRun, what: str) -> None:
        """The run yielded one snapshot per batch, and its last equals
        the exact answer."""
        final = run.snapshots[-1]
        problems = compare_tables(exact, final.table, rtol=1e-9)
        self.check(len(run.snapshots) == final.num_batches and not problems,
                   f"{what}: {final.num_batches} snapshots, the last equal "
                   "to execute_batch"
                   + (f" ({problems[0]})" if problems else ""))


@dataclass
class OnlineRun:
    """One cold online run: its snapshots, and the wall seconds from
    ``session.sql`` to each of them."""

    snapshots: list
    seconds: List[float]

    @property
    def estimates(self) -> List[float]:
        return [s.estimate for s in self.snapshots]

    def seconds_to(self, target_rsd: float) -> Optional[float]:
        for snapshot, seconds in zip(self.snapshots, self.seconds):
            if snapshot.relative_stdev <= target_rsd:
                return seconds
        return None


def session_for(name: str, table: Table, config: GolaConfig) -> GolaSession:
    session = GolaSession(config)
    session.register_table(name, table)
    return session


def run_online(sql: str, name: str, table: Table,
               config: GolaConfig) -> OnlineRun:
    session = session_for(name, table, config)
    snapshots, seconds = [], []
    start = time.perf_counter()
    for snapshot in session.sql(sql).run_online():
        seconds.append(time.perf_counter() - start)
        snapshots.append(snapshot)
    return OnlineRun(snapshots, seconds)


def run_exact(sql: str, name: str, table: Table) -> tuple:
    """(answer, wall seconds) of ``execute_batch`` in a fresh session."""
    session = session_for(name, table, GolaConfig())
    start = time.perf_counter()
    answer = session.execute_batch(sql)
    return answer, time.perf_counter() - start


def bound(sql: str, name: str, table: Table):
    """The bound query the baselines take."""
    catalog = Catalog()
    catalog.register(name, table, streamed=True)
    return bind_statement(parse_sql(sql), catalog)


def figure_config(num_batches: int, workers: int = 0) -> GolaConfig:
    return GolaConfig(num_batches=num_batches, bootstrap_trials=TRIALS,
                      seed=DATA_SEED,
                      parallel=ParallelConfig(workers=workers))


def ratio(seconds: Optional[float], base: float) -> Optional[float]:
    return None if seconds is None else seconds / base


def fmt(seconds: Optional[float], base: float) -> str:
    if seconds is None:
        return f"{'not reached':>17}"
    return f"{seconds:>8.3f} ({seconds / base:>5.2f}x)"


def rounded(values, digits: int = 6) -> list:
    return [None if v is None else round(float(v), digits) for v in values]


def banner(title: str) -> None:
    print("=" * 78)
    print(title)
    print("=" * 78)


def fig3a(h: Harness) -> dict:
    banner("Figure 3(a): TPC-H Q17, k=100, time to answer over exact time")
    sql = TPCH_QUERIES["Q17"]
    modes = {"serial": 0, "pooled": os.cpu_count() or 1}
    print(f"{'rows':>9} {'mode':>7} {'exact s':>8} {'first answer s':>17} "
          f"{'±2% s':>17} {'at':>4} {'final answer s':>17} {'rebuilds':>9}")
    sizes = []
    for n in (h.rows(100_000), h.rows(300_000), h.rows(1_000_000)):
        table = generate_tpch(n, seed=DATA_SEED)
        exacts, by_mode = [], {mode: [] for mode in modes}
        for _ in range(h.repeats):
            # Interleaved, so drift in the host's load hits every side.
            exacts.append(run_exact(sql, "tpch", table))
            for mode, workers in modes.items():
                by_mode[mode].append(run_online(
                    sql, "tpch", table, figure_config(100, workers)
                ))
        exact_s = median(s for _, s in exacts)
        size = {"rows": n, "exact_s": exact_s,
                "exact_runs_s": rounded(s for _, s in exacts)}
        reference = by_mode["serial"][0].estimates
        for mode, workers in modes.items():
            runs = by_mode[mode]
            for run in runs:
                h.check(run.estimates == reference,
                        f"fig3a {n} rows {mode}: estimates bit-identical "
                        "to the first serial run")
            h.check_exact(exacts[0][0], runs[0], f"fig3a {n} rows {mode}")
            first = median(r.seconds[0] for r in runs)
            final = median(r.seconds[-1] for r in runs)
            reached = [r.seconds_to(TARGET_RSD) for r in runs]
            target = None if None in reached else median(reached)
            lead = runs[0]
            at = next((s.batch_index for s in lead.snapshots
                       if s.relative_stdev <= TARGET_RSD), None)
            h.check(h.smoke or at is not None,
                    f"fig3a {n} rows {mode}: relative stdev reaches "
                    f"{TARGET_RSD:.0%}")
            rebuilds = [s.batch_index for s in lead.snapshots if s.rebuilds]
            print(f"{n:>9,} {mode:>7} {exact_s:>8.3f} {fmt(first, exact_s)} "
                  f"{fmt(target, exact_s)} {at or '-':>4} "
                  f"{fmt(final, exact_s)} {len(rebuilds):>9}")
            size[mode] = {
                "workers": workers,
                "first_answer_s": first,
                "target_rsd_s": target,
                "target_rsd_batch": at,
                "final_answer_s": final,
                "first_over_exact": ratio(first, exact_s),
                "target_over_exact": ratio(target, exact_s),
                "final_over_exact": ratio(final, exact_s),
                "rebuild_batches": rebuilds,
                "runs_first_s": rounded(r.seconds[0] for r in runs),
                "runs_final_s": rounded(r.seconds[-1] for r in runs),
                "seconds": rounded(lead.seconds, 4),
                "relative_stdev": rounded(s.relative_stdev
                                          for s in lead.snapshots),
            }
        sizes.append(size)
    print("\npaper: first answer at 1.6% of batch time, ±2% about 10x "
          "faster than batch, full pass about 1.6x batch\n")
    return {"query": "Q17", "num_batches": 100, "bootstrap_trials": TRIALS,
            "target_rsd": TARGET_RSD, "sizes": sizes}


def figure_tables(h: Harness) -> Dict[str, Table]:
    n = h.rows(300_000)
    return {name: gen(n, seed=DATA_SEED) for name, gen in GENERATORS.items()}


def check_gola_rows(h: Harness, label: str, run: OnlineRun,
                    num_rows: int) -> None:
    """Per block and batch: rows touched <= |ΔD_i| + |U_{i-1}|, rebuild
    batches aside (a rebuild re-reads the prefix by design)."""
    previous: Dict[str, int] = {}
    sizes = batch_sizes(num_rows, len(run.snapshots))
    bounded = True
    for snapshot, delta in zip(run.snapshots, sizes):
        for block, rows in snapshot.rows_processed.items():
            if block not in snapshot.rebuilds:
                bounded &= rows <= delta + previous.get(block, 0)
        previous = snapshot.uncertain_sizes
    h.check(bounded, f"{label}: G-OLA rows per batch within |ΔD| + |U|")


def fig3b(h: Harness) -> dict:
    banner("Figure 3(b): CDM / G-OLA per-batch wall time, k=10")
    tables = figure_tables(h)
    k = 10
    config = figure_config(k)
    ratios, series = {}, {}
    for name, (fact, sql) in sorted(FIGURE_QUERIES.items()):
        table = tables[fact]
        golas, cdms = [], []
        for _ in range(h.repeats):
            golas.append(run_online(sql, fact, table, config))
            cdms.append(list(ClassicalDeltaMaintenance(
                bound(sql, fact, table), {fact: table}, config
            ).run()))
        gola, cdm = golas[0], cdms[0]
        exact, _ = run_exact(sql, fact, table)
        h.check_exact(exact, gola, f"fig3b {name}")
        check_gola_rows(h, f"fig3b {name}", gola, table.num_rows)
        prefix = np.cumsum(batch_sizes(table.num_rows, k))
        h.check(
            any(all(c.rows_processed[block] == p
                    for c, p in zip(cdm, prefix))
                for block in cdm[0].rows_processed),
            f"fig3b {name}: a CDM block re-reads the whole prefix each "
            "batch (rows grow linearly)",
        )
        # Per batch, the median over the cold runs.
        gola_s = [median(run.snapshots[i].elapsed_s for run in golas)
                  for i in range(k)]
        cdm_s = [median(run[i].elapsed_s for run in cdms) for i in range(k)]
        ratios[name] = [c / g for c, g in zip(cdm_s, gola_s)]
        series[name] = {
            "gola_batch_s": rounded(gola_s),
            "cdm_batch_s": rounded(cdm_s),
            "cdm_over_gola": rounded(ratios[name], 4),
            "gola_rows": [s.total_rows_processed for s in gola.snapshots],
            "cdm_rows": [c.total_rows_processed for c in cdm],
            "rebuild_batches": [s.batch_index for s in gola.snapshots
                                if s.rebuilds],
        }
    names = sorted(ratios)
    print(f"{'batch':>6}" + "".join(f"{n:>8}" for n in names))
    for i in range(k):
        print(f"{i + 1:>6}" + "".join(f"{ratios[n][i]:>8.2f}" for n in names))
    rebuilt = ", ".join(f"{n} {series[n]['rebuild_batches']}"
                        for n in names if series[n]["rebuild_batches"])
    print(f"\nrows {tables['tpch'].num_rows:,} per fact table; G-OLA "
          f"rebuild batches: {rebuilt or 'none'}")
    print("paper: the ratio grows linearly with the batch index\n")
    return {"rows": tables["tpch"].num_rows, "num_batches": k,
            "bootstrap_trials": TRIALS, "queries": series}


def uncertain(h: Harness) -> dict:
    banner("Section 3.2: uncertain-set size per batch, k=10")
    tables = figure_tables(h)
    k = 10
    config = figure_config(k)
    sizes = {}
    for name, (fact, sql) in sorted(FIGURE_QUERIES.items()):
        table = tables[fact]
        run = run_online(sql, fact, table, config)
        sizes[name] = [s.total_uncertain for s in run.snapshots]
        n = table.num_rows
        prefix = np.cumsum(batch_sizes(n, k))
        h.check(all(u < 0.35 * p for i, (u, p) in
                    enumerate(zip(sizes[name], prefix), start=1)
                    if i > k // 2),
                f"uncertain {name}: |U_i| < 35% of |D_i| past batch k/2")
        h.check(sizes[name][-1] < 0.15 * n,
                f"uncertain {name}: final |U| < 15% of the table")
    h.check(sizes["Q18"][-1] < max(sizes["Q18"]),
            "uncertain Q18: contested membership shrinks by the end")
    names = sorted(sizes)
    n = tables["tpch"].num_rows
    print(f"{'batch':>6}" + "".join(f"{name:>8}" for name in names))
    for i in range(k):
        print(f"{i + 1:>6}" + "".join(
            f"{sizes[name][i]:>8}" for name in names))
    print(f"\n|U| in rows of a {n:,}-row table; paper: the uncertain sets "
          "are 'very small in practice'\n")
    return {"rows": n, "num_batches": k, "uncertain_sizes": sizes}


#: The ε multipliers swept, in units of stdev(û).
EPSILONS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def epsilon(h: Harness) -> dict:
    banner("Section 3.2 ablation: ε sweep on SBI (k=30, B=24, 3,000 rows)")
    table = generate_sessions(3000, seed=7)
    print(f"{'epsilon':>8} {'rebuilds':>9} {'mean |U|':>9} "
          f"{'full pass s':>12} {'final estimate':>15}")
    rows, runs = [], {}
    for eps in EPSILONS:
        config = GolaConfig(num_batches=30, bootstrap_trials=24, seed=31,
                            epsilon_multiplier=eps)
        run = runs[eps] = run_online(SBI_QUERY, "sessions", table, config)
        snaps = run.snapshots
        rebuilds = sum(len(s.rebuilds) for s in snaps)
        mean_u = sum(s.total_uncertain for s in snaps) / len(snaps)
        print(f"{eps:>8.2f} {rebuilds:>9} {mean_u:>9.1f} "
              f"{run.seconds[-1]:>12.3f} {snaps[-1].estimate:>15.4f}")
        rows.append({"epsilon": eps, "rebuilds": rebuilds,
                     "mean_uncertain": round(mean_u, 2),
                     "full_pass_s": round(run.seconds[-1], 4),
                     "final_estimate": snaps[-1].estimate})
    # ε moves rows between folded and cached, so rows fold in another
    # order: estimates agree to rounding, not bit for bit.
    h.check(all(math.isclose(a, b, rel_tol=1e-9)
                for eps in EPSILONS
                for a, b in zip(runs[eps].estimates, runs[1.0].estimates)),
            "epsilon: every batch's estimate agrees across ε")
    means = [r["mean_uncertain"] for r in rows]
    h.check(0 < means[0] < means[-1] and all(
        b >= 0.8 * a for a, b in zip(means, means[2:])),
        "epsilon: mean |U| grows with ε (within rebuild resets)")
    by_eps = {r["epsilon"]: r for r in rows}
    h.check(by_eps[0.0]["rebuilds"] >= 1, "epsilon: ε=0 rebuilds")
    h.check(by_eps[8.0]["rebuilds"] == 0, "epsilon: ε=8 never rebuilds")
    h.check(by_eps[1.0]["rebuilds"] <= by_eps[0.0]["rebuilds"]
            and by_eps[1.0]["mean_uncertain"]
            < 0.6 * by_eps[8.0]["mean_uncertain"],
            "epsilon: ε=1 rebuilds no more than ε=0 and caches under "
            "60% of ε=8's |U|")
    print("\nsmaller ε risks rebuilds, larger ε caches more rows; the "
          "answers do not move (paper: ε = stdev balances the two)\n")
    return {"rows": 3000, "num_batches": 30, "sweep": rows}


def overhead(h: Harness) -> dict:
    banner("Section 5: full online pass over exact, Q17")
    n = h.rows(300_000)
    table = generate_tpch(n, seed=DATA_SEED)
    sql = TPCH_QUERIES["Q17"]
    exacts, by_k = [], {10: [], 100: []}
    for _ in range(h.repeats):
        exacts.append(run_exact(sql, "tpch", table))
        for k, runs in by_k.items():
            runs.append(run_online(sql, "tpch", table, figure_config(k)))
    exact_s = median(s for _, s in exacts)
    print(f"exact (execute_batch) over {n:,} rows: {exact_s:.3f} s")
    print(f"{'k':>5} {'first answer s':>17} {'full pass s':>17}")
    out = {"query": "Q17", "rows": n, "bootstrap_trials": TRIALS,
           "exact_s": exact_s, "passes": []}
    for k, runs in by_k.items():
        h.check_exact(exacts[0][0], runs[0], f"overhead k={k}")
        first = median(r.seconds[0] for r in runs)
        final = median(r.seconds[-1] for r in runs)
        print(f"{k:>5} {fmt(first, exact_s)} {fmt(final, exact_s)}")
        out["passes"].append({
            "num_batches": k, "first_answer_s": first,
            "full_pass_s": final, "full_over_exact": final / exact_s,
        })
    print("paper: a full online pass costs about 1.6x batch\n")
    return out


#: A flat (SPJA) query both classical OLA and G-OLA run, and a nested
#: one only G-OLA runs.
SPJA = "SELECT AVG(play_time) AS m FROM sessions WHERE buffer_time < 60"
NESTED = ("SELECT AVG(play_time) AS m FROM sessions WHERE buffer_time > "
          "(SELECT AVG(buffer_time) FROM sessions)")


def convergence(h: Harness) -> dict:
    banner("Section 2.2: estimator convergence and CI coverage "
           "(SBI, 10 seeds)")
    table = generate_sessions(6000, seed=99)
    exact, _ = run_exact(SBI_QUERY, "sessions", table)
    truth = float(exact.column(exact.schema.names[0])[0])
    hits = total = 0
    first_errors, last_errors, seconds = [], [], []
    for seed in range(10):
        config = GolaConfig(num_batches=6, bootstrap_trials=60, seed=seed)
        run = run_online(SBI_QUERY, "sessions", table, config)
        h.check_exact(exact, run, f"convergence seed {seed}")
        widths = [s.interval.width for s in run.snapshots]
        h.check(max(widths[-2:]) <= widths[0],
                f"convergence seed {seed}: interval tightens")
        for snapshot in run.snapshots[:-1]:
            total += 1
            hits += snapshot.interval.contains(truth)
        first_errors.append(abs(run.snapshots[0].estimate - truth))
        last_errors.append(abs(run.snapshots[-2].estimate - truth))
        seconds.append(run.seconds[-1])
    coverage = hits / total
    h.check(coverage >= 0.82,
            f"convergence: 95% CI coverage {coverage:.1%} >= 82%")
    h.check(np.mean(last_errors) < np.mean(first_errors),
            "convergence: mean |error| falls from batch 1 to batch k-1")
    print(f"95% CI coverage over {total} snapshots: {coverage:.1%}")
    print(f"mean |error|, first batch:  {np.mean(first_errors):.3f}")
    print(f"mean |error|, batch k-1:    {np.mean(last_errors):.3f}")
    print(f"full pass, median of 10 seeds: {median(seconds):.3f} s")

    sessions = generate_sessions(20_000, seed=6)
    config = GolaConfig(num_batches=8, bootstrap_trials=80, seed=12)
    gola = run_online(SPJA, "sessions", sessions, config)
    ola = list(ClassicalOLA(bound(SPJA, "sessions", sessions),
                            {"sessions": sessions}, config).run())
    h.check(len(ola) == len(gola.snapshots) and all(
        math.isclose(g.estimate, o.scalar()[0], rel_tol=1e-9)
        for g, o in zip(gola.snapshots, ola)),
        "convergence: classical OLA's estimates equal G-OLA's on SPJA")
    try:
        ClassicalOLA(bound(NESTED, "sessions", sessions),
                     {"sessions": sessions}, config)
        refused = False
    except UnsupportedQueryError:
        refused = True
    h.check(refused, "convergence: classical OLA refuses the nested query")
    widths = [(g.interval.width, o.scalar()[2] - o.scalar()[1])
              for g, o in zip(gola.snapshots, ola)]
    h.check(all(0.4 < g / c < 2.5 for g, c in widths if c > 0),
            "convergence: G-OLA's and classical OLA's SPJA intervals "
            "agree within a factor 2.5")
    h.check(widths[-1][0] < widths[0][0] and widths[-1][1] < widths[0][1],
            "convergence: both SPJA intervals tighten from batch 1 to k")
    print("SPJA query, 20,000 rows, k=8: G-OLA / classical OLA interval "
          "width per batch: " + " ".join(
              f"{g / c:.2f}" if c > 0 else "-" for g, c in widths))
    print("final snapshots equal the exact answers by construction\n")
    return {
        "snapshots": total,
        "ci_coverage": round(coverage, 4),
        "mean_error_first_batch": round(float(np.mean(first_errors)), 4),
        "mean_error_last_batch": round(float(np.mean(last_errors)), 4),
        "full_pass_median_s": median(seconds),
        "spja_width_ratio": rounded(g / c if c > 0 else None
                                    for g, c in widths),
    }


#: The fixed scenario list, in the order ``--all`` runs it.
SCENARIOS = {
    "fig3a": fig3a,
    "fig3b": fig3b,
    "uncertain": uncertain,
    "epsilon": epsilon,
    "overhead": overhead,
    "convergence": convergence,
}


def host() -> dict:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], capture_output=True,
            text=True, cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"machine": platform.machine(), "system": platform.system(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("scenarios", nargs="*", choices=[*SCENARIOS, []],
                        help="which scenarios to run (default: all)")
    parser.add_argument("--all", action="store_true",
                        help="run every scenario")
    parser.add_argument("--smoke", action="store_true",
                        help=f"row counts / {SMOKE_DIVISOR}, one run per "
                             "timing; every check still runs")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write every series as one JSON document")
    args = parser.parse_args()
    names = list(SCENARIOS) if args.all or not args.scenarios \
        else args.scenarios
    h = Harness(args.smoke)
    about = host()
    print(f"host: {about}; smoke: {args.smoke}; "
          f"median of {h.repeats} cold run(s) per timing\n")
    started = time.perf_counter()
    results = {name: SCENARIOS[name](h) for name in names}
    wall = time.perf_counter() - started
    print(f"{h.passed} checks passed, {len(h.failures)} failed; "
          f"{wall:.1f} s")
    for failure in h.failures:
        print(f"  FAILED: {failure}")
    if args.json:
        document = {"benchmark": "harness", "host": about,
                    "smoke": args.smoke, "repeats": h.repeats,
                    "wall_s": round(wall, 3),
                    "checks": {"passed": h.passed, "failed": h.failures},
                    "scenarios": results}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"results written to {args.json}")
    return 1 if h.failures else 0


if __name__ == "__main__":
    sys.exit(main())
