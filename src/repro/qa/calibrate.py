"""Statistical calibration of the bootstrap confidence intervals.

The paper's central promise is not just "an estimate early" but "an
estimate *with error bars that mean what they say*": a 95% confidence
interval reported at batch ``i`` should cover the ground truth ``Q(D)``
in ~95% of runs.  This module measures that empirically: it replays a
query across many RNG seeds (each seed draws a fresh mini-batch
partitioning and fresh bootstrap weights), records whether the interval
at a fixed mid-run batch covers the exact batch answer, and tests the
hit count against an exact binomial acceptance band around the nominal
confidence.

The band is the central acceptance region of ``Binomial(runs, nominal)``
at significance ``alpha``: coverage inside the band is consistent with
nominal; outside it, the estimator is mis-calibrated (too-narrow
intervals under-cover; too-wide ones over-cover and waste refinement
time) and the calibration run *fails* — this is what the CI job asserts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import GolaConfig
from ..core.session import GolaSession
from ..obs import Tracer
from ..storage.table import Table


# ---------------------------------------------------------------------------
# Exact binomial acceptance band
# ---------------------------------------------------------------------------


def _binom_logpmf(n: int, p: float) -> List[float]:
    """log pmf of Binomial(n, p) for k = 0..n (lgamma; no scipy)."""
    logp = math.log(p)
    logq = math.log1p(-p)
    lg = math.lgamma
    return [
        lg(n + 1) - lg(k + 1) - lg(n - k + 1) + k * logp + (n - k) * logq
        for k in range(n + 1)
    ]


def binomial_band(n: int, p: float, alpha: float = 1e-3
                  ) -> Tuple[int, int]:
    """Central acceptance region ``[lo, hi]`` for ``X ~ Binomial(n, p)``.

    ``lo`` is the smallest hit count with lower tail mass > alpha/2;
    ``hi`` the largest with upper tail mass > alpha/2.  A hit count
    outside ``[lo, hi]`` rejects "true coverage == p" at level alpha.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    pmf = [math.exp(lp) for lp in _binom_logpmf(n, p)]
    half = alpha / 2.0
    lower = 0.0
    lo = 0
    for k in range(n + 1):
        lower += pmf[k]
        if lower > half:
            lo = k
            break
    upper = 0.0
    hi = n
    for k in range(n, -1, -1):
        upper += pmf[k]
        if upper > half:
            hi = k
            break
    return lo, hi


# ---------------------------------------------------------------------------
# Calibration workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationQuery:
    """One workload query to calibrate against.

    The classic entries are scalar (1x1) queries over a single streamed
    table.  Two extensions cover the deep query surface:

    * ``bundle`` — a generator returning several named tables at once
      (``{name: (table, streamed)}``), for multi-fact and dimension-join
      queries; when set, ``table``/``generator`` are ignored.
    * ``target`` — ``(value_column, key_column, key_value)`` selecting
      one cell of a multi-row result (e.g. the last day of a rolling
      window); coverage is then measured on that cell's per-row interval
      instead of the scalar ``snapshot.interval``.
    """

    name: str
    sql: str
    table: str
    generator: Callable[[int, int], Table]  # (rows, seed) -> Table
    bundle: Optional[
        Callable[[int, int], Dict[str, Tuple[Table, bool]]]
    ] = None
    target: Optional[Tuple[str, str, float]] = None


def _workloads() -> Dict[str, CalibrationQuery]:
    from ..workloads import (
        SBI_QUERY,
        generate_conviva,
        generate_sessions,
        generate_tpch,
    )
    from ..workloads.conviva import C3_QUERY
    from ..workloads.taxi import NUM_DAYS, QUERIES as TAXI, generate_taxi
    from ..workloads.tpch import Q17_QUERY, Q20_QUERY

    def sessions(rows, seed):
        return generate_sessions(rows, seed=seed)

    def conviva(rows, seed):
        return generate_conviva(rows, seed=seed)

    def tpch(rows, seed):
        return generate_tpch(rows, seed=seed)

    def taxi(rows, seed):
        tables = generate_taxi(rows, seed=seed)
        return {
            "trips": (tables["trips"], True),
            "surcharges": (tables["surcharges"], True),
            "zones": (tables["zones"], False),
            "vendors": (tables["vendors"], False),
        }

    def _taxi_query(name, sql, target=None):
        return CalibrationQuery(name, sql, "trips", lambda r, s: None,
                                bundle=taxi, target=target)

    return {
        "sbi": CalibrationQuery("sbi", SBI_QUERY, "sessions", sessions),
        "c3": CalibrationQuery("c3", C3_QUERY, "conviva", conviva),
        "q17": CalibrationQuery("q17", Q17_QUERY, "tpch", tpch),
        "q20": CalibrationQuery("q20", Q20_QUERY, "tpch", tpch),
        # Deep query-surface calibration (taxi workload): a rolling
        # window cell, a filtered COUNT DISTINCT, and a p95 over a
        # dimension join.  The window target is the cumulative sum at
        # the final day — the cell with the most accumulated variance.
        "t_roll": _taxi_query(
            "t_roll", TAXI["T1"],
            target=("cum_trips", "day", float(NUM_DAYS - 1)),
        ),
        "t_dist": _taxi_query("t_dist", TAXI["T4"]),
        "t_p95": _taxi_query("t_p95", TAXI["T6"]),
        # A flat heavy-tailed cell: one vendor's mean tip (tips scale
        # with lognormal fares), where a closed-form CLT interval is
        # most likely to under-cover.  T1 and T9 both take closed-form
        # errors, so t_roll and t_tip gate them.
        "t_tip": _taxi_query(
            "t_tip", TAXI["T9"], target=("mean_tip", "vendor_id", 1.0),
        ),
    }


def calibration_queries() -> Dict[str, CalibrationQuery]:
    """All calibration workload queries by short name.

    ``sbi``/``c3``/``q17``/``q20`` are the paper's scalar workloads;
    ``t_roll``/``t_dist``/``t_p95``/``t_tip`` cover the deep query
    surface (window, DISTINCT, quantile-over-join, a flat heavy-tailed
    mean) on the taxi dataset.
    """
    return _workloads()


# ---------------------------------------------------------------------------
# The calibration measurement
# ---------------------------------------------------------------------------


@dataclass
class CalibrationResult:
    """Empirical coverage of one query's intervals at one batch index."""

    name: str
    sql: str
    runs: int
    hits: int
    nominal: float
    batch_index: int
    num_batches: int
    band: Tuple[int, int]
    truth: float
    elapsed_s: float = 0.0
    mean_width: float = 0.0

    @property
    def coverage(self) -> float:
        return self.hits / self.runs

    @property
    def ok(self) -> bool:
        lo, hi = self.band
        return lo <= self.hits <= hi

    def to_dict(self) -> dict:
        return {
            "query": self.name,
            "sql": self.sql.strip(),
            "runs": self.runs,
            "hits": self.hits,
            "coverage": round(self.coverage, 6),
            "nominal": self.nominal,
            "band": {"lo": self.band[0], "hi": self.band[1],
                     "lo_rate": round(self.band[0] / self.runs, 6),
                     "hi_rate": round(self.band[1] / self.runs, 6)},
            "batch_index": self.batch_index,
            "num_batches": self.num_batches,
            "truth": self.truth,
            "mean_interval_width": round(self.mean_width, 9),
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
        }


@dataclass
class CalibrationConfig:
    """Knobs for one calibration sweep."""

    runs: int = 100
    rows: int = 4000
    num_batches: int = 6
    bootstrap_trials: int = 60
    fraction: float = 0.5
    confidence: float = 0.95
    alpha: float = 1e-3
    base_seed: int = 1000
    data_seed: int = 7


def _cell(table: Table, value_column: str, key_column: str,
          key_value: float) -> Tuple[Optional[int], Optional[float]]:
    """Locate ``value_column`` at the row where ``key_column == key``.

    Returns ``(row_index, value)``; ``(None, None)`` if the key is
    absent (possible in an early online snapshot before every group has
    been observed — counted as a coverage miss, since the interval for
    an unseen cell cannot cover the truth).
    """
    import numpy as np

    keys = np.asarray(table.column(key_column))
    matches = np.nonzero(keys == key_value)[0]
    if len(matches) == 0:
        return None, None
    idx = int(matches[0])
    return idx, float(np.asarray(table.column(value_column))[idx])


def calibrate_query(query: CalibrationQuery,
                    config: Optional[CalibrationConfig] = None,
                    tracer: Optional[Tracer] = None) -> CalibrationResult:
    """Measure one query's empirical CI coverage across seeds.

    Each run re-partitions the same data with a fresh master seed, runs
    online to the target batch, and records whether that snapshot's
    interval covers the exact answer.  The data itself is fixed (truth
    must be a constant for coverage to be meaningful).
    """
    cal = config or CalibrationConfig()
    tracer = tracer if tracer is not None else Tracer()
    if query.bundle is not None:
        bundle = query.bundle(cal.rows, cal.data_seed)
    else:
        bundle = {query.table: (query.generator(cal.rows, cal.data_seed),
                                True)}

    def _register(session: GolaSession) -> None:
        for name, (tbl, streamed) in bundle.items():
            session.register_table(name, tbl, streamed=streamed)

    target_batch = max(1, min(cal.num_batches,
                              round(cal.fraction * cal.num_batches)))
    band = binomial_band(cal.runs, cal.confidence, cal.alpha)

    base = GolaConfig(
        num_batches=cal.num_batches,
        bootstrap_trials=cal.bootstrap_trials,
        confidence=cal.confidence,
        seed=cal.base_seed,
    )
    truth_session = GolaSession(base)
    _register(truth_session)
    exact = truth_session.execute_batch(query.sql)
    if query.target is not None:
        value_col, key_col, key_value = query.target
        _, truth_val = _cell(exact, value_col, key_col, key_value)
        if truth_val is None:
            raise ValueError(
                f"calibration target {key_col}=={key_value!r} absent "
                f"from the exact result of {query.name!r}"
            )
        truth = truth_val
    else:
        truth = float(exact.column(exact.schema.names[0])[0])

    hits = 0
    width_sum = 0.0
    started = time.perf_counter()
    with tracer.span("qa.calibrate", query=query.name, runs=cal.runs):
        for r in range(cal.runs):
            run_config = base.with_options(seed=cal.base_seed + r)
            session = GolaSession(run_config)
            _register(session)
            online = session.sql(query.sql)
            snapshot = None
            for snap in online.run_online():
                snapshot = snap
                if snap.batch_index >= target_batch:
                    online.stop()
            if snapshot is None:
                raise RuntimeError("online run produced no snapshots")
            if query.target is not None:
                value_col, key_col, key_value = query.target
                idx, _ = _cell(snapshot.table, value_col, key_col,
                               key_value)
                if idx is None:
                    continue  # unseen cell: a miss with zero width
                errs = snapshot.errors[value_col]
                lo = float(errs.lows[idx])
                hi = float(errs.highs[idx])
                width_sum += hi - lo
                if lo <= truth <= hi:
                    hits += 1
            else:
                interval = snapshot.interval
                width_sum += interval.width
                if interval.contains(truth):
                    hits += 1
            if tracer.metrics.enabled:
                tracer.metrics.counter("qa.calibration_runs").inc()
    result = CalibrationResult(
        name=query.name, sql=query.sql, runs=cal.runs, hits=hits,
        nominal=cal.confidence, batch_index=target_batch,
        num_batches=cal.num_batches, band=band, truth=truth,
        elapsed_s=time.perf_counter() - started,
        mean_width=width_sum / cal.runs,
    )
    if tracer.metrics.enabled and not result.ok:
        tracer.metrics.counter("qa.calibration_failures").inc()
    return result


@dataclass
class CalibrationReport:
    """All queries' calibration results plus the overall verdict."""

    results: List[CalibrationResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "results": [r.to_dict() for r in self.results],
        }


def calibrate(names: Optional[List[str]] = None,
              config: Optional[CalibrationConfig] = None,
              tracer: Optional[Tracer] = None) -> CalibrationReport:
    """Calibrate the named workload queries (all of them by default)."""
    workloads = calibration_queries()
    if names is None:
        names = list(workloads)
    report = CalibrationReport()
    for name in names:
        key = name.lower()
        if key not in workloads:
            raise ValueError(
                f"unknown calibration query {name!r}; "
                f"known: {', '.join(sorted(workloads))}"
            )
        report.results.append(
            calibrate_query(workloads[key], config=config, tracer=tracer)
        )
    return report
