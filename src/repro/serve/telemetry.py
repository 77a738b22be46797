"""Serve-layer metric helpers: convergence width and ``/metrics`` text.

The scheduler records four cumulative histograms in the shared
:class:`~repro.obs.MetricsRegistry` (queue wait, step seconds, first
answer and ±1 % convergence latency).  This module holds the two pieces
around them:

* :func:`relative_half_width` — the CI half-width relative to the
  estimate, which decides when a query's answer has converged;
* :func:`render_prometheus` — the text-exposition (version 0.0.4)
  encoder behind ``GET /metrics``.  Windowed rates and quantiles are a
  scraper's job (``rate()`` and ``histogram_quantile()`` over the
  cumulative buckets), so none are computed here.
"""

from __future__ import annotations

import math
import re
from typing import List

from ..core.result import OnlineSnapshot
from ..obs.metrics import MetricsSnapshot


def relative_half_width(snapshot: OnlineSnapshot) -> float:
    """The CI half-width relative to the estimate, at this snapshot.

    Scalar answers use the single cell's interval; multi-cell answers
    report the *widest* finite per-cell relative half-width (the whole
    result has converged to ±ε only when its worst cell has).  NaN when
    no cell has a finite error bar.
    """
    try:
        estimate = snapshot.estimate
        interval = snapshot.interval
        if estimate == 0.0 or estimate != estimate:
            return float("nan")
        return abs(interval.high - interval.low) / (2.0 * abs(estimate))
    except ValueError:
        pass
    widest = float("nan")
    for name, err in snapshot.errors.items():
        values = snapshot.table.column(name)
        for i in range(len(err.lows)):
            center = float(values[i])
            if center == 0.0 or center != center:
                continue
            half = abs(float(err.highs[i]) - float(err.lows[i])) / 2.0
            rel = half / abs(center)
            if rel == rel and (widest != widest or rel > widest):
                widest = rel
    return widest


# -- Prometheus text exposition (version 0.0.4) --------------------------

#: Content type ``GET /metrics`` answers with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _prom_name(name: str) -> str:
    """An internal metric name as a Prometheus family name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prom_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Counters become ``repro_<name>_total`` counter families; gauges map
    directly; histograms expose their log-bucket stores as cumulative
    ``_bucket{le="..."}`` series (with the mandatory ``+Inf`` bucket)
    plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []

    for name in sorted(snapshot.counters):
        family = _prom_name(name) + "_total"
        lines.append(f"# HELP {family} Cumulative count of {name}.")
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {_prom_value(snapshot.counters[name])}")

    for name in sorted(snapshot.gauges):
        family = _prom_name(name)
        lines.append(f"# HELP {family} Current value of {name}.")
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_prom_value(snapshot.gauges[name])}")

    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        family = _prom_name(name)
        lines.append(
            f"# HELP {family} Log-bucketed distribution of {name}."
        )
        lines.append(f"# TYPE {family} histogram")
        for edge, cum in hist.buckets.cumulative():
            if edge == math.inf:
                continue  # folded into the +Inf bucket below
            lines.append(
                f'{family}_bucket{{le="{_prom_value(edge)}"}} {cum}'
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{family}_sum {_prom_value(hist.total)}")
        lines.append(f"{family}_count {hist.count}")

    return "\n".join(lines) + "\n"
