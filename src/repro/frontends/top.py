"""``repro top`` — a live terminal dashboard over a serving process.

Polls a running server's ``/healthz``, ``/queries`` and ``/metrics``
(re-deriving p50/p95/p99 from the exported Prometheus histogram buckets
— the same numbers any external Prometheus would compute) and renders a
refreshing text dashboard: server state and uptime, SLO latency
quantiles, sliding-window rates, and per-query convergence progress
bars.  Everything returns strings so tests assert on output.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from ..core.result import format_rsd
from ..serve.telemetry import PrometheusFamily, parse_prometheus
from .console import progress_bar

#: Histogram families summarized in the SLO panel, with display labels.
SLO_FAMILIES = (
    ("repro_serve_first_answer_seconds", "first answer"),
    ("repro_serve_convergence_seconds", "time to ±1%"),
    ("repro_serve_queue_wait_seconds", "queue wait"),
    ("repro_serve_step_seconds", "step"),
)


def fetch_json(base_url: str, path: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(base_url + path, timeout=timeout) as resp:
        return json.loads(resp.read())


def fetch_metrics(base_url: str,
                  timeout: float = 10.0) -> Dict[str, PrometheusFamily]:
    with urllib.request.urlopen(base_url + "/metrics",
                                timeout=timeout) as resp:
        return parse_prometheus(resp.read().decode("utf-8"))


def _seconds(value: float) -> str:
    if value != value:
        return "   n/a"
    if value < 1.0:
        return f"{value * 1e3:5.1f}ms"
    return f"{value:5.2f}s "


def _histogram_row(family: Optional[PrometheusFamily],
                   label: str) -> Optional[str]:
    if family is None:
        return None
    count = sum(
        value for name, labels, value in family.samples
        if name.endswith("_count")
    )
    if count <= 0:
        return None
    quantiles = [family.histogram_quantile(q) for q in (0.5, 0.95, 0.99)]
    return (f"  {label:<14} n={int(count):<7,} "
            f"p50={_seconds(quantiles[0])} p95={_seconds(quantiles[1])} "
            f"p99={_seconds(quantiles[2])}")


def _window_rows(families: Dict[str, PrometheusFamily]) -> List[str]:
    family = families.get("repro_window_first_answer_seconds")
    if family is None:
        return []
    by_window: Dict[str, Dict[str, float]] = {}
    for name, labels, value in family.samples:
        window = labels.get("window")
        stat = labels.get("stat")
        if window and stat:
            by_window.setdefault(window, {})[stat] = value
    rows = []
    for window in ("10s", "1m", "5m"):
        stats = by_window.get(window)
        if not stats:
            continue
        rate = stats.get("rate", float("nan"))
        p95 = stats.get("p95", float("nan"))
        rows.append(
            f"  last {window:<4} rate={rate:6.2f}/s  "
            f"first-answer p95={_seconds(p95)}"
        )
    return rows


def _query_rows(queries: List[dict], limit: int = 12) -> List[str]:
    active = [q for q in queries
              if q["state"] in ("queued", "running", "paused")]
    recent = [q for q in queries
              if q["state"] not in ("queued", "running", "paused")]
    rows = []
    for query in (active + list(reversed(recent)))[:limit]:
        done = query["batches_done"]
        total = max(query["num_batches"], 1)
        bar = progress_bar(done / total, width=20)
        rsd = query.get("rel_stdev")
        rsd_text = format_rsd(float("nan") if rsd is None else rsd)
        rows.append(
            f"  {query['id']:<6} {query['state']:<9} {bar} "
            f"{done:>3}/{total:<3} rsd={rsd_text}"
        )
    return rows


def render_dashboard(health: dict, queries: List[dict],
                     families: Dict[str, PrometheusFamily]) -> str:
    """One full dashboard frame as a string."""
    lines = []
    scheduler = health.get("scheduler", {})
    uptime = health.get("uptime_s")
    lines.append(
        f"repro top — state={health.get('state', '?')}"
        + (f"  up={uptime:.0f}s" if uptime is not None else "")
        + f"  running={scheduler.get('running', 0)}"
        + f"  queued={scheduler.get('queued', 0)}"
        + f"  completed={scheduler.get('completed', 0)}"
    )
    store = scheduler.get("store")
    if store:
        hits, misses = store.get("hits", 0), store.get("misses", 0)
        total = hits + misses
        ratio = hits / total if total else 0.0
        lines.append(
            f"  batch store: {store.get('entries', 0)} tables, "
            f"{hits}/{total} hits ({ratio:.0%}), "
            f"{store.get('bytes', 0) / 2 ** 20:.1f} MiB"
        )
    lines.append("")
    lines.append("latency (cumulative):")
    for name, label in SLO_FAMILIES:
        row = _histogram_row(families.get(name), label)
        if row is not None:
            lines.append(row)
    windows = _window_rows(families)
    if windows:
        lines.append("windows:")
        lines.extend(windows)
    if queries:
        lines.append("queries:")
        lines.extend(_query_rows(queries))
    return "\n".join(lines)


def run_top(base_url: str, interval_s: float = 2.0,
            once: bool = False) -> int:
    """Poll and render until interrupted; ``once`` prints one frame."""
    while True:
        try:
            health = fetch_json(base_url, "/healthz")
            queries = fetch_json(base_url, "/queries")["queries"]
            families = fetch_metrics(base_url)
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot reach {base_url}: {exc}")
            return 1
        frame = render_dashboard(health, queries, families)
        if once:
            print(frame)
            return 0
        # ANSI clear + home keeps the dashboard in place per refresh.
        print("\x1b[2J\x1b[H" + frame, flush=True)
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0
