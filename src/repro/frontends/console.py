"""Text console / dashboard rendering for online queries.

The demo paper drives web dashboards; this module provides the terminal
equivalent: progress bars, error-bar sparklines and result tables that
refresh per mini-batch.  Everything returns strings so tests can assert
on output and notebooks can display it.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

import numpy as np

from ..config import GolaConfig
from ..core.result import OnlineSnapshot, format_rsd
from ..core.session import GolaSession
from ..errors import ReproError
from ..obs import AggregatingSink, Tracer
from ..storage.table import Table
from ..workloads import generate_conviva, generate_sessions


def progress_bar(fraction: float, width: int = 30) -> str:
    """A ``[#####.....]`` bar for the processed fraction."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def error_bar(low: float, value: float, high: float, width: int = 24) -> str:
    """An ASCII error bar ``|---*---|`` positioned within [low, high]."""
    if high <= low:
        return "*".center(width)
    pos = int(round((value - low) / (high - low) * (width - 1)))
    pos = min(max(pos, 0), width - 1)
    chars = ["-"] * width
    chars[0] = "|"
    chars[-1] = "|"
    chars[pos] = "*"
    return "".join(chars)


def render_table(table: Table, max_rows: int = 15) -> str:
    """An aligned textual result table."""
    return table.head_str(max_rows)


def render_snapshot(snapshot: OnlineSnapshot, max_rows: int = 10) -> str:
    """A multi-line dashboard panel for one snapshot."""
    lines = [
        f"batch {snapshot.batch_index}/{snapshot.num_batches} "
        f"{progress_bar(snapshot.fraction)} "
        f"{100 * snapshot.fraction:.0f}% of data",
    ]
    try:
        est = snapshot.estimate
        ci = snapshot.interval
        lines.append(
            f"  estimate {est:,.4f}   {ci}   "
            f"rel.stdev {format_rsd(snapshot.relative_stdev)}"
        )
        lines.append(
            f"  {error_bar(ci.low, est, ci.high)}"
        )
    except ValueError:
        lines.append(render_table(snapshot.table, max_rows))
        for name, err in snapshot.errors.items():
            if len(err.rel_stdev) and not np.isnan(err.rel_stdev).all():
                worst = float(np.nanmax(err.rel_stdev))
                lines.append(f"  {name}: worst rel.stdev {worst:.3%}")
    lines.append(
        f"  uncertain set: {snapshot.total_uncertain:,} tuples   "
        f"rows touched: {snapshot.total_rows_processed:,}"
        + (f"   RECOMPUTED: {', '.join(snapshot.rebuilds)}"
           if snapshot.rebuilds else "")
    )
    if snapshot.phase_seconds:
        lines.append(
            "  phases: " + "  ".join(
                f"{name} {seconds * 1e3:.1f}ms"
                for name, seconds in snapshot.phase_seconds.items()
            )
        )
    return "\n".join(lines)


_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 40) -> str:
    """A unicode sparkline of a numeric series (empty-safe)."""
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def render_history(snapshots, max_width: int = 40) -> str:
    """Estimate and error trajectories across an online run.

    Works for single-value queries; returns the estimate sparkline, the
    relative-stdev sparkline and the endpoints.
    """
    estimates = []
    stdevs = []
    for snapshot in snapshots:
        try:
            estimates.append(snapshot.estimate)
            rsd = snapshot.relative_stdev
        except ValueError:
            continue
        if not np.isnan(rsd):  # nan = no replica support, nothing to plot
            stdevs.append(rsd)
    if not estimates:
        return "(no scalar history)"
    lines = [
        f"estimate  {sparkline(estimates, max_width)}  "
        f"{estimates[0]:.4g} -> {estimates[-1]:.4g}",
    ]
    if stdevs:
        lines.append(
            f"rel.stdev {sparkline(stdevs, max_width)}  "
            f"{stdevs[0]:.2%} -> {stdevs[-1]:.2%}"
        )
    return "\n".join(lines)


def aggregating_sink_of(tracer: Tracer) -> Optional[AggregatingSink]:
    """The tracer's in-memory AggregatingSink, if it has one (tees ok)."""
    sink = tracer.sink
    candidates = getattr(sink, "sinks", [sink])
    for candidate in candidates:
        if isinstance(candidate, AggregatingSink):
            return candidate
    return None


def render_tracer_profile(tracer: Tracer) -> str:
    """Per-span profile + metrics the tracer accumulated in memory.

    Returns an empty string when the tracer collected nothing (no
    aggregating sink and no metrics) so callers can print
    unconditionally.
    """
    sections = []
    agg = aggregating_sink_of(tracer)
    if agg is not None and agg.spans:
        sections.append("-- span profile " + "-" * 40)
        sections.append(agg.render())
    if tracer.metrics.enabled:
        rendered = tracer.metrics.snapshot().describe()
        if rendered:
            sections.append("-- metrics " + "-" * 45)
            sections.append(rendered)
    return "\n".join(sections)


class ProgressConsole:
    """Streams snapshot panels to a file-like sink (stdout by default).

    Example::

        console = ProgressConsole()
        for snapshot in query.run_online():
            console.update(snapshot)
        console.finish()

    With a tracer attached, ``finish()`` also prints the accumulated
    span profile and metrics (the in-memory aggregating sink's view).
    """

    def __init__(self, sink: Optional[TextIO] = None, max_rows: int = 10,
                 tracer: Optional[Tracer] = None):
        self.sink = sink or sys.stdout
        self.max_rows = max_rows
        self.tracer = tracer
        self._count = 0

    def update(self, snapshot: OnlineSnapshot) -> None:
        self._count += 1
        panel = render_snapshot(snapshot, self.max_rows)
        self.sink.write(panel + "\n\n")
        self.sink.flush()

    def finish(self) -> None:
        self.sink.write(f"done after {self._count} snapshot(s)\n")
        if self.tracer is not None:
            profile = render_tracer_profile(self.tracer)
            if profile:
                self.sink.write(profile + "\n")
        self.sink.flush()


def run_console(num_rows: int) -> None:
    """Interactive online SQL over generated ``conviva`` and ``sessions``
    tables of ``num_rows`` rows each, reading queries from stdin.

    Every query runs online and prints one panel per mini-batch.
    Commands: ``\\tables`` lists the tables and their schemas,
    ``\\batch <sql>`` runs a query on the exact batch engine instead,
    and ``\\quit`` (or end of input) exits.  A query that fails prints
    ``error: ...`` and the console reads the next line.
    """
    print(f"loading {num_rows:,} rows per table ...")
    session = GolaSession(
        GolaConfig(num_batches=10, bootstrap_trials=60, seed=1)
    )
    session.register_table("conviva", generate_conviva(num_rows, seed=1))
    session.register_table("sessions", generate_sessions(num_rows, seed=1))

    print("online SQL console — try:")
    print("  SELECT AVG(play_time) FROM sessions WHERE buffer_time >"
          " (SELECT AVG(buffer_time) FROM sessions)")
    print("type \\quit to exit\n")

    while True:
        try:
            line = input("gola> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return
        if not line:
            continue
        if line in ("\\quit", "\\q", "exit", "quit"):
            return
        if line == "\\tables":
            for name in session.catalog.names():
                print(f"  {name}: {session.catalog.schema(name)}")
            continue
        batch_mode = line.startswith("\\batch")
        if batch_mode:
            line = line[len("\\batch"):].strip()
        try:
            if batch_mode:
                print(session.execute_batch(line).head_str())
                continue
            for snapshot in session.sql(line).run_online():
                print(render_snapshot(snapshot, max_rows=8))
                print()
        except ReproError as exc:
            print(f"error: {exc}")
