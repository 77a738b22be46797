"""Turn a trace event log back into profile tables.

``python -m repro report trace.jsonl`` loads the JSONL events a
:class:`~repro.obs.sinks.JsonlSink` wrote and prints:

* a per-phase profile (span name, count, total/mean/max seconds, and
  summed row attributes),
* a per-operator profile (``op:*`` spans with rows-in/rows-out), and
* the batch totals, recovery events and event counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .sinks import SpanStats


def load_events(path: str) -> List[dict]:
    """Read one JSONL trace file into a list of record dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


@dataclass
class ProfileReport:
    """Aggregated view of one trace: spans, events, batches."""

    #: span name -> aggregate stats.
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    #: point-event name -> occurrence count.
    events: Dict[str, int] = field(default_factory=dict)
    #: per-batch accounting pulled from ``batch`` span attributes,
    #: in batch order: [{"batch_index": ..., "rows_processed": ...}].
    batches: List[dict] = field(default_factory=list)

    def span_stats(self, name: str) -> Optional[SpanStats]:
        return self.spans.get(name)


def build_profile(records: List[dict]) -> ProfileReport:
    """Fold raw trace records into a :class:`ProfileReport`."""
    report = ProfileReport()
    for record in records:
        kind = record.get("type")
        if kind == "span":
            stats = report.spans.get(record["name"])
            if stats is None:
                stats = report.spans[record["name"]] = SpanStats()
            stats.observe(record.get("elapsed_s", 0.0),
                          record.get("attrs"))
            if record["name"] == "batch":
                report.batches.append(dict(record.get("attrs") or {}))
        elif kind == "event":
            name = record["name"]
            report.events[name] = report.events.get(name, 0) + 1
    report.batches.sort(key=lambda a: a.get("batch_index", 0))
    return report


def _fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:10.1f}"
    if value >= 0.1:
        return f"{value:10.4f}"
    return f"{value * 1e3:8.3f}ms"


def render_span_table(spans: Dict[str, SpanStats],
                      events: Optional[Dict[str, int]] = None,
                      indent: str = "") -> str:
    """One aligned profile table over a name -> stats mapping."""
    if not spans:
        return indent + "(no spans)"
    name_width = max(max(len(n) for n in spans), len("span"))
    header = (
        f"{'span':<{name_width}} {'count':>7} {'total':>10} "
        f"{'mean':>10} {'max':>10} {'rows':>14}"
    )
    lines = [indent + header, indent + "-" * len(header)]
    ordered = sorted(
        spans.items(), key=lambda kv: kv[1].total_s, reverse=True
    )
    for name, stats in ordered:
        rows = stats.attr_totals.get("rows_in")
        if rows is None:
            rows = stats.attr_totals.get("rows")
        rows_text = f"{int(rows):>14,}" if rows is not None else " " * 14
        lines.append(
            indent
            + f"{name:<{name_width}} {stats.count:>7} "
            f"{_fmt_seconds(stats.total_s):>10} "
            f"{_fmt_seconds(stats.mean_s):>10} "
            f"{_fmt_seconds(stats.max_s):>10} {rows_text}"
        )
    if events:
        lines.append("")
        for name in sorted(events):
            lines.append(indent + f"event {name}: {events[name]}")
    return "\n".join(lines)


def _render_operator_table(ops: Dict[str, SpanStats],
                           indent: str = "") -> str:
    name_width = max(max(len(n) for n in ops), len("operator"))
    header = (
        f"{'operator':<{name_width}} {'count':>7} {'total':>10} "
        f"{'rows in':>14} {'rows out':>14}"
    )
    lines = [indent + header, indent + "-" * len(header)]
    ordered = sorted(
        ops.items(), key=lambda kv: kv[1].total_s, reverse=True
    )
    for name, stats in ordered:
        rows_in = int(stats.attr_totals.get("rows_in", 0))
        rows_out = int(stats.attr_totals.get("rows_out", 0))
        lines.append(
            indent
            + f"{name:<{name_width}} {stats.count:>7} "
            f"{_fmt_seconds(stats.total_s):>10} "
            f"{rows_in:>14,} {rows_out:>14,}"
        )
    return "\n".join(lines)


#: Recovery-event names in display order, with console labels.
_RECOVERY_LABELS = (
    ("fault.row_quarantined", "rows quarantined"),
    ("checkpoint.saved", "checkpoints saved"),
    ("checkpoint.resumed", "runs resumed"),
)


def render_recovery(report: ProfileReport) -> Optional[str]:
    """The recovery section, or None when the run had no faults.

    Summarizes every ``fault.*``/``checkpoint.*`` event the fault
    subsystem emitted, so what a run recovered from is visible from its
    trace alone.
    """
    recovery = {
        name: count for name, count in report.events.items()
        if name.startswith("fault.") or name.startswith("checkpoint.")
    }
    if not recovery:
        return None
    lines = ["== recovery =="]
    known = set()
    for name, label in _RECOVERY_LABELS:
        known.add(name)
        if name in recovery:
            lines.append(f"{label:<30} {recovery[name]:>7}")
    for name in sorted(recovery):
        if name not in known:
            lines.append(f"{name:<30} {recovery[name]:>7}")
    return "\n".join(lines)


def render_profile(report: ProfileReport) -> str:
    """The full multi-section profile ``python -m repro report`` prints."""
    sections = []
    if report.spans:
        ops = {n: s for n, s in report.spans.items() if n.startswith("op:")}
        others = {
            n: s for n, s in report.spans.items() if not n.startswith("op:")
        }
        sections.append("== per-phase profile ==")
        sections.append(render_span_table(others))
        if ops:
            sections.append("")
            sections.append("== per-operator profile ==")
            sections.append(_render_operator_table(ops))
        sections.append("")
    if report.batches:
        total_rows = sum(
            int(b.get("rows_processed", 0)) for b in report.batches
        )
        rebuilds = sum(int(b.get("rebuilds", 0)) for b in report.batches)
        sections.append(
            f"batches: {len(report.batches)}   rows processed: "
            f"{total_rows:,}   rebuilds: {rebuilds}"
        )
    recovery = render_recovery(report)
    if recovery is not None:
        sections.append("")
        sections.append(recovery)
    if report.events:
        sections.append("events: " + ", ".join(
            f"{name}={count}" for name, count in sorted(
                report.events.items()
            )
        ))
    return "\n".join(sections).rstrip()
