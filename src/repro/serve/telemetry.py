"""Serve-layer telemetry: SLO histograms, convergence streams, /metrics.

G-OLA's product is *interactivity* — time to a first usable estimate and
the rate at which its confidence interval tightens.  This module makes
both first-class observables of the serving process:

* :class:`ServeTelemetry` — the hub the scheduler calls into at submit /
  admit / snapshot / finalize boundaries.  It feeds the shared
  :class:`~repro.obs.MetricsRegistry` (cumulative log-bucket histograms:
  first-answer latency, queue wait, step seconds, convergence latency)
  plus sliding 10s/1m/5m windows for live rates and quantiles, and keeps
  one :class:`QueryTelemetry` per query.
* :class:`QueryTelemetry` — a per-query NDJSON convergence stream
  (served at ``GET /queries/<id>/telemetry``): one record per snapshot
  with CI width vs. wallclock, closed by a summary with derived
  time-to-±ε for ε ∈ {10%, 5%, 1%}.
* :func:`render_prometheus` / :func:`parse_prometheus` — the
  text-exposition (version 0.0.4) encoder behind ``GET /metrics`` and
  the strict parser used by ``repro top`` and the format tests.

Telemetry is observational only: every hook runs outside controller
code, so enabling or disabling it cannot change any query's results
(the bit-identity acceptance test pins this).
"""

from __future__ import annotations

import math
import re
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.result import OnlineSnapshot
from ..obs import MetricsRegistry, quantile_from_cumulative
from ..obs.live import WindowedHistogram
from ..obs.metrics import MetricsSnapshot
from .stream import SnapshotStream

#: Relative half-width targets for derived time-to-±ε convergence
#: metrics (±10%, ±5%, ±1% of the running estimate).
EPSILONS: Tuple[float, ...] = (0.10, 0.05, 0.01)


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


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: non-finite becomes None (NDJSON convention)."""
    value = float(value)
    return value if math.isfinite(value) else None


class QueryTelemetry:
    """One query's convergence telemetry: stream + derived metrics."""

    def __init__(self, query_id: str, stream_depth: int = 256,
                 clock=time.monotonic):
        self.query_id = query_id
        self._clock = clock
        self.created_at = clock()
        self.stream = SnapshotStream(stream_depth)
        self.first_answer_s: Optional[float] = None
        #: ε -> wallclock seconds (since submission) when the relative
        #: CI half-width first reached ±ε.
        self.time_to: Dict[float, float] = {}
        self.last_rel_width = float("nan")
        self.snapshots = 0
        self.convergence_recorded = False

    def record_snapshot(self, snapshot: OnlineSnapshot) -> dict:
        """Fold one snapshot into the stream; returns the record."""
        now = self._clock() - self.created_at
        self.snapshots += 1
        if self.first_answer_s is None:
            self.first_answer_s = now
        rel_width = relative_half_width(snapshot)
        self.last_rel_width = rel_width
        if rel_width == rel_width:
            for eps in EPSILONS:
                if rel_width <= eps and eps not in self.time_to:
                    self.time_to[eps] = now
        try:
            estimate = _finite(snapshot.estimate)
            interval = snapshot.interval
            ci_width = _finite(abs(interval.high - interval.low))
        except ValueError:
            estimate = None
            ci_width = None
        record = {
            "type": "convergence",
            "query_id": self.query_id,
            "batch": snapshot.batch_index,
            "of": snapshot.num_batches,
            "t_s": round(now, 9),
            "elapsed_s": round(snapshot.elapsed_s, 9),
            "estimate": estimate,
            "ci_width": ci_width,
            "rel_width": _finite(rel_width),
            "uncertain": snapshot.total_uncertain,
            "rows_processed": snapshot.total_rows_processed,
        }
        self.stream.publish(record)
        return record

    def summary(self, state: str, batches_done: int) -> dict:
        return {
            "type": "summary",
            "query_id": self.query_id,
            "state": state,
            "batches_done": batches_done,
            "snapshots": self.snapshots,
            "first_answer_s": (
                None if self.first_answer_s is None
                else round(self.first_answer_s, 9)
            ),
            "time_to": {
                f"{eps:g}": round(seconds, 9)
                for eps, seconds in sorted(self.time_to.items(),
                                           reverse=True)
            },
            "final_rel_width": _finite(self.last_rel_width),
            "total_s": round(self._clock() - self.created_at, 9),
        }

    def finish(self, state: str, batches_done: int) -> None:
        self.stream.close(final=self.summary(state, batches_done))


class ServeTelemetry:
    """The scheduler-facing telemetry hub.

    All hooks are cheap (one histogram observe per event) and no-ops
    when disabled; none run inside controller code, so telemetry can
    never perturb query results — only record them.
    """

    def __init__(self, metrics: MetricsRegistry, enabled: bool = True,
                 stream_depth: int = 256, clock=time.monotonic):
        self.metrics = metrics
        self.enabled = enabled
        self.stream_depth = stream_depth
        self._clock = clock
        self.windows: Dict[str, WindowedHistogram] = {
            "first_answer_seconds": WindowedHistogram(clock=clock),
            "step_seconds": WindowedHistogram(clock=clock),
            "query_seconds": WindowedHistogram(clock=clock),
        }
        self._queries: Dict[str, QueryTelemetry] = {}

    # -- scheduler hooks -------------------------------------------------

    def on_submitted(self, run) -> None:
        if not self.enabled:
            return
        self._queries[run.id] = QueryTelemetry(
            run.id, stream_depth=self.stream_depth, clock=self._clock
        )

    def on_admitted(self, run) -> None:
        if not self.enabled:
            return
        wait_s = self._clock() - run.submitted_at
        self.metrics.histogram("serve.queue_wait_seconds").observe(wait_s)

    def on_snapshot(self, run, snapshot: OnlineSnapshot,
                    step_s: float) -> None:
        if not self.enabled:
            return
        telemetry = self._queries.get(run.id)
        if telemetry is None:
            return
        first = telemetry.first_answer_s is None
        telemetry.record_snapshot(snapshot)
        if first and telemetry.first_answer_s is not None:
            seconds = telemetry.first_answer_s
            self.metrics.histogram(
                "serve.first_answer_seconds"
            ).observe(seconds)
            self.windows["first_answer_seconds"].observe(seconds)
        reached = telemetry.time_to.get(min(EPSILONS))
        if reached is not None and not telemetry.convergence_recorded:
            telemetry.convergence_recorded = True
            self.metrics.histogram(
                "serve.convergence_seconds"
            ).observe(reached)
        self.metrics.histogram("serve.step_seconds").observe(step_s)
        self.windows["step_seconds"].observe(step_s)

    def on_finalized(self, run) -> None:
        if not self.enabled:
            return
        telemetry = self._queries.get(run.id)
        if telemetry is None:
            return
        telemetry.finish(run.state, run.batches_done)
        if run.started_at is not None and run.finished_at is not None:
            self.windows["query_seconds"].observe(
                run.finished_at - run.started_at
            )

    def forget(self, qid: str) -> None:
        """Drop a finished query's telemetry (the scheduler evicted it)."""
        self._queries.pop(qid, None)

    # -- reading ---------------------------------------------------------

    def get(self, qid: str) -> QueryTelemetry:
        telemetry = self._queries.get(qid)
        if telemetry is None:
            raise KeyError(f"no telemetry for query id {qid!r}")
        return telemetry

    def subscription(self, qid: str) -> Iterator[dict]:
        """Iterate a query's convergence records, replay then live."""
        return self.get(qid).stream.subscribe()

    def window_samples(self, now: Optional[float] = None
                       ) -> List[Tuple[str, Dict[str, str], float]]:
        """Labeled gauge samples for the sliding windows.

        One ``repro_window_<stream>`` family per value stream, labeled
        ``{window="10s|1m|5m", stat="rate|mean|p50|p95|p99"}``.
        Non-finite values (empty windows) are skipped.
        """
        samples: List[Tuple[str, Dict[str, str], float]] = []
        for stream, windowed in self.windows.items():
            name = f"window_{stream}"
            for label, snap in windowed.snapshots(now=now).items():
                stats = [
                    ("rate", snap.rate),
                    ("mean", snap.mean),
                    ("p50", snap.quantile(0.50)),
                    ("p95", snap.quantile(0.95)),
                    ("p99", snap.quantile(0.99)),
                ]
                for stat, value in stats:
                    if value == value and math.isfinite(value):
                        samples.append(
                            (name, {"window": label, "stat": stat}, value)
                        )
        return samples


# -- Prometheus text exposition (version 0.0.4) --------------------------

#: Content type ``GET /metrics`` answers with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)

_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


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


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def render_prometheus(
    snapshot: MetricsSnapshot,
    extra_samples: Optional[
        List[Tuple[str, Dict[str, str], float]]
    ] = None,
) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Counters become ``repro_<name>_total`` counter families; gauges map
    directly; histograms expose their log-bucket stores as cumulative
    ``_bucket{le="..."}`` series (with the mandatory ``+Inf`` bucket)
    plus ``_sum`` and ``_count``.  ``extra_samples`` are
    ``(family, labels, value)`` gauges (the sliding-window views).
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

    extras: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for family, labels, value in (extra_samples or []):
        extras.setdefault(_prom_name(family), []).append((labels, value))
    for family in sorted(extras):
        lines.append(f"# HELP {family} Sliding-window statistic.")
        lines.append(f"# TYPE {family} gauge")
        for labels, value in extras[family]:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"'
                for k, v in sorted(labels.items())
            )
            lines.append(f"{family}{{{rendered}}} {_prom_value(value)}")

    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        family = _prom_name(name)
        lines.append(
            f"# HELP {family} Log-bucketed distribution of {name}."
        )
        lines.append(f"# TYPE {family} histogram")
        for edge, cum in hist.buckets.cumulative():
            if math.isinf(edge):
                continue  # folded into the +Inf bucket below
            lines.append(
                f'{family}_bucket{{le="{_prom_value(edge)}"}} {cum}'
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{family}_sum {_prom_value(hist.total)}")
        lines.append(f"{family}_count {hist.count}")

    return "\n".join(lines) + "\n"


class PrometheusFamily:
    """One parsed metric family: type, help and its samples."""

    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name: str, kind: Optional[str] = None,
                 help_text: Optional[str] = None):
        self.name = name
        self.type = kind
        self.help = help_text
        #: (sample name, labels, value) — sample name may carry a
        #: ``_bucket``/``_sum``/``_count`` suffix for histograms.
        self.samples: List[Tuple[str, Dict[str, str], float]] = []

    def histogram_quantile(self, q: float) -> float:
        """A quantile re-derived from the ``_bucket`` samples."""
        pairs = sorted(
            (float(labels["le"].replace("+Inf", "inf")), value)
            for name, labels, value in self.samples
            if name.endswith("_bucket") and "le" in labels
        )
        return quantile_from_cumulative(pairs, q)


def _parse_value(text: str) -> float:
    lowered = text.lower()
    if lowered in ("+inf", "inf"):
        return math.inf
    if lowered == "-inf":
        return -math.inf
    if lowered == "nan":
        return math.nan
    return float(text)  # raises ValueError on malformed numbers


def parse_prometheus(text: str) -> Dict[str, PrometheusFamily]:
    """Strictly parse Prometheus text exposition format.

    Raises ``ValueError`` on any malformed line: bad metric/label
    names, unparsable values, unknown TYPE keywords, or samples whose
    name does not belong to their most recently declared family.  The
    format tests assert ``/metrics`` output round-trips through this.
    """
    families: Dict[str, PrometheusFamily] = {}

    def family_for(sample_name: str) -> PrometheusFamily:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[:-len(suffix)] \
                if sample_name.endswith(suffix) else None
            if base and base in families \
                    and families[base].type == "histogram":
                return families[base]
        if sample_name not in families:
            families[sample_name] = PrometheusFamily(sample_name,
                                                     kind="untyped")
        return families[sample_name]

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment: legal, ignored
            keyword, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name in: {line!r}")
            family = families.get(name)
            if family is None:
                family = families[name] = PrometheusFamily(name)
            if keyword == "TYPE":
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _TYPES:
                    raise ValueError(f"unknown TYPE {kind!r} in: {line!r}")
                if family.samples:
                    raise ValueError(
                        f"TYPE after samples for {name!r}"
                    )
                family.type = kind
            else:
                family.help = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"malformed sample line: {line!r}")
        sample_name = match.group("name")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for pair in _LABEL_RE.finditer(label_text):
                if not _LABEL_NAME_RE.match(pair.group("name")):
                    raise ValueError(f"invalid label in: {line!r}")
                labels[pair.group("name")] = (
                    pair.group("value").replace(r'\"', '"')
                    .replace(r"\n", "\n").replace(r"\\", "\\")
                )
                consumed += len(pair.group(0))
            leftovers = re.sub(r"[,\s]", "", label_text)
            rebuilt = re.sub(
                r"[,\s]", "",
                "".join(m.group(0)
                        for m in _LABEL_RE.finditer(label_text)),
            )
            if leftovers != rebuilt:
                raise ValueError(f"malformed labels in: {line!r}")
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(f"malformed value in: {line!r}")
        family_for(sample_name).samples.append(
            (sample_name, labels, value)
        )
    return families
