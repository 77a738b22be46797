"""A strict Prometheus text-format parser: the oracle of the format tests.

``GET /metrics`` renders the shared metrics registry in text exposition
format (version 0.0.4).  The tests read it back with this parser, which
raises on any malformed line, and re-derive quantiles from the
cumulative buckets the way a scraper's ``histogram_quantile()`` does.
"""

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.live import interpolate_in_bucket

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


def quantile_from_cumulative(pairs: Sequence[Tuple[float, float]],
                             q: float) -> float:
    """Quantile estimate from (upper edge, cumulative count) pairs.

    The read-side twin of :meth:`~repro.obs.LogBuckets.quantile`, as a
    scraper computes it from exported cumulative buckets: the selected
    bucket's count is the step in cumulative count, and the rank is
    interpolated inside it.  Pairs must be ascending in both fields; an
    ``inf`` edge (the ``+Inf`` bucket) falls back to the previous finite
    edge so the estimate stays usable.
    """
    if not pairs:
        return float("nan")
    total = pairs[-1][1]
    if total <= 0:
        return float("nan")
    rank = math.floor(q * (total - 1))
    previous, below = pairs[0][0], 0
    for edge, running in pairs:
        if running > rank:
            if math.isinf(edge):
                return previous
            return interpolate_in_bucket(edge, rank - below,
                                         running - below)
        if not math.isinf(edge):
            previous = edge
        below = running
    return previous


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
    name does not belong to their most recently declared family.
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
