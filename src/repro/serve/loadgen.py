"""Seeded load generation against a running G-OLA server.

The serving claims this repo makes — p50/p95/p99 first-answer latency,
time-to-±ε convergence, sustained throughput — need a workload that is
*reproducible* (same seed → same arrival process, query mix, think
times and abandonment decisions) yet realistic: Poisson arrivals, a
weighted mix of the paper's workload queries, impatient clients.

:class:`LoadGenerator` precomputes the whole schedule from one
``random.Random(seed)`` before any I/O, then drives N concurrent HTTP
clients (stdlib only) against a server, measuring client-observed
latencies off each query's NDJSON snapshot stream.  Two modes:

* **open loop** (default): arrivals fire at their scheduled Poisson
  times regardless of in-flight work — the honest way to measure tail
  latency under a target rate (no coordinated omission);
* **closed loop**: each client submits, streams to completion, thinks,
  repeats — the classic interactive-analyst model.

``python -m repro loadgen`` exposes it directly.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import RetryPolicy
from ..workloads import SBI_QUERY

#: (name, sql, weight) over the tables ``repro serve`` registers.
DEFAULT_MIX: Tuple[Tuple[str, str, float], ...] = (
    ("sbi", SBI_QUERY, 3.0),
    ("avg_play", "SELECT AVG(play_time) FROM sessions", 3.0),
    ("avg_buffer", "SELECT AVG(buffer_time) FROM conviva", 2.0),
)


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible load scenario.

    Attributes:
        rate_qps: Mean Poisson arrival rate (open loop).
        clients: Concurrent client threads.
        queries: Total queries to submit.
        seed: Master seed for arrivals/mix/think/abandonment.
        open_loop: Fire at scheduled times (True) or closed loop with
            think times (False).
        think_s: Mean exponential think time between a closed-loop
            client's queries.
        abandon_prob: Probability a client abandons (cancels) its query
            once it has a first answer and ``abandon_after_s`` passed.
        abandon_after_s: Patience before an abandoning client cancels.
        target_rel_width: Client-observed convergence target ε: the
            first snapshot with CI half-width ≤ ε·|estimate| marks the
            query's convergence latency.
        num_batches: Per-query ``num_batches`` override (0 = server
            default).
        timeout_s: Per-request HTTP timeout.
        max_resubmits: How many times a rejected submission (429/503
            carrying ``Retry-After``) is resubmitted after honoring the
            server's hint; 0 gives up immediately (the old behavior).
        retry_after_cap_s: Upper bound on one honored ``Retry-After``
            wait — a load generator should not sleep through its own
            measurement window on a server that asks for minutes.
    """

    rate_qps: float = 4.0
    clients: int = 4
    queries: int = 24
    seed: int = 2015
    open_loop: bool = True
    think_s: float = 0.1
    abandon_prob: float = 0.0
    abandon_after_s: float = 2.0
    target_rel_width: float = 0.01
    num_batches: int = 0
    timeout_s: float = 120.0
    max_resubmits: int = 2
    retry_after_cap_s: float = 10.0
    mix: Tuple[Tuple[str, str, float], ...] = DEFAULT_MIX

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.queries < 1:
            raise ValueError("queries must be >= 1")
        if not self.mix:
            raise ValueError("mix must not be empty")


@dataclass
class _Arrival:
    """One precomputed query submission."""

    index: int
    at_s: float
    name: str
    sql: str
    think_s: float
    abandons: bool


@dataclass
class _Outcome:
    """Client-observed measurements for one submission."""

    index: int
    name: str
    ok: bool = False
    rejected: bool = False
    resubmits: int = 0
    abandoned: bool = False
    error: Optional[str] = None
    state: Optional[str] = None
    snapshots: int = 0
    first_answer_s: Optional[float] = None
    convergence_s: Optional[float] = None
    total_s: float = 0.0
    lateness_s: float = 0.0


def _retry_after_s(exc: "urllib.error.HTTPError") -> Optional[float]:
    """The response's ``Retry-After`` in seconds, if parseable.

    Only the delta-seconds form is supported (what this server sends);
    an HTTP-date value is ignored rather than mis-slept.
    """
    value = exc.headers.get("Retry-After") if exc.headers else None
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def _percentiles(values: Sequence[float]) -> Optional[Dict[str, float]]:
    if not values:
        return None
    ordered = sorted(values)

    def pick(q: float) -> float:
        return ordered[min(int(q * (len(ordered) - 1) + 0.5),
                           len(ordered) - 1)]

    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": pick(0.50),
        "p95": pick(0.95),
        "p99": pick(0.99),
        "max": ordered[-1],
    }


class LoadGenerator:
    """Drives one :class:`LoadSpec` against a server base URL."""

    def __init__(self, spec: LoadSpec):
        self.spec = spec

    def schedule(self) -> List[_Arrival]:
        """The deterministic submission schedule for this spec's seed."""
        spec = self.spec
        rng = random.Random(spec.seed)
        names = [name for name, _, _ in spec.mix]
        sqls = {name: sql for name, sql, _ in spec.mix}
        weights = [weight for _, _, weight in spec.mix]
        arrivals: List[_Arrival] = []
        at = 0.0
        for index in range(spec.queries):
            at += rng.expovariate(spec.rate_qps)
            name = rng.choices(names, weights=weights, k=1)[0]
            arrivals.append(_Arrival(
                index=index,
                at_s=at,
                name=name,
                sql=sqls[name],
                think_s=rng.expovariate(1.0 / spec.think_s)
                if spec.think_s > 0 else 0.0,
                abandons=rng.random() < spec.abandon_prob,
            ))
        return arrivals

    # -- execution -------------------------------------------------------

    def run(self, base_url: str) -> dict:
        """Execute the schedule; returns the aggregated report dict."""
        spec = self.spec
        arrivals = self.schedule()
        outcomes: List[_Outcome] = []
        lock = threading.Lock()
        cursor = [0]
        started = time.perf_counter()

        def next_arrival() -> Optional[_Arrival]:
            with lock:
                if cursor[0] >= len(arrivals):
                    return None
                arrival = arrivals[cursor[0]]
                cursor[0] += 1
                return arrival

        def worker() -> None:
            while True:
                arrival = next_arrival()
                if arrival is None:
                    return
                if spec.open_loop:
                    delay = arrival.at_s - (time.perf_counter() - started)
                    if delay > 0:
                        time.sleep(delay)
                outcome = self._execute(base_url, arrival, started)
                with lock:
                    outcomes.append(outcome)
                if not spec.open_loop and arrival.think_s > 0:
                    time.sleep(arrival.think_s)

        threads = [
            threading.Thread(target=worker, name=f"loadgen-{i}",
                             daemon=True)
            for i in range(spec.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        return self._report(outcomes, wall_s)

    def _execute(self, base_url: str, arrival: _Arrival,
                 started: float) -> _Outcome:
        spec = self.spec
        outcome = _Outcome(index=arrival.index, name=arrival.name)
        if spec.open_loop:
            outcome.lateness_s = max(
                0.0, (time.perf_counter() - started) - arrival.at_s
            )
        body: dict = {"sql": arrival.sql}
        if spec.num_batches > 0:
            body["config"] = {"num_batches": spec.num_batches}
        data = json.dumps(body).encode("utf-8")
        # A backpressure rejection that names its price (Retry-After)
        # is honored: wait what the server asked (capped) plus seeded
        # full jitter so retrying clients don't stampede back together,
        # then resubmit — up to the budget.
        policy = RetryPolicy()
        jitter = policy.jitter_rng(spec.seed, f"loadgen:{arrival.index}")
        t0 = time.perf_counter()
        while True:
            request = urllib.request.Request(
                base_url + "/query", method="POST", data=data,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=spec.timeout_s
                ) as resp:
                    submitted = json.loads(resp.read())
                break
            except urllib.error.HTTPError as exc:
                retry_after = _retry_after_s(exc)
                exc.close()
                if (exc.code in (429, 503) and retry_after is not None
                        and outcome.resubmits < spec.max_resubmits):
                    outcome.resubmits += 1
                    time.sleep(
                        min(retry_after, spec.retry_after_cap_s)
                        + policy.jittered_delay(outcome.resubmits - 1,
                                                jitter)
                    )
                    continue
                outcome.rejected = exc.code in (429, 503)
                outcome.error = f"HTTP {exc.code}"
                return outcome
            except OSError as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
                return outcome
        qid = submitted["id"]
        try:
            with urllib.request.urlopen(
                base_url + submitted["snapshots_url"],
                timeout=spec.timeout_s,
            ) as resp:
                for raw in resp:
                    line = raw.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    now = time.perf_counter() - t0
                    if record.get("type") == "snapshot":
                        outcome.snapshots += 1
                        if outcome.first_answer_s is None:
                            outcome.first_answer_s = now
                        if (outcome.convergence_s is None
                                and self._converged(record)):
                            outcome.convergence_s = now
                        if (arrival.abandons
                                and now >= spec.abandon_after_s
                                and outcome.first_answer_s is not None):
                            self._cancel(base_url, qid)
                            outcome.abandoned = True
                            break
                    elif record.get("type") == "end":
                        outcome.state = record.get("state")
        except OSError as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
            return outcome
        outcome.total_s = time.perf_counter() - t0
        outcome.ok = outcome.error is None
        return outcome

    def _converged(self, record: dict) -> bool:
        estimate = record.get("estimate")
        lo, hi = record.get("lo"), record.get("hi")
        if estimate in (None, 0) or lo is None or hi is None:
            return False
        rel = abs(hi - lo) / (2.0 * abs(estimate))
        return rel <= self.spec.target_rel_width

    def _resubmitted_ok(self, outcome: _Outcome) -> bool:
        return outcome.ok and outcome.resubmits > 0

    def _cancel(self, base_url: str, qid: str) -> None:
        request = urllib.request.Request(
            f"{base_url}/query/{qid}", method="DELETE"
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0):
                pass
        except (urllib.error.HTTPError, OSError):
            pass  # already finished, or the server is going away

    # -- aggregation -----------------------------------------------------

    def _report(self, outcomes: List[_Outcome], wall_s: float) -> dict:
        outcomes = sorted(outcomes, key=lambda o: o.index)
        completed = [o for o in outcomes if o.ok and not o.abandoned]
        spec = self.spec
        per_query: Dict[str, Dict[str, int]] = {}
        for outcome in outcomes:
            bucket = per_query.setdefault(
                outcome.name, {"submitted": 0, "completed": 0}
            )
            bucket["submitted"] += 1
            if outcome.ok and not outcome.abandoned:
                bucket["completed"] += 1
        return {
            "spec": {
                "rate_qps": spec.rate_qps,
                "clients": spec.clients,
                "queries": spec.queries,
                "seed": spec.seed,
                "open_loop": spec.open_loop,
                "abandon_prob": spec.abandon_prob,
                "target_rel_width": spec.target_rel_width,
                "num_batches": spec.num_batches,
                "mix": [
                    {"name": name, "weight": weight}
                    for name, _, weight in spec.mix
                ],
            },
            "wall_s": round(wall_s, 6),
            "submitted": len(outcomes),
            "completed": len(completed),
            "rejected": sum(o.rejected for o in outcomes),
            "resubmits": sum(o.resubmits for o in outcomes),
            "recovered_by_resubmit": sum(
                1 for o in outcomes if self._resubmitted_ok(o)
            ),
            "abandoned": sum(o.abandoned for o in outcomes),
            "errors": sum(
                1 for o in outcomes if o.error and not o.rejected
            ),
            "throughput_qps": (
                round(len(completed) / wall_s, 6) if wall_s > 0 else 0.0
            ),
            "first_answer_s": _percentiles([
                o.first_answer_s for o in outcomes
                if o.first_answer_s is not None
            ]),
            "convergence_s": _percentiles([
                o.convergence_s for o in outcomes
                if o.convergence_s is not None
            ]),
            "reached_target": sum(
                o.convergence_s is not None for o in outcomes
            ),
            "lateness_s": _percentiles([
                o.lateness_s for o in outcomes if spec.open_loop
            ]),
            "per_query": per_query,
        }
