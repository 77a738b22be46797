"""``serve_mix``: the benchmark's own closed-loop HTTP client and trial.

Not ``repro.serve.loadgen``: a change under ``src/`` must not be able
to move the measurement.  One client process, two connections at a
time, no think time (each analyst waits for an answer before asking the
next question; two clients are ``nproc`` on the reference host), a
seeded order of queries, and every NDJSON stream read to its ``end``
record.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import checks
import stats
from workloads import QUERIES, TARGET_RSD, QuerySpec

HOST_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "serve_host.py")
CLIENTS = 2
MIX = ("SBI", "AVGP", "C2", "C3", "GEO")
#: The tables and the bootstrap come from this one seed, the first from
#: 100 up on which no query of the mix rebuilds.  On a seed on which C3
#: does (101: at its last batch), its rebuild holds the scheduler for
#: 0.1 s, the first answer of whichever query waits behind it takes
#: twice as long as any other, and this happens to two or three queries
#: of a pass, which is the tenth that decides the 90th percentile: over
#: ten orders of the mix ``ttfa_p90_s`` was 0.05 s or 0.10 s, a spread
#: of 53 %.  Rebuilds are measured by ``nested_mem`` and
#: ``fold_dispatch``.
DATA_SEED = 103


@dataclass(frozen=True)
class ServeSizes:
    rows: int = 50_000
    batches: int = 10
    trials: int = 50
    #: Times each kind of query occurs in a pass: 30 queries.
    each: int = 6

    def smoke(self, divisor: int) -> "ServeSizes":
        return dataclasses.replace(
            self, rows=max(self.rows // divisor, 1), each=2)


@dataclass
class HttpRun:
    name: str
    submit_s: float = 0.0
    ttfa_s: float = 0.0
    tta_s: float = 0.0
    total_s: float = 0.0
    stream_bytes: int = 0
    #: Snapshot records as read; digested after the timed window.
    records: List[dict] = field(default_factory=list)
    state: Optional[str] = None
    error: Optional[str] = None


class Host:
    """A ``serve_host.py`` child: started, asked for metrics, stopped."""

    def __init__(self, sizes: ServeSizes, trace: bool):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, HOST_SCRIPT,
             "--rows", str(sizes.rows), "--batches", str(sizes.batches),
             "--trials", str(sizes.trials), "--seed", str(DATA_SEED),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError("serve_host.py exited before serving "
                               f"(code {self.proc.returncode})")
        self.ready_s = time.perf_counter() - started
        address = urlsplit(json.loads(line)["url"])
        self.address = (address.hostname, address.port)

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> float:
        """End of file on stdin stops the server; returns its peak RSS."""
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"serve_host.py exited with {self.proc.returncode}")
        return float(json.loads(out.splitlines()[-1])["peak_rss_mb"])

    def __enter__(self) -> "Host":
        return self

    def __exit__(self, *exc) -> None:
        """No server outlives the trial, whatever happened in it."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def http_query(address, spec: QuerySpec) -> HttpRun:
    """POST the SQL, read the snapshot stream to its ``end`` record."""
    run = HttpRun(spec.name)
    clock = time.perf_counter
    t0 = clock()
    try:
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            conn.request("POST", "/query",
                         body=json.dumps({"sql": spec.sql}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        run.submit_s = clock() - t0
        if response.status != 201:
            run.error = f"POST /query: HTTP {response.status}"
            return run
        path = json.loads(body)["snapshots_url"]
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                run.error = f"GET {path}: HTTP {response.status}"
                return run
            for line in response:
                now = clock()
                run.stream_bytes += len(line)
                record = json.loads(line)
                if record["type"] == "end":
                    run.state = record["state"]
                    break
                if not run.records:
                    run.ttfa_s = now - t0
                rsd = record.get("rel_stdev")
                if (run.tta_s == 0.0 and rsd is not None
                        and rsd <= TARGET_RSD):
                    run.tta_s = now - t0
                run.records.append(record)
        finally:
            conn.close()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        run.error = f"{type(exc).__name__}: {exc}"
    run.total_s = clock() - t0
    if run.tta_s == 0.0:
        run.tta_s = run.total_s  # never got there: its full time
    return run


def run_mix(address, names: List[str]) -> Tuple[float, List[HttpRun]]:
    """One pass: CLIENTS connections drain the list; wall-clock and runs."""
    pending: "queue.Queue[str]" = queue.Queue()
    for name in names:
        pending.put(name)
    runs: List[HttpRun] = []

    def client() -> None:
        while True:
            try:
                name = pending.get_nowait()
            except queue.Empty:
                return
            runs.append(http_query(address, QUERIES[name]))

    started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, runs


def _window(address, sizes: ServeSizes, order: random.Random,
            seconds: float):
    passes = []
    started = time.perf_counter()
    while True:
        # The same share of every kind whatever the seed; the seed
        # orders them, anew for every pass.
        names = list(MIX) * sizes.each
        order.shuffle(names)
        passes.append(run_mix(address, names))
        # Another pass is measured if more than half of it fits.
        spent = time.perf_counter() - started
        if spent + 0.5 * spent / len(passes) >= seconds:
            return passes


def _digests(run: HttpRun) -> List[str]:
    return [checks.record_digest(record) for record in run.records]


def _failures(passes, reference: Dict[str, List[str]]) -> List[str]:
    out = []
    for index, (_, runs) in enumerate(passes):
        for run in runs:
            where = f"pass {index} {run.name}"
            if run.error is not None:
                out.append(f"{where}: {run.error}")
            elif run.state != "done":
                out.append(f"{where}: ended in state {run.state!r}")
            elif _digests(run) != reference[run.name]:
                out.append(f"{where}: stream digest differs from the "
                           "warm-up's")
    return out


def _serve(host: Host, sizes: ServeSizes, order: random.Random,
           seconds: float):
    """Warm a fresh host up, then run timed passes against it."""
    reference: Dict[str, List[str]] = {}
    for name in MIX:
        run = http_query(host.address, QUERIES[name])
        if run.error is not None or run.state != "done":
            raise RuntimeError(f"warm-up {name}: {run.error or run.state}")
        reference[name] = _digests(run)
    passes = _window(host.address, sizes, order, seconds)
    return passes, _failures(passes, reference)


def _pass_metrics(seconds: float, runs: List[HttpRun]) -> Dict[str, float]:
    """The end-to-end timings of one pass.  The run reports, of each,
    the median over its passes."""
    ok = [r for r in runs if r.error is None] or runs
    ttfa = [r.ttfa_s for r in ok]
    return {
        "pass_s": seconds,
        "ttfa_p50_s": stats.median(ttfa),
        "ttfa_p90_s": stats.percentile(ttfa, 90),
        "tta_p50_s": stats.median(
            [r.tta_s for r in ok if QUERIES[r.name].scalar]),
    }


def run_trial(sizes: ServeSizes, seed: int, seconds: float,
              trace: bool) -> dict:
    order = random.Random(seed)
    with Host(sizes, trace=False) as host:
        passes, failures = _serve(host, sizes, order, seconds)
        t0 = time.perf_counter()
        served = host.get_json("/metrics.json")
        scrape_s = time.perf_counter() - t0
        rss_mb = host.stop()
    runs = [run for _, group in passes for run in group]
    result = {
        "attempted": len(runs), "failed": len(failures),
        "failures": failures[:20], "pass_count": len(passes),
    }
    if not trace:
        result["setup_s"] = host.ready_s
        result["peak_rss_mb"] = rss_mb
        result["passes"] = [_pass_metrics(seconds_, group)
                            for seconds_, group in passes]
        return result

    with Host(sizes, trace=True) as traced_host:
        traced, more = _serve(traced_host, sizes, order, seconds / 3)
        traced_host.stop()
    result["attempted"] += sum(len(group) for _, group in traced)
    result["pass_count"] += len(traced)
    result["failed"] += len(more)
    result["failures"] = (failures + more)[:20]
    ok = [run for run in runs if run.error is None]
    pass_s = stats.median([seconds_ for seconds_, _ in passes])
    counters = served["counters"]
    histograms = served["histograms"]
    hits = counters.get("serve.scan_cache_hits", 0)
    misses = counters.get("serve.scan_cache_misses", 0)
    layer = {
        "serve.submit_p50_s": stats.median([r.submit_s for r in ok]),
        "serve.queue_wait_p50_s":
            histograms["serve.queue_wait_seconds"]["p50"],
        "serve.step_p50_s": histograms["serve.step_seconds"]["p50"],
        "serve.scan_cache_hit_ratio": hits / max(hits + misses, 1),
        "serve.stream_bytes_per_query":
            stats.median([r.stream_bytes for r in ok]),
        "serve.snapshots": counters.get("serve.snapshots", 0),
        "serve.rejected": counters.get("scheduler.rejected", 0),
        "serve.metrics_scrape_s": scrape_s,
        "obs.trace_overhead_frac":
            stats.median([s for s, _ in traced]) / pass_s - 1.0,
    }
    for name in MIX:
        layer[f"q.{name}.online_s"] = stats.median(
            [r.total_s for r in ok if r.name == name])
    result["layers"] = layer
    return result
