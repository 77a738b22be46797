"""End-to-end chaos harness: the paper workload under real worker chaos.

The supervised pool's unit tests exercise each recovery path in
isolation; this harness proves the property that matters — **chaos is
invisible in the answers**.  For each paper query it

1. runs the query serially, faults off, and fingerprints the full
   snapshot stream (every estimate, CI bound, uncertain-set size and
   accounting field, bitwise; ``repro.qa.identity.snapshot_fingerprint``);
2. re-runs it on a supervised process pool while workers are being
   SIGKILLed mid-shard, suspended past their deadlines and their results
   corrupted in flight — both through the seeded in-band injector
   (``parallel.worker_kill`` / ``worker_hang`` / ``result_corrupt``) and
   through an *external* seeded killer thread sending real ``SIGKILL`` /
   ``SIGSTOP`` to live worker PIDs;
3. asserts the chaotic stream is **bit-identical** to the serial one.

Bit-identity holds because every recovery action re-executes stateless
per-(batch, trial) shard specs: a re-dispatched, quarantined or
integrity-rejected shard recomputes exactly the same deterministic
function of its payload (see ``repro.parallel.supervisor``).

``repro chaos`` runs this and writes a JSON report; exit status 0 means
every query survived bit-identical.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import FaultsConfig, GolaConfig, ParallelConfig
from ..obs import MetricsRegistry, Tracer

#: name -> (table, generator, sql attribute) resolved lazily from
#: ``repro.workloads`` (generators import numpy-heavy modules).
WORKLOAD_QUERIES = ("sbi", "c3", "q17")


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos campaign: workload scale, fault mix, chaos sources."""

    rows: int = 24_000
    batches: int = 6
    trials: int = 24
    seed: int = 2015
    queries: Tuple[str, ...] = WORKLOAD_QUERIES
    workers: int = 4
    #: In-band seeded fault mix (drawn per shard attempt).
    kill_prob: float = 0.12
    hang_prob: float = 0.08
    hang_s: float = 2.0
    corrupt_prob: float = 0.12
    #: Supervision knobs under test.
    task_deadline_s: float = 1.0
    task_retries: int = 3
    #: Force sharding even for small chaos tables — the harness exists
    #: to exercise the pool, not to win the overhead trade-off.
    min_shard_rows: int = 128
    #: External killer: real SIGKILL/SIGSTOP against live worker PIDs
    #: from a seeded thread.
    external_killer: bool = True
    killer_interval_s: float = 0.25
    killer_suspend_prob: float = 0.5

    @classmethod
    def smoke(cls) -> "ChaosSpec":
        """The CI-sized campaign: one query, small table, short hangs."""
        return cls(rows=8_000, batches=4, trials=16, queries=("sbi",),
                   kill_prob=0.15, hang_prob=0.1, hang_s=0.8,
                   corrupt_prob=0.15, task_deadline_s=0.8,
                   killer_interval_s=0.2)


@dataclass
class QueryReport:
    """Outcome of one query's serial-vs-chaos comparison."""

    name: str
    identical: bool
    snapshots: int
    serial_fingerprint: str
    chaos_fingerprint: str
    serial_s: float
    chaos_s: float
    counters: Dict[str, int] = field(default_factory=dict)


def _workload(name: str, rows: int, seed: int):
    """Resolve a query name to (table_name, table, sql)."""
    from .. import workloads

    if name == "sbi":
        return "sessions", workloads.generate_sessions(rows, seed=seed), \
            workloads.SBI_QUERY
    if name.startswith("c"):
        return "conviva", workloads.generate_conviva(rows, seed=seed), \
            workloads.CONVIVA_QUERIES[name.upper()]
    if name.startswith("q"):
        return "tpch", workloads.generate_tpch(rows, seed=seed), \
            workloads.TPCH_QUERIES[name.upper()]
    raise ValueError(f"unknown chaos workload query {name!r}")


class _ExternalKiller:
    """A seeded thread throwing real signals at live pool workers.

    Every ``interval_s`` it picks a victim among the supervised pool's
    current worker PIDs and either SIGKILLs it (crash path) or SIGSTOPs
    it (hang path — the worker stays alive but silent until the round
    deadline has the pool abandoned, which SIGKILLs stopped processes
    too).  Seeded, so a campaign's external chaos is reproducible on one
    machine — though *when* a signal lands relative to shard execution
    is inherently racy; determinism of the answers comes from the
    supervisor, not from the chaos being replayable.
    """

    def __init__(self, pids, interval_s: float, suspend_prob: float,
                 seed: int):
        import random

        self._pids = pids  # callable -> List[int]
        self._interval_s = interval_s
        self._suspend_prob = suspend_prob
        self._rng = random.Random(f"{seed}:chaos-killer")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="chaos-killer")
        self.kills = 0
        self.suspends = 0

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            pids = self._pids()
            if not pids:
                continue
            victim = self._rng.choice(sorted(pids))
            sig = (signal.SIGSTOP
                   if self._rng.random() < self._suspend_prob
                   else signal.SIGKILL)
            try:
                os.kill(victim, sig)
            except (ProcessLookupError, PermissionError):
                continue  # already reaped / not ours anymore
            if sig == signal.SIGKILL:
                self.kills += 1
            else:
                self.suspends += 1

    def __enter__(self) -> "_ExternalKiller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)


class ChaosRunner:
    """Runs a :class:`ChaosSpec` campaign and builds its report."""

    def __init__(self, spec: Optional[ChaosSpec] = None,
                 progress=None):
        self.spec = spec if spec is not None else ChaosSpec()
        self._progress = progress if progress is not None else _silent

    def run(self) -> dict:
        spec = self.spec
        reports: List[QueryReport] = []
        kills = suspends = 0
        for name in spec.queries:
            report, killer = self._run_query(name)
            reports.append(report)
            if killer is not None:
                kills += killer.kills
                suspends += killer.suspends
        identical = all(r.identical for r in reports)
        return {
            "spec": asdict(self.spec),
            "queries": [asdict(r) for r in reports],
            "identical": identical,
            "external_kills": kills,
            "external_suspends": suspends,
        }

    # -- internals -------------------------------------------------------

    def _session(self, name: str, faults: FaultsConfig,
                 parallel: ParallelConfig, tracer=None):
        from ..core.session import GolaSession

        spec = self.spec
        table_name, table, sql = _workload(name, spec.rows, spec.seed)
        session = GolaSession(
            GolaConfig(num_batches=spec.batches,
                       bootstrap_trials=spec.trials, seed=spec.seed,
                       faults=faults, parallel=parallel),
            tracer=tracer,
        )
        session.register_table(table_name, table)
        return session.sql(sql)

    def _run_query(self, name: str
                   ) -> Tuple[QueryReport, Optional[_ExternalKiller]]:
        from ..qa.identity import snapshot_fingerprint

        spec = self.spec
        self._progress(f"[{name}] serial reference ...")
        t0 = time.monotonic()
        query = self._session(name, FaultsConfig(), ParallelConfig())
        serial_fp, serial_n = snapshot_fingerprint(query.run_online())
        serial_s = time.monotonic() - t0

        faults = FaultsConfig(
            enabled=True, seed=spec.seed,
            worker_kill_prob=spec.kill_prob,
            worker_hang_prob=spec.hang_prob,
            worker_hang_s=spec.hang_s,
            result_corrupt_prob=spec.corrupt_prob,
        )
        parallel = ParallelConfig(
            workers=spec.workers,
            task_deadline_s=spec.task_deadline_s,
            task_retries=spec.task_retries,
            min_shard_rows=spec.min_shard_rows,
        )
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        query = self._session(name, faults, parallel, tracer=tracer)
        killer = None
        if spec.external_killer:
            # The controller (and with it the supervised pool) exists
            # only once run_online is entered; resolve PIDs late.
            killer = _ExternalKiller(
                lambda: (query._controller.parallel.worker_pids()
                         if query._controller is not None else []),
                spec.killer_interval_s, spec.killer_suspend_prob,
                spec.seed,
            )
        self._progress(f"[{name}] chaos run (workers={spec.workers}, "
                       f"kill/hang/corrupt="
                       f"{spec.kill_prob}/{spec.hang_prob}/"
                       f"{spec.corrupt_prob}"
                       f"{', external killer' if killer else ''}) ...")
        t0 = time.monotonic()
        if killer is not None:
            with killer:
                chaos_fp, chaos_n = snapshot_fingerprint(
                    query.run_online()
                )
        else:
            chaos_fp, chaos_n = snapshot_fingerprint(query.run_online())
        chaos_s = time.monotonic() - t0
        counters = {
            k: v for k, v in
            tracer.metrics.snapshot().counters.items()
            if k.startswith(("parallel.", "faults."))
        }
        identical = chaos_fp == serial_fp and chaos_n == serial_n
        self._progress(
            f"[{name}] {'bit-identical' if identical else 'DIVERGED'} "
            f"({chaos_n} snapshots, serial {serial_s:.1f}s, "
            f"chaos {chaos_s:.1f}s, "
            f"restarts {counters.get('parallel.restarts', 0)})"
        )
        return QueryReport(
            name=name, identical=identical, snapshots=chaos_n,
            serial_fingerprint=serial_fp, chaos_fingerprint=chaos_fp,
            serial_s=round(serial_s, 3), chaos_s=round(chaos_s, 3),
            counters=counters,
        ), killer


def _silent(message: str) -> None:
    del message
