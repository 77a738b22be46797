"""End-to-end chaos harness: the paper workload under real worker signals.

The supervised pool's unit tests exercise each recovery path in
isolation; this harness proves the property that matters — **chaos is
invisible in the answers**.  For each paper query it

1. runs the query serially and fingerprints the full snapshot stream
   (every estimate, CI bound, uncertain-set size and accounting field,
   bitwise; ``repro.qa.identity.snapshot_fingerprint``);
2. re-runs it on a supervised process pool while, between two batches,
   a seeded schedule either SIGKILLs one live worker, SIGSTOPs every
   live worker, or leaves the pool alone;
3. asserts the chaotic stream is **bit-identical** to the serial one.

The schedule acts between batches, when every worker is idle, so a
campaign is reproducible: two runs at one seed report the same
recovery counters.  After a kill the harness waits until the pool's
executor has seen the death (its manager thread marks it broken and
exits), so the next dispatch always finds the pool broken
(``parallel.worker_lost``).  Waiting for the worker's exit alone is not
enough: a task submitted before the manager thread wakes may still run
on a surviving worker.  A stop halts every worker, and the harness waits
until each one is stopped, so no task of the next dispatch finishes
before its deadline (``parallel.task_timeouts``); with one worker
stopped, the others would answer its tasks.  When a rebuild has left
the pool without workers, the harness starts them (one no-op task
each) before it acts, so every scheduled signal has a target.

Bit-identity holds because every recovery action re-executes stateless
per-(batch, trial) shard specs: a shard the pool lost or timed out
recomputes exactly the same deterministic function of its payload on
the coordinator (see ``repro.parallel.supervisor``).

``repro chaos`` runs this and writes a JSON report; exit status 0 means
every query survived bit-identical.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import GolaConfig, ParallelConfig
from ..obs import MetricsRegistry, Tracer

#: name -> (table, generator, sql attribute) resolved lazily from
#: ``repro.workloads`` (generators import numpy-heavy modules).
WORKLOAD_QUERIES = ("sbi", "c3", "q17")


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos campaign: workload scale, pool and signal schedule."""

    rows: int = 24_000
    batches: int = 6
    trials: int = 24
    seed: int = 2015
    queries: Tuple[str, ...] = WORKLOAD_QUERIES
    workers: int = 4
    #: Between two batches: SIGKILL one live worker with ``kill_prob``,
    #: else SIGSTOP every live worker with ``stop_prob``.
    kill_prob: float = 0.3
    stop_prob: float = 0.5
    #: Supervision knob under test: how long a stopped pool holds a
    #: dispatch.
    task_deadline_s: float = 1.0
    #: Force sharding even for small chaos tables — the harness exists
    #: to exercise the pool, not to win the overhead trade-off.
    min_shard_rows: int = 128

    @classmethod
    def smoke(cls) -> "ChaosSpec":
        """The CI-sized campaign: one query, small table, short
        deadline; at the default seed its schedule kills and stops."""
        return cls(rows=8_000, batches=4, trials=16, queries=("sbi",),
                   task_deadline_s=0.8)


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
    kills: int = 0
    stops: int = 0
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


class _Schedule:
    """The seeded signals one chaos run sends between its batches."""

    def __init__(self, spec: ChaosSpec, name: str, pool):
        self.spec = spec
        self.pool = pool
        self._rng = random.Random(f"{spec.seed}:{name}:chaos")
        self.kills = 0
        self.stops = 0

    def run(self, snapshots) -> Iterator:
        """Yield ``snapshots``, acting on the pool after each one that
        another batch follows."""
        for snapshot in snapshots:
            yield snapshot
            if snapshot.batch_index < self.spec.batches:
                self._act(self._rng.random())

    def _act(self, draw: float) -> None:
        spec = self.spec
        if draw >= spec.kill_prob + spec.stop_prob:
            return
        pids = self.pool.worker_pids()
        if not pids:
            # A rebuild left the pool without workers: start them.
            self.pool.map(abs, range(self.pool.workers))
            pids = self.pool.worker_pids()
        if not pids:
            return  # this host runs no pool
        if draw < spec.kill_prob:
            # The executor's manager thread marks the executor broken
            # and exits once it sees a worker die.
            manager = self.pool._executor._executor_manager_thread
            os.kill(self._rng.choice(sorted(pids)), signal.SIGKILL)
            manager.join(timeout=30.0)
            self.kills += 1
        else:
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            for pid in pids:
                # Wait until it is stopped, leaving the state unreaped.
                os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOWAIT)
            self.stops += 1


class ChaosRunner:
    """Runs a :class:`ChaosSpec` campaign and builds its report."""

    def __init__(self, spec: Optional[ChaosSpec] = None,
                 progress=None):
        self.spec = spec if spec is not None else ChaosSpec()
        self._progress = progress if progress is not None else _silent

    def run(self) -> dict:
        reports: List[QueryReport] = [
            self._run_query(name) for name in self.spec.queries
        ]
        return {
            "spec": asdict(self.spec),
            "queries": [asdict(r) for r in reports],
            "identical": all(r.identical for r in reports),
        }

    # -- internals -------------------------------------------------------

    def _session(self, name: str, parallel: ParallelConfig, tracer=None):
        from ..core.session import GolaSession

        spec = self.spec
        table_name, table, sql = _workload(name, spec.rows, spec.seed)
        session = GolaSession(
            GolaConfig(num_batches=spec.batches,
                       bootstrap_trials=spec.trials, seed=spec.seed,
                       parallel=parallel),
            tracer=tracer,
        )
        session.register_table(table_name, table)
        return session, sql

    def _run_query(self, name: str) -> QueryReport:
        from ..qa.identity import snapshot_fingerprint

        spec = self.spec
        self._progress(f"[{name}] serial reference ...")
        t0 = time.monotonic()
        session, sql = self._session(name, ParallelConfig())
        with session:
            serial_fp, serial_n = snapshot_fingerprint(
                session.sql(sql).run_online())
        serial_s = time.monotonic() - t0

        parallel = ParallelConfig(
            workers=spec.workers,
            task_deadline_s=spec.task_deadline_s,
            min_shard_rows=spec.min_shard_rows,
        )
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        self._progress(f"[{name}] chaos run (workers={spec.workers}, "
                       f"kill/stop={spec.kill_prob}/{spec.stop_prob}) ...")
        t0 = time.monotonic()
        session, sql = self._session(name, parallel, tracer=tracer)
        with session:
            schedule = _Schedule(spec, name, session.pools.get(parallel))
            chaos_fp, chaos_n = snapshot_fingerprint(
                schedule.run(session.sql(sql).run_online()))
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
            f"chaos {chaos_s:.1f}s, {schedule.kills} kills, "
            f"{schedule.stops} stops, "
            f"restarts {counters.get('parallel.restarts', 0)})"
        )
        return QueryReport(
            name=name, identical=identical, snapshots=chaos_n,
            serial_fingerprint=serial_fp, chaos_fingerprint=chaos_fp,
            serial_s=round(serial_s, 3), chaos_s=round(chaos_s, 3),
            kills=schedule.kills, stops=schedule.stops, counters=counters,
        )


def _silent(message: str) -> None:
    del message
