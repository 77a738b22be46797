"""Discrete-event cluster simulator.

Stands in for the paper's 100-node Spark/EC2 testbed: converts the row
volumes each execution model touches per mini-batch into wall-clock-like
latencies using the :mod:`repro.cluster.cost` model and a simulated
worker pool.  Latency *shape* — first-answer time, refinement cadence,
CDM/G-OLA ratios, the batch-engine bar — is what the paper's figures
report; absolute seconds are testbed-specific and not chased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import ClusterConfig
from ..faults import NULL_INJECTOR, FaultInjector, RetryPolicy
from ..obs import NULL_TRACER, Tracer
from .cost import broadcast_cost, task_durations
from .events import EventLoop, SlotHeap

#: A simulated task attempt is declared failed/straggling once it runs
#: this many times its nominal duration.
TASK_TIMEOUT_FACTOR = 3.0


@dataclass
class StageRecovery:
    """Recovery accounting for one simulated stage."""

    retries: int = 0
    speculations: int = 0
    timeouts: int = 0
    permanent_failures: int = 0

    def merge(self, other: "StageRecovery") -> None:
        self.retries += other.retries
        self.speculations += other.speculations
        self.timeouts += other.timeouts
        self.permanent_failures += other.permanent_failures

    @property
    def any(self) -> bool:
        return bool(self.retries or self.speculations
                    or self.permanent_failures)


@dataclass
class SimulatedBatch:
    """Latency breakdown for one mini-batch iteration."""

    batch_index: int
    stage_seconds: Dict[str, float]
    broadcast_seconds: float
    overhead_seconds: float
    retries: int = 0
    speculations: int = 0
    failed: bool = False

    @property
    def total_seconds(self) -> float:
        return (
            sum(self.stage_seconds.values())
            + self.broadcast_seconds
            + self.overhead_seconds
        )


@dataclass
class SimulatedRun:
    """A full online run: cumulative latency per batch."""

    batches: List[SimulatedBatch] = field(default_factory=list)

    @property
    def batch_seconds(self) -> List[float]:
        return [b.total_seconds for b in self.batches]

    @property
    def cumulative_seconds(self) -> List[float]:
        out = []
        total = 0.0
        for b in self.batches:
            total += b.total_seconds
            out.append(total)
        return out

    @property
    def total_seconds(self) -> float:
        return sum(self.batch_seconds)

    @property
    def total_retries(self) -> int:
        return sum(b.retries for b in self.batches)

    @property
    def total_speculations(self) -> int:
        return sum(b.speculations for b in self.batches)

    @property
    def failed_batches(self) -> List[int]:
        return [b.batch_index for b in self.batches if b.failed]


class ClusterSimulator:
    """Maps execution traces (rows per block per batch) to latencies.

    When a tracer is attached, every simulated batch/stage is recorded
    as a span with ``clock="simulated"`` under the *same names* the real
    controller uses (``batch``, ``block``), so a report can place the
    simulated cluster profile next to the measured in-process one.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 tracer: Optional[Tracer] = None,
                 injector: Optional[FaultInjector] = None):
        self.config = config or ClusterConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.retry_policy = RetryPolicy.from_faults(self.injector.config)

    def stage_seconds(self, rows: int, bootstrap: bool = True) -> float:
        """Makespan of one stage over the worker pool."""
        pool = SlotHeap(self.config.num_workers)
        durations = task_durations(rows, self.config, bootstrap)
        durations, _ = self._recovered_durations(durations)
        return pool.submit_all(durations)

    # ------------------------------------------------------------------
    # Fault-aware task execution
    # ------------------------------------------------------------------

    def _recovered_durations(self, durations: List[float]):
        """Per-task effective durations including recovery cost.

        The execution model per task attempt:

        * a *failed* attempt hangs and is detected at its timeout
          (:data:`TASK_TIMEOUT_FACTOR` × nominal duration); after an
          exponential-backoff pause the task is retried, up to
          ``max_retries`` times — beyond that the task (and hence the
          stage) fails permanently;
        * a *straggler* runs at ``straggler_factor`` × nominal; once it
          exceeds its timeout a speculative copy is launched, so the
          task completes at ``min(straggler finish, timeout + nominal)``
          (the paper's Spark testbed speculates exactly this way).

        Returns ``(effective_durations, StageRecovery)``.  Effective
        durations feed the worker pool, so simulated latency curves
        include the cost of recovery, not just clean execution.
        """
        injector = self.injector
        if not injector.enabled:
            return durations, StageRecovery()
        faults = injector.config
        policy = self.retry_policy
        n = len(durations)
        failures = injector.task_failures("cluster.task", n)
        factors = injector.straggler_factors("cluster.straggler", n)
        recovery = StageRecovery()
        effective: List[float] = []
        tracer = self.tracer
        for i, nominal in enumerate(durations):
            timeout = TASK_TIMEOUT_FACTOR * nominal
            spent = 0.0
            fails = int(failures[i])
            attempts = min(fails, policy.max_retries + 1)
            for attempt in range(attempts):
                spent += timeout
                recovery.timeouts += 1
                if attempt < policy.max_retries:
                    spent += policy.delay(attempt)
            if policy.gives_up_after(fails):
                recovery.permanent_failures += 1
                recovery.retries += policy.max_retries
                if tracer.enabled:
                    tracer.event("fault.task_failed", task=i,
                                 attempts=attempts,
                                 elapsed_s=round(spent, 9))
                effective.append(spent)
                continue
            recovery.retries += fails
            if tracer.enabled and fails:
                tracer.event("fault.task_retry", task=i, attempts=fails,
                             backoff_s=round(policy.total_delay(fails), 9))
            run = nominal * float(factors[i])
            if factors[i] > 1.0 and faults.speculate and run > timeout:
                run = min(run, timeout + nominal)
                recovery.speculations += 1
                if tracer.enabled:
                    tracer.event("fault.speculation", task=i,
                                 launched_at_s=round(timeout, 9))
            effective.append(spent + run)
        if tracer.metrics.enabled:
            metrics = tracer.metrics
            if recovery.retries:
                metrics.counter("faults.task_retries").inc(recovery.retries)
            if recovery.speculations:
                metrics.counter(
                    "faults.speculations"
                ).inc(recovery.speculations)
            if recovery.permanent_failures:
                metrics.counter(
                    "faults.task_failures"
                ).inc(recovery.permanent_failures)
        return effective, recovery

    def simulate_batch(self, batch_index: int,
                       rows_by_block: Dict[str, int],
                       bootstrap: bool = True,
                       broadcasts: Optional[int] = None) -> SimulatedBatch:
        """Latency of one mini-batch iteration.

        Lineage blocks run as consecutive stages (they are dependent:
        inner aggregates must refresh before outer blocks classify), each
        parallelized over the worker pool; aggregate values are broadcast
        between stages.  Stage sequencing runs on the event loop so stage
        starts respect the dependency chain.
        """
        loop = EventLoop()
        stage_seconds: Dict[str, float] = {}
        recovery = StageRecovery()

        def run_stage(block_ids: List[str]) -> None:
            if not block_ids:
                return
            block_id = block_ids[0]
            pool = SlotHeap(self.config.num_workers)
            durations = task_durations(
                rows_by_block[block_id], self.config, bootstrap
            )
            durations, stage_recovery = self._recovered_durations(durations)
            recovery.merge(stage_recovery)
            finish = pool.submit_all(durations)
            stage_seconds[block_id] = finish
            if stage_recovery.permanent_failures:
                # A task exhausted its retry budget: the stage — and with
                # it the whole mini-batch — fails permanently.  Latency
                # up to the detection point is still charged; downstream
                # stages never run.
                return
            loop.schedule(finish, lambda: run_stage(block_ids[1:]))

        loop.schedule(0.0, lambda: run_stage(list(rows_by_block)))
        loop.run()
        num_broadcasts = (
            broadcasts if broadcasts is not None
            else max(len(rows_by_block) - 1, 0)
        )
        failed = recovery.permanent_failures > 0
        out = SimulatedBatch(
            batch_index=batch_index,
            stage_seconds=stage_seconds,
            broadcast_seconds=broadcast_cost(num_broadcasts, self.config),
            overhead_seconds=self.config.batch_overhead_s,
            retries=recovery.retries,
            speculations=recovery.speculations,
            failed=failed,
        )
        if failed and self.tracer.enabled:
            self.tracer.event(
                "fault.batch_failed", batch_index=batch_index,
                clock="simulated",
            )
        if self.tracer.enabled:
            for block_id, seconds in stage_seconds.items():
                self.tracer.record_span(
                    "block", seconds, clock="simulated", block=block_id,
                    batch_index=batch_index,
                    rows_in=rows_by_block[block_id],
                )
            attrs = dict(
                batch_index=batch_index,
                rows_in=sum(rows_by_block.values()),
                broadcast_s=out.broadcast_seconds,
            )
            if recovery.any:
                attrs.update(retries=recovery.retries,
                             speculations=recovery.speculations)
            if failed:
                attrs["failed"] = True
            self.tracer.record_span(
                "batch", out.total_seconds, clock="simulated", **attrs
            )
        return out

    def simulate_run(self, per_batch_rows: Sequence[Dict[str, int]],
                     bootstrap: bool = True) -> SimulatedRun:
        """Latency series for a whole online run."""
        run = SimulatedRun()
        for i, rows_by_block in enumerate(per_batch_rows, start=1):
            run.batches.append(
                self.simulate_batch(i, rows_by_block, bootstrap)
            )
        return run

    def simulate_batch_engine(self, total_rows: int,
                              num_blocks: int = 1) -> float:
        """Latency of a traditional batch engine over the whole dataset.

        ``total_rows`` is the total tuple volume across ALL plan stages
        (the executor's ``rows_processed`` already counts every block's
        scan); it is split evenly over ``num_blocks`` sequential stages.
        No bootstrap overhead — batch engines report exact answers.
        """
        num_blocks = max(num_blocks, 1)
        per_stage = total_rows // num_blocks
        total = 0.0
        for _ in range(num_blocks):
            total += self.stage_seconds(per_stage, bootstrap=False)
        total += self.config.batch_overhead_s
        if self.tracer.enabled:
            self.tracer.record_span(
                "batch_engine", total, clock="simulated",
                rows_in=total_rows, blocks=num_blocks,
            )
        return total
