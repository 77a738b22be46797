"""Configuration for G-OLA online execution.

A single immutable :class:`GolaConfig` object flows through the session,
controller and estimators so a run is fully described (and reproducible)
by its configuration plus the input data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional


def _parse_spec(cls, spec: str, flag: str) -> dict:
    """Kwargs for config dataclass ``cls`` from a ``key=value,...`` string.

    Values are typed from the dataclass fields (bool/int/float, else
    str; ``Optional[...]`` fields parse as their inner type).  Unknown
    keys raise ValueError naming ``flag``, the CLI option the spec was
    given to.
    """
    known = {f.name: str(f.type) for f in fields(cls)}
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in known:
            raise ValueError(
                f"unknown {flag} key {key!r}; valid keys: "
                + ", ".join(sorted(known))
            )
        value = value.strip()
        ftype = known[key]
        if "bool" in ftype:
            kwargs[key] = value.lower() in ("1", "true", "t", "yes")
        elif "int" in ftype:
            kwargs[key] = int(value)
        elif "float" in ftype:
            kwargs[key] = float(value)
        else:
            kwargs[key] = value
    return kwargs


@dataclass(frozen=True)
class FaultsConfig:
    """Deterministic fault injection, row quarantine and checkpoints
    (``repro.faults``).

    All injection is driven by per-fault RNG streams derived from
    ``seed`` (defaulting to the master :attr:`GolaConfig.seed`), so two
    runs with the same configuration inject byte-identical fault
    sequences.  With ``enabled=False`` (the default) nothing is injected
    and the engine's outputs are bit-identical to a build without the
    subsystem.  Worker faults recover bit-identically under any
    probability (at 1.0 every pool attempt fails and the supervisor's
    serial fallback runs the shard).

    Attributes:
        enabled: Master switch; when False no RNG stream is ever drawn.
        seed: Seed for the injection streams (None = the master seed).
        row_corruption_prob: Probability that a CSV input row is
            corrupted at load time (exercises the quarantine path).
        worker_kill_prob: Per-attempt probability that a pool worker is
            SIGKILLed mid-task (``parallel.worker_kill``).  The
            supervisor detects the broken pool, rebuilds it and
            re-dispatches only the lost shards.
        worker_hang_prob: Per-attempt probability that a pool worker
            hangs for ``worker_hang_s`` (``parallel.worker_hang``);
            detected at the task deadline, the pool is abandoned and the
            shard re-dispatched.
        worker_hang_s: How long an injected hang sleeps.  Keep it above
            the task deadline so the hang is detected as such.
        result_corrupt_prob: Per-attempt probability that a worker's
            partial aggregate state comes back corrupted
            (``parallel.result_corrupt``); the merge-time integrity
            check rejects it and the shard is re-executed.
        row_error_budget: Maximum tolerated fraction of quarantined rows
            per loaded file before the load is aborted with SchemaError.
        checkpoint_every: Auto-checkpoint the online run every N batches
            (0 disables; requires ``checkpoint_path``).
        checkpoint_path: Where auto-checkpoints are pickled.
    """

    enabled: bool = False
    seed: Optional[int] = None
    row_corruption_prob: float = 0.0
    worker_kill_prob: float = 0.0
    worker_hang_prob: float = 0.0
    worker_hang_s: float = 30.0
    result_corrupt_prob: float = 0.0
    row_error_budget: float = 0.05
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("row_corruption_prob", "worker_kill_prob",
                     "worker_hang_prob", "result_corrupt_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.worker_hang_s < 0.0:
            raise ValueError("worker_hang_s must be >= 0")
        if not 0.0 <= self.row_error_budget <= 1.0:
            raise ValueError("row_error_budget must be in [0, 1]")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "FaultsConfig":
        """Build a config from a ``key=value,key=value`` CLI string.

        An empty spec yields the enabled default profile; unknown keys
        raise ValueError.  Example::

            FaultsConfig.parse("worker_kill_prob=0.3,seed=7")
        """
        return cls(**{"enabled": True, **_parse_spec(cls, spec, "--faults")})


@dataclass(frozen=True)
class ParallelConfig:
    """Worker-pool knobs for ``repro.parallel``.

    Parallel execution is a pure throughput optimization: for any setting
    of these knobs (including serial) the engine's outputs are
    bit-identical, because bootstrap trial shards draw from per-(batch,
    trial) RNG streams and merge into disjoint state columns.  That is
    also why none of these fields participate in checkpoint fingerprints —
    a run checkpointed at one worker count may resume at another.

    Attributes:
        workers: Number of worker processes.  0 (default) disables the
            pool entirely and runs the classic serial path; 1 still
            exercises the full shard/merge machinery on a single worker
            (useful for testing the parallel path deterministically).
            Shard tasks run under the supervised execution layer
            (``repro.parallel.supervisor``): per-task deadlines, broken
            pool detection and rebuild, lost-shard re-dispatch, poison
            quarantine and merge-time integrity checks.  Shard payloads
            are stateless per-(batch, trial) specs, so every recovery
            re-execution is bit-identical.
        min_shard_rows: Batches smaller than this skip sharding — the
            per-task overhead would exceed the kernel time.
        task_deadline_s: A shard task still running this many seconds
            after dispatch is declared hung; the pool is abandoned
            (workers killed) and the task re-dispatched.  Closing the
            pool waits as long for the workers to exit, then kills
            them.  0 disables both bounds.
        task_retries: How many failed pool attempts (crash, hang,
            corrupt result) one shard tolerates before it is quarantined
            and run serially on the coordinator.
    """

    workers: int = 0
    min_shard_rows: int = 2048
    task_deadline_s: float = 60.0
    task_retries: int = 2

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.min_shard_rows < 0:
            raise ValueError("min_shard_rows must be >= 0")
        if self.task_deadline_s < 0:
            raise ValueError("task_deadline_s must be >= 0")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.workers > 0

    @classmethod
    def parse(cls, spec: str) -> "ParallelConfig":
        """Build a config from a ``key=value,key=value`` CLI string.

        A bare integer is shorthand for ``workers=N``.  Example::

            ParallelConfig.parse("4")
            ParallelConfig.parse("workers=4,min_shard_rows=512")
        """
        spec = spec.strip()
        if spec.isdigit():
            return cls(workers=int(spec))
        return cls(**_parse_spec(cls, spec, "--workers"))


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for the serving subsystem (``repro.serve``).

    The scheduler cooperatively interleaves mini-batch steps of many
    concurrent online queries on one scheduler thread, sharing one
    ``repro.parallel`` worker pool and the session's batch store.
    Because every query keeps its own RNG streams and block
    state, any interleaving produces snapshot streams bit-identical to
    running the same queries serially.

    Attributes:
        host: Bind address for the HTTP/JSON server.
        port: Bind port (0 picks an ephemeral port — used by tests).
        max_concurrent: Maximum queries refining at once; further
            admitted queries wait in the submission queue.
        queue_depth: Maximum queries waiting for a run slot; beyond
            this, submissions are rejected (HTTP 429 / AdmissionError).
        default_deadline_s: Deadline applied to queries submitted
            without one: a query still refining this many seconds after
            it starts is finalized with its latest snapshot (state
            ``expired``).  0 means no deadline.
        max_steps_per_turn: Cap on mini-batch steps one query may take
            per scheduler visit.  The deficit round-robin scheduler
            grants each query ``priority`` step credits per cycle, so
            with the default of 1 every runnable query advances exactly
            one batch per cycle regardless of priority backlog.
        drain_timeout_s: On graceful shutdown (SIGTERM), how long to
            wait for in-flight queries to finish refining before they
            are cancelled with their latest snapshot.  0 cancels
            immediately.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    max_concurrent: int = 4
    queue_depth: int = 16
    default_deadline_s: float = 0.0
    max_steps_per_turn: int = 1
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.default_deadline_s < 0:
            raise ValueError("default_deadline_s must be >= 0")
        if self.max_steps_per_turn < 1:
            raise ValueError("max_steps_per_turn must be >= 1")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "ServeConfig":
        """Build a config from a ``key=value,key=value`` CLI string.

        An empty spec yields the defaults; unknown keys raise
        ValueError.  Example::

            ServeConfig.parse("port=9000,max_concurrent=8")
        """
        return cls(**_parse_spec(cls, spec, "--serve"))


@dataclass(frozen=True)
class QaConfig:
    """Knobs for the QA harness (``repro.qa``): fuzzing + calibration.

    The differential fuzzer derives seeded random SQL from a generated
    catalog and executes each query through the exact batch engine, CDM,
    serial G-OLA and worker-parallel G-OLA (optionally the serve
    scheduler), failing on any structural divergence beyond float
    tolerance.  The calibration sweep replays paper queries across many
    seeds and tests empirical bootstrap-CI coverage against an exact
    binomial band around the nominal confidence.

    Attributes:
        queries: Number of random queries per fuzz sweep.
        seed: Master seed for table specs and query generation.
        rows: Fact-table row count for generated fuzz tables.
        num_batches: Mini-batch count for the online fuzz paths.
        bootstrap_trials: Bootstrap trials for the online fuzz paths.
        rtol: Relative float tolerance of the structural comparator.
        atol: Absolute float tolerance of the structural comparator.
        workers: Worker count for the parallel differential path.
        include_serve: Also run every query through the concurrent
            serving scheduler (slower; on in the nightly sweep).
        include_colstore: Also run every query's streamed table through
            a converted colstore dataset and require the snapshot
            stream to be bit-identical to the in-memory serial path.
        shrink: Minimize failing queries and write reproducer artifacts.
        artifact_dir: Where failing-query reproducers are written.
        grammar: Query-generation profile: "default" for the classic
            nested-aggregate grammar, "deep" to also generate window
            functions, DISTINCT/quantile aggregates, multi-fact
            subqueries over a second streamed fact, and NULL-heavy /
            empty-group edge biases.
        calibration_runs: Seeds per query in a calibration sweep.
        calibration_fraction: Batch fraction at which coverage is
            measured (0.5 = the mid-run snapshot).
        calibration_alpha: Significance of the binomial acceptance band.
    """

    queries: int = 50
    seed: int = 0
    rows: int = 4000
    num_batches: int = 4
    bootstrap_trials: int = 16
    rtol: float = 1e-6
    atol: float = 1e-9
    workers: int = 2
    include_serve: bool = False
    include_colstore: bool = False
    shrink: bool = True
    artifact_dir: str = "qa-artifacts"
    grammar: str = "default"
    calibration_runs: int = 100
    calibration_fraction: float = 0.5
    calibration_alpha: float = 1e-3

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError("queries must be >= 1")
        if self.rows < 64:
            raise ValueError("rows must be >= 64")
        if self.num_batches < 2:
            raise ValueError("num_batches must be >= 2")
        if self.bootstrap_trials < 2:
            raise ValueError("bootstrap_trials must be >= 2")
        if self.rtol < 0 or self.atol < 0:
            raise ValueError("tolerances must be >= 0")
        if self.grammar not in ("default", "deep"):
            raise ValueError(
                f"unknown grammar {self.grammar!r}; "
                "one of 'default', 'deep'"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.calibration_runs < 10:
            raise ValueError("calibration_runs must be >= 10")
        if not 0.0 < self.calibration_fraction <= 1.0:
            raise ValueError("calibration_fraction must be in (0, 1]")
        if not 0.0 < self.calibration_alpha < 1.0:
            raise ValueError("calibration_alpha must be in (0, 1)")

    @classmethod
    def parse(cls, spec: str) -> "QaConfig":
        """Build a config from a ``key=value,key=value`` CLI string."""
        return cls(**_parse_spec(cls, spec, "--qa"))


@dataclass(frozen=True)
class GolaConfig:
    """Tuning knobs for the G-OLA execution model.

    Attributes:
        num_batches: Number of uniform mini-batches ``k`` the input is
            randomly partitioned into.  The paper sets the batch granularity
            by how often the user wants the result refreshed.
        bootstrap_trials: Number of bootstrap trials ``B`` used for error
            estimation and for deriving variation ranges.
        epsilon_multiplier: Slack ``ε`` for variation ranges, expressed as a
            multiple of the standard deviation of the bootstrap replicas.
            The paper recommends 1.0 as a good balance between the
            recomputation probability and the uncertain-set size.
        confidence: Two-sided confidence level for reported intervals.
        seed: Master seed for every stochastic component (partition
            shuffling, bootstrap weights).  Identical seeds reproduce
            identical runs bit-for-bit.
        shuffle: Whether to randomly shuffle rows before partitioning
            (the paper's pre-processing for data whose physical order is
            correlated with query attributes).  Partition-wise randomness
            alone corresponds to ``shuffle=False``.
        trace: Enable structured tracing (``repro.obs``) with an
            in-memory aggregating sink: hierarchical spans per batch,
            block and phase, rendered by the console frontends.  Off by
            default; disabled tracing costs one attribute check per
            record site.
        trace_path: Also write every span/event as one JSON object per
            line to this path (the ``python -m repro report`` input).
            Setting a path implies tracing.
        trace_rotate_mb: Rotate the ``trace_path`` JSONL file once it
            exceeds this many megabytes, keeping two rolled backups
            (``.1``, ``.2``).  0 (the default) never rotates — the
            pre-rotation behavior.
        metrics: Collect counters/gauges/histograms in the tracer's
            :class:`~repro.obs.MetricsRegistry` even when span tracing
            is off.  Tracing implies metrics.
        faults: Deterministic fault injection and recovery policy (see
            :class:`FaultsConfig`).  Disabled by default; with injection
            off the engine's outputs are bit-identical to a faultless
            build.
        parallel: Worker-pool configuration (see :class:`ParallelConfig`).
            Serial by default; any worker count yields bit-identical
            output.
        serve: Serving-subsystem configuration (see :class:`ServeConfig`):
            the concurrent multi-query scheduler and the streaming
            result server.  Inert unless a scheduler/server is created.
        qa: QA-harness configuration (see :class:`QaConfig`): the
            differential query fuzzer and the CI-calibration sweep.
            Inert during normal execution.
    """

    num_batches: int = 10
    bootstrap_trials: int = 100
    epsilon_multiplier: float = 1.0
    confidence: float = 0.95
    seed: int = 2015
    shuffle: bool = True
    trace: bool = False
    trace_path: Optional[str] = None
    trace_rotate_mb: float = 0.0
    metrics: bool = False
    faults: FaultsConfig = field(default_factory=FaultsConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    qa: QaConfig = field(default_factory=QaConfig)

    def __post_init__(self) -> None:
        if self.num_batches < 1:
            raise ValueError("num_batches must be >= 1")
        if self.bootstrap_trials < 2:
            raise ValueError("bootstrap_trials must be >= 2 for error bars")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.epsilon_multiplier < 0.0:
            raise ValueError("epsilon_multiplier must be >= 0")
        if self.trace_rotate_mb < 0:
            raise ValueError("trace_rotate_mb must be >= 0")

    def with_options(self, **kwargs) -> "GolaConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)
