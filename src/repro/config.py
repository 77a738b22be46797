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
    """Row quarantine and checkpoints (``repro.faults``).

    Worker crashes and hangs need no knob: the supervised pool recovers
    from them bit-identically whenever they happen (see
    :class:`ParallelConfig`).

    Attributes:
        row_error_budget: Maximum tolerated fraction of quarantined rows
            per CSV file :meth:`~repro.core.session.GolaSession.load_csv`
            loads before the load is aborted with SchemaError.  0 (the
            default) quarantines nothing: the load is ``read_csv``'s
            strict one.
        checkpoint_every: Auto-checkpoint the online run every N batches
            (0 disables; requires ``checkpoint_path``).
        checkpoint_path: Where auto-checkpoints are pickled.
    """

    row_error_budget: float = 0.0
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.row_error_budget <= 1.0:
            raise ValueError("row_error_budget must be in [0, 1]")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "FaultsConfig":
        """Build a config from a ``key=value,key=value`` CLI string.

        An empty spec yields the defaults; unknown keys raise
        ValueError.  Example::

            FaultsConfig.parse("checkpoint_every=2,checkpoint_path=run.ck")
        """
        return cls(**_parse_spec(cls, spec, "--faults"))


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
            (``repro.parallel.supervisor``): a task deadline, broken
            pool detection and rebuild, and merge-time integrity
            checks; a shard the pool fails runs once on the
            coordinator.  Shard payloads are stateless per-(batch,
            trial) specs, so that run is bit-identical.
        min_shard_rows: Batches smaller than this skip sharding — the
            per-task overhead would exceed the kernel time.
        task_deadline_s: A shard task still running this many seconds
            after dispatch is declared hung; the pool is abandoned
            (workers killed) and the task run on the coordinator.
            Closing the pool waits as long for the workers to exit,
            then kills them.  0 disables both bounds.
    """

    workers: int = 0
    min_shard_rows: int = 2048
    task_deadline_s: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.min_shard_rows < 0:
            raise ValueError("min_shard_rows must be >= 0")
        if self.task_deadline_s < 0:
            raise ValueError("task_deadline_s must be >= 0")

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
        faults: Row quarantine and checkpoint policy (see
            :class:`FaultsConfig`).  Neither changes a snapshot bit.
        parallel: Worker-pool configuration (see :class:`ParallelConfig`).
            Serial by default; any worker count yields bit-identical
            output.
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
