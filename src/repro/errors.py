"""Exception hierarchy for the repro (G-OLA) library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to distinguish front-end errors (parsing, binding) from
planning and runtime errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ParseError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so front ends can point at it.
    """

    def __init__(self, message: str, position: int = -1, text: str = ""):
        self.position = position
        self.text = text
        if position >= 0 and text:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class BindError(ReproError):
    """A name in the query could not be resolved against the catalog."""


class PlanError(ReproError):
    """The bound query cannot be turned into an executable plan."""


class UnsupportedQueryError(PlanError):
    """The query is valid SQL but outside the engine's supported class.

    Classical OLA raises this for non-monotonic (nested-aggregate) queries;
    this is exactly the gap the G-OLA execution model fills.
    """


class ExecutionError(ReproError):
    """A runtime failure while evaluating a plan."""


class ShardLostError(ExecutionError):
    """A parallel shard task was permanently lost despite supervision.

    Raised by :mod:`repro.parallel.supervisor` only when a task the
    pool failed (worker death, hang, exception or corrupt result)
    *also* failed its serial fallback on the coordinator.  A
    computation that fails on the coordinator is a defect, not a worker
    fault, so the error propagates out of the controller's step and
    fails the query (a served query ends ``failed``).
    """

    def __init__(self, task_index: int, message: str):
        self.task_index = task_index
        super().__init__(f"[shard {task_index}] {message}")


class SchemaError(ReproError):
    """Inconsistent schema: unknown column, duplicate name, type mismatch."""


class CatalogError(ReproError):
    """Unknown or duplicate table in the catalog."""


class StorageError(ReproError):
    """A colstore partition file or manifest is malformed or unreadable.

    Raised on magic/footer corruption, unknown codecs, segment length
    mismatches, and manifest/schema inconsistencies.
    """


class QueryStopped(ReproError):
    """The user stopped an online query before all batches were processed."""


class CheckpointError(ReproError):
    """A run checkpoint cannot be restored (wrong query, config, or file)."""


class AdmissionError(ReproError):
    """The serving scheduler refused a query submission.

    Raised when the run slots and the submission queue are both full (or
    the scheduler is shutting down); clients should back off and retry.
    The HTTP front end maps this to ``429 Too Many Requests``.
    """
