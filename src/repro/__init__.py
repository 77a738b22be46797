"""repro — a reproduction of G-OLA: Generalized On-Line Aggregation.

G-OLA (Zeng, Agarwal, Dave, Armbrust, Stoica — SIGMOD 2015) generalizes
online aggregation to OLAP queries with arbitrarily nested aggregates via
mini-batch execution and uncertain/deterministic delta maintenance.  This
package implements the full system in pure Python/numpy: the SQL front
end, a vectorized relational engine, poissonized-bootstrap error
estimation, the G-OLA execution model itself, the classical baselines it
is evaluated against, and the paper's workloads.

Quickstart::

    from repro import GolaSession, GolaConfig

    session = GolaSession(GolaConfig(num_batches=50))
    session.register_table("sessions", sessions_table)
    query = session.sql(
        "SELECT AVG(play_time) FROM sessions "
        "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)"
    )
    for snapshot in query.run_online():
        print(snapshot.describe())
"""

from .config import FaultsConfig, GolaConfig, ServeConfig
from .core.result import OnlineSnapshot
from .core.session import GolaSession, OnlineQuery
from .errors import (
    AdmissionError,
    BindError,
    CatalogError,
    CheckpointError,
    ExecutionError,
    ParseError,
    PlanError,
    QueryStopped,
    ReproError,
    SchemaError,
    StorageError,
    UnsupportedQueryError,
)
from .faults import RunCheckpoint
from .storage.table import Column, ColumnType, Schema, Table

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "BindError",
    "CatalogError",
    "CheckpointError",
    "Column",
    "ColumnType",
    "ExecutionError",
    "FaultsConfig",
    "GolaConfig",
    "GolaSession",
    "OnlineQuery",
    "OnlineSnapshot",
    "ParseError",
    "PlanError",
    "QueryStopped",
    "ReproError",
    "RunCheckpoint",
    "Schema",
    "ServeConfig",
    "SchemaError",
    "StorageError",
    "Table",
    "UnsupportedQueryError",
    "__version__",
]
