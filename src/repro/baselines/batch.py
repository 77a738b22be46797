"""Traditional batch execution baseline.

The comparator marked by the vertical bar in the paper's Figure 3(a): a
query engine that only answers after processing the entire dataset.  Thin
wrapper over the exact executor that also reports the rows it read and
its wall seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..engine.aggregates import UDAFRegistry
from ..engine.executor import BatchExecutor
from ..obs import NULL_TRACER, Tracer
from ..plan.logical import Query
from ..storage.table import Table


@dataclass
class BatchRunResult:
    """The exact answer plus the work done to produce it."""

    table: Table
    rows_processed: int
    elapsed_s: float


class BatchBaseline:
    """Runs queries exactly, once, over all the data.

    Timing goes through the shared :class:`repro.obs.Timer` clock path —
    the same one the G-OLA controller and the CDM baseline use — so
    cross-engine ratios (Figure 3's comparisons) come from one clock.
    """

    def __init__(self, tables: Dict[str, Table],
                 udafs: Optional[UDAFRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.executor = BatchExecutor(tables, udafs, tracer=self.tracer)

    def run(self, query: Query) -> BatchRunResult:
        with self.tracer.span("query", engine="batch") as span, \
                self.tracer.timer() as timer:
            table = self.executor.execute(query)
            span.set("rows_processed", self.executor.last_rows_processed)
        return BatchRunResult(
            table=table,
            rows_processed=self.executor.last_rows_processed,
            elapsed_s=timer.elapsed_s,
        )
