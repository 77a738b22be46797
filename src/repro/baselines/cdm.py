"""Classical delta maintenance (CDM) — the Figure 3(b) comparator.

Classical incremental view maintenance handles insert-only streams well
for monotonic operators, but a nested aggregate subquery breaks it: every
refinement of the inner aggregate flips earlier predicate decisions, so
the engine must re-run the affected part of the query over *all* data
seen so far (paper section 3.1).  At batch ``i`` that is ``O(|D_i|)``
work for every block consuming a changed value; across ``k`` batches,
``O(k²·n)`` total — versus G-OLA's ``O(|ΔD_i| + |U_{i-1}|)`` per batch.

This baseline actually executes that recomputation (using the exact
engine over the growing prefix) and reports per-batch row volumes and
wall seconds, the numerator of the paper's time-ratio curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


from ..config import GolaConfig
from ..engine.aggregates import UDAFRegistry
from ..engine.executor import BatchExecutor
from ..errors import UnsupportedQueryError
from ..obs import Tracer, tracer_from_config
from ..plan.lineage_blocks import lineage_blocks
from ..plan.logical import Query
from ..storage.partition import MiniBatchPartitioner
from ..storage.table import Table
from ..core.delta import parse_block


@dataclass
class CdmSnapshot:
    """One CDM iteration: the recomputed prefix answer and its cost."""

    batch_index: int
    num_batches: int
    table: Table
    rows_processed: Dict[str, int]
    elapsed_s: float

    @property
    def total_rows_processed(self) -> int:
        return sum(self.rows_processed.values())


class ClassicalDeltaMaintenance:
    """Incremental maintenance that recomputes on inner-aggregate change.

    Monotonic blocks (those consuming no uncertain values — e.g. the
    innermost aggregates themselves) are maintained incrementally at
    ``O(|ΔD_i|)``; every block that consumes a nested aggregate's value is
    recomputed over the full prefix ``D_i``, which is what the classical
    algorithms [Griffin & Libkin, Palpanas et al., DBToaster] degenerate
    to on non-monotonic queries.
    """

    def __init__(self, query: Query, tables: Dict[str, Table],
                 config: GolaConfig,
                 udafs: Optional[UDAFRegistry] = None,
                 tracer: Optional[Tracer] = None):
        if query.streamed_table is None:
            raise UnsupportedQueryError("CDM needs a streamed relation")
        self.query = query
        self.config = config
        self.tables = {k.lower(): v for k, v in tables.items()}
        self.udafs = udafs
        self.tracer = (
            tracer if tracer is not None else tracer_from_config(config)
        )
        self.streamed_table = query.streamed_table
        self.blocks = lineage_blocks(query)
        # Which blocks must recompute when inner aggregates refine.
        self._recomputing_blocks = [
            b.block_id for b in self.blocks
            if b.consumes and _scans_streamed(b, self.streamed_table)
        ]
        self._incremental_blocks = [
            b.block_id for b in self.blocks
            if not b.consumes and _scans_streamed(b, self.streamed_table)
        ]

    def run(self) -> Iterator[CdmSnapshot]:
        """Yield the exact prefix answer ``Q(D_i, k/i)`` per batch.

        Per-batch timing uses the shared :class:`repro.obs.Timer` clock
        path (identical bracketing to the G-OLA controller), so Figure
        3(b)'s CDM/G-OLA ratios compare like with like; with tracing
        enabled each iteration records a ``batch`` span tagged
        ``engine="cdm"`` comparable to the controller's batch spans.
        """
        tracer = self.tracer
        table = self.tables[self.streamed_table]
        partitioner = MiniBatchPartitioner(
            self.config.num_batches, seed=self.config.seed,
            shuffle=self.config.shuffle,
        )
        executor = BatchExecutor(self.tables, self.udafs, tracer=tracer)
        k = self.config.num_batches
        prefix_parts: List[Table] = []
        prefix_rows = 0

        with tracer.span("query", engine="cdm", num_batches=k):
            for i, batch in enumerate(partitioner.partition(table),
                                      start=1):
                with tracer.span("batch", engine="cdm", batch_index=i,
                                 rows_in=batch.num_rows) as span, \
                        tracer.timer() as timer:
                    prefix_parts.append(batch)
                    prefix_rows += batch.num_rows
                    prefix = Table.concat(prefix_parts)
                    result = executor.execute(
                        self.query, scale=k / i,
                        overrides={self.streamed_table: prefix},
                    )

                    rows: Dict[str, int] = {}
                    for block_id in self._incremental_blocks:
                        rows[block_id] = batch.num_rows
                    for block_id in self._recomputing_blocks:
                        rows[block_id] = prefix_rows
                    span.set("rows_processed", sum(rows.values()))
                yield CdmSnapshot(
                    batch_index=i, num_batches=k, table=result,
                    rows_processed=rows, elapsed_s=timer.elapsed_s,
                )


def _scans_streamed(block, streamed_table: str) -> bool:
    return parse_block(block.plan).scan.table_name == streamed_table
