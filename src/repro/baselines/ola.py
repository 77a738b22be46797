"""Classical online aggregation (Hellerstein, Haas & Wang 1997).

The pre-G-OLA state of the art: running aggregates over a random stream
with closed-form (CLT) error bars.  It handles exactly the monotonic
SPJA class — any nested aggregate subquery raises
:class:`~repro.errors.UnsupportedQueryError`, which is the limitation
G-OLA removes (paper sections 1 and 7).

Implemented directly on mergeable (count, sum, sum-of-squares)
accumulators rather than the bootstrap machinery, matching the original
system's estimator family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..config import GolaConfig
from ..engine.aggregates import GroupIndex, argument_values
from ..errors import UnsupportedQueryError
from ..estimate.closed_form import z_value
from ..expr.expressions import Environment, evaluate_mask
from ..plan.logical import Query
from ..storage.partition import MiniBatchPartitioner
from ..storage.table import Table
from ..core.delta import parse_block


@dataclass
class OlaSnapshot:
    """Classical OLA progress: estimates with CLT error bars per group."""

    batch_index: int
    num_batches: int
    group_keys: List
    estimates: Dict[str, np.ndarray]
    lows: Dict[str, np.ndarray]
    highs: Dict[str, np.ndarray]
    rows_processed: int

    def scalar(self, alias: Optional[str] = None) -> Tuple[float, float, float]:
        """(estimate, low, high) for a global single-aggregate query."""
        alias = alias or next(iter(self.estimates))
        return (
            float(self.estimates[alias][0]),
            float(self.lows[alias][0]),
            float(self.highs[alias][0]),
        )


class ClassicalOLA:
    """Online aggregation for monotonic SPJA queries only."""

    _SUPPORTED = {"avg", "mean", "sum", "count"}

    def __init__(self, query: Query, tables: Dict[str, Table],
                 config: GolaConfig):
        if query.subqueries:
            raise UnsupportedQueryError(
                "classical OLA supports only SPJA queries; nested aggregate "
                "subqueries are non-monotonic (this is the gap G-OLA fills)"
            )
        self.query = query
        self.config = config
        self.tables = {k.lower(): v for k, v in tables.items()}
        self.pipeline = parse_block(query.plan)
        if self.pipeline.aggregate.having is not None:
            raise UnsupportedQueryError(
                "classical OLA does not support HAVING"
            )
        for call in self.pipeline.aggregate.aggregates:
            if call.func not in self._SUPPORTED:
                raise UnsupportedQueryError(
                    f"classical OLA has no closed-form error for "
                    f"{call.func.upper()}"
                )
        self.streamed_table = self.pipeline.scan.table_name

    def run(self) -> Iterator[OlaSnapshot]:
        """Yield running estimates with CLT intervals per mini-batch."""
        table = self.tables[self.streamed_table]
        partitioner = MiniBatchPartitioner(
            self.config.num_batches, seed=self.config.seed,
            shuffle=self.config.shuffle,
        )
        env = Environment()
        agg = self.pipeline.aggregate
        index = GroupIndex()
        # Accumulators per aggregate: weighted count, sum, sum of squares.
        acc: Dict[str, List[np.ndarray]] = {
            c.alias: [np.zeros(0), np.zeros(0), np.zeros(0)]
            for c in agg.aggregates
        }
        total_population = table.num_rows
        seen = 0
        k = self.config.num_batches

        for i, batch in enumerate(partitioner.partition(table), start=1):
            piped = batch
            for kind, step in self.pipeline.certain_steps:
                if kind != "filter":
                    raise UnsupportedQueryError(
                        "classical OLA baseline supports single-relation "
                        "queries"
                    )
                piped = piped.take(evaluate_mask(step, piped, env))
            seen += batch.num_rows
            group_idx = self._group(piped, index, env)
            num_groups = max(index.num_groups, 1)
            for call in agg.aggregates:
                n_arr, s_arr, ss_arr = acc[call.alias]
                if len(n_arr) < num_groups:
                    pad = num_groups - len(n_arr)
                    n_arr = np.concatenate([n_arr, np.zeros(pad)])
                    s_arr = np.concatenate([s_arr, np.zeros(pad)])
                    ss_arr = np.concatenate([ss_arr, np.zeros(pad)])
                if piped.num_rows:
                    values = (
                        np.ones(piped.num_rows)
                        if call.arg is None
                        else argument_values(
                            call, call.arg.evaluate(piped, env), piped.num_rows
                        )
                    )
                    np.add.at(n_arr, group_idx, 1.0)
                    np.add.at(s_arr, group_idx, values)
                    np.add.at(ss_arr, group_idx, values ** 2)
                acc[call.alias] = [n_arr, s_arr, ss_arr]

            yield self._snapshot(i, k, index, acc, seen, total_population,
                                 batch.num_rows)

    def _group(self, table: Table, index: GroupIndex,
               env: Environment) -> np.ndarray:
        agg = self.pipeline.aggregate
        n = table.num_rows
        if not agg.group_by:
            index.encode(np.zeros(1, dtype=np.int64))
            return np.zeros(n, dtype=np.int64)
        raw = np.asarray(agg.group_by[0][0].evaluate(table, env))
        keys = np.broadcast_to(raw, (n,)) if raw.ndim == 0 else raw
        return index.encode(keys)

    def _snapshot(self, i: int, k: int, index: GroupIndex, acc, seen: int,
                  population: int, batch_rows: int) -> OlaSnapshot:
        z = z_value(self.config.confidence)
        scale = population / max(seen, 1)
        estimates: Dict[str, np.ndarray] = {}
        lows: Dict[str, np.ndarray] = {}
        highs: Dict[str, np.ndarray] = {}
        for call in self.pipeline.aggregate.aggregates:
            n_arr, s_arr, ss_arr = acc[call.alias]
            n_safe = np.maximum(n_arr, 1.0)
            mean = s_arr / n_safe
            var = np.maximum(ss_arr / n_safe - mean ** 2, 0.0)
            big = n_arr > 1
            var[big] *= n_arr[big] / (n_arr[big] - 1.0)
            se_mean = np.sqrt(var / n_safe)
            if call.func in ("avg", "mean"):
                est, se = mean, se_mean
            elif call.func == "sum":
                est = s_arr * scale
                se = scale * n_arr * se_mean
            else:  # count
                est = n_arr * scale
                # Binomial-style error on the selected fraction.
                p = n_arr / max(seen, 1)
                se = population * np.sqrt(
                    np.maximum(p * (1 - p), 0.0) / max(seen, 1)
                )
            estimates[call.alias] = est
            lows[call.alias] = est - z * se
            highs[call.alias] = est + z * se
        return OlaSnapshot(
            batch_index=i, num_batches=k, group_keys=index.keys(),
            estimates=estimates, lows=lows, highs=highs,
            rows_processed=batch_rows,
        )
