"""The online query compiler (paper section 4, component 1).

"The online query compiler compiles the query into a *meta query plan*,
which when plugged with different mini-batches of data, turns into a
series of mini-batch queries [where] each mini-batch query depends on
the state computed in the previous iteration, and computes delta-updates
on the results of its predecessor."

Concretely, a :class:`MetaPlan` is:

* the lineage-block partition of the bound query, in broadcast
  (dependency) order;
* one :class:`~repro.core.delta.BlockRuntime` per block over the
  *streamed* relation — these hold the iteration-to-iteration state
  (folded aggregates, uncertain caches, guards);
* the set of *static* subqueries (blocks scanning only non-streamed
  dimension tables), which the controller evaluates exactly once and
  publishes as certain slot states;
* per online block, how its error bars are computed.  Bootstrap
  replicas do two jobs: the variation ranges that uncertain predicates
  and guards read, and the final error bars.  A block whose replicas
  would do only the second — it produces and consumes no slot — and
  whose outputs are SUM/COUNT/AVG under constant affine maps and linear
  windows takes *closed-form* errors instead (:func:`closed_form_plan`):
  it folds exact moments, never reads a weight, and reports the
  variance its replicas would have had in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import GolaConfig
from ..engine.aggregates import UDAFRegistry
from ..errors import UnsupportedQueryError
from ..expr.expressions import BinaryOp, ColumnRef, Expression, Literal, \
    Negate
from ..plan.lineage_blocks import LineageBlock, lineage_blocks
from ..plan.logical import Query, SubquerySpec
from ..storage.table import Table
from .delta import BlockPipeline, BlockRuntime, parse_block

#: Aggregates whose bootstrap error bar has a closed form.
CLOSED_FORM_AGGREGATES = frozenset({"sum", "count", "avg", "mean"})
#: Window functions that are linear in their argument column.
LINEAR_WINDOWS = frozenset({"count", "sum", "avg"})


def _constant(expr: Expression) -> Optional[float]:
    """A numeric literal's value, else None."""
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)) \
            and not isinstance(expr.value, bool):
        return float(expr.value)
    return None


def _affine_term(expr: Expression, aliases) -> Optional[Tuple[str, float]]:
    """``(alias, c)`` when ``expr`` is ``c · alias + d`` for constants
    ``c``, ``d`` (built from ``a``, ``-a``, ``c·a``, ``a/c``, ``a ± c``);
    None otherwise."""
    if isinstance(expr, ColumnRef):
        return (expr.name, 1.0) if expr.name in aliases else None
    if isinstance(expr, Negate):
        term = _affine_term(expr.operand, aliases)
        return None if term is None else (term[0], -term[1])
    if not isinstance(expr, BinaryOp):
        return None
    left, right = _constant(expr.left), _constant(expr.right)
    if right is not None and expr.op in ("+", "-", "*", "/"):
        term = _affine_term(expr.left, aliases)
        if term is None or expr.op in ("+", "-"):
            return term
        if expr.op == "*":
            return term[0], term[1] * right
        # x / 0 evaluates to 0.0 (see ``_safe_divide``).
        return term[0], (term[1] / right if right != 0.0 else 0.0)
    if left is not None and expr.op in ("+", "-", "*"):
        term = _affine_term(expr.right, aliases)
        if term is None:
            return None
        factor = {"+": 1.0, "-": -1.0, "*": left}[expr.op]
        return term[0], term[1] * factor
    return None


def closed_form_plan(block: LineageBlock, pipeline: BlockPipeline,
                     ) -> Tuple[Optional[Dict[str, Tuple[str, float]]], str]:
    """Whether a block's error bars can skip the bootstrap, from lineage.

    Returns ``(columns, "")`` for a closed-form block, where ``columns``
    maps each output column that reads an aggregate to ``(alias, c)``:
    the column is ``c · alias + d``, so its variance is ``c²`` times the
    aggregate's.  Otherwise ``(None, reason)`` with the first rule that
    failed; the block keeps its replicas.
    """
    if block.produces is not None:
        return None, f"produces slot #{block.produces}"
    if block.consumes:
        return None, "consumes " + ", ".join(
            f"#{s}" for s in sorted(block.consumes))
    agg = pipeline.aggregate
    for call in agg.aggregates:
        if call.distinct:
            return None, f"{call.sql()} is DISTINCT"
        if call.func not in CLOSED_FORM_AGGREGATES:
            return None, f"{call.func.upper()} has no closed form"
    aliases = {call.alias for call in agg.aggregates}
    exprs = (
        pipeline.project.exprs if pipeline.project is not None
        else [(ColumnRef(name), name) for name in agg.schema.names]
    )
    columns: Dict[str, Tuple[str, float]] = {}
    for expr, name in exprs:
        if not expr.references() & aliases:
            continue
        term = _affine_term(expr, aliases)
        if term is None:
            return None, (f"column {name!r} is not one aggregate under a "
                          "constant affine map")
        columns[name] = term
    if pipeline.window is not None:
        for call in pipeline.window.calls:
            if call.func not in LINEAR_WINDOWS:
                return None, f"window {call.func.upper()} is not linear"
    return columns, ""


@dataclass
class MetaPlan:
    """A compiled online query, ready to be driven batch by batch."""

    query: Query
    streamed_table: str
    #: Every streamed relation some online block scans, primary (the
    #: main block's fact table) first.  Multi-fact queries stream each
    #: fact independently: same batch count, independent weight streams.
    streamed_tables: List[str]
    #: block_id -> the streamed relation that block scans.
    block_tables: Dict[str, str]
    #: Online blocks in dependency order (inner producers first, the
    #: main block last).
    online_blocks: List[LineageBlock]
    #: block_id -> its delta-maintenance runtime.
    runtimes: Dict[str, BlockRuntime]
    #: Subqueries over non-streamed tables, evaluated once, exactly.
    static_specs: List[SubquerySpec]
    #: block_id -> why the block keeps bootstrap replicas ("" for a
    #: closed-form block).
    replica_reasons: Dict[str, str]

    @property
    def replica_tables(self) -> List[str]:
        """Streamed relations some bootstrap block folds weights from;
        the others never draw a weight."""
        folded = {self.block_tables[block_id]
                  for block_id, reason in self.replica_reasons.items()
                  if reason}
        return [name for name in self.streamed_tables if name in folded]

    @property
    def main_runtime(self) -> BlockRuntime:
        return self.runtimes["main"]

    def describe(self) -> str:
        """Human-readable meta plan: blocks, dependencies, strategy."""
        lines = []
        for block in self.online_blocks:
            consumes = (
                ", ".join(f"#{s}" for s in sorted(block.consumes))
                or "nothing"
            )
            runtime = self.runtimes[block.block_id]
            uncertain = len(runtime.pipeline.uncertain_predicates)
            table = self.block_tables[block.block_id]
            lines.append(
                f"{block.block_id}: streams {table!r}, "
                f"consumes {consumes}, {uncertain} uncertain predicate(s)"
            )
            reason = self.replica_reasons[block.block_id]
            lines.append(
                f"  errors: bootstrap B={runtime.trials} ({reason})"
                if reason else "  errors: closed-form"
            )
            lines.extend(f"  atom {line}"
                         for line in runtime.guards.describe())
        for spec in self.static_specs:
            lines.append(
                f"sub#{spec.slot}: static ({spec.kind}), evaluated once"
            )
        return "\n".join(lines)


def compile_meta_plan(query: Query, tables: Dict[str, Table],
                      streamed: Dict[str, bool], config: GolaConfig,
                      udafs: Optional[UDAFRegistry] = None) -> MetaPlan:
    """Partition a bound query into its meta plan.

    Raises :class:`~repro.errors.UnsupportedQueryError` if no streamed
    relation is involved or the main query does not scan it.
    """
    if query.streamed_table is None:
        raise UnsupportedQueryError(
            "online execution needs a streamed relation; register the "
            "fact table with streamed=True"
        )
    streamed_table = query.streamed_table
    dimension_tables = {
        name: table for name, table in tables.items()
        if not streamed.get(name, False)
    }

    online_blocks: List[LineageBlock] = []
    runtimes: Dict[str, BlockRuntime] = {}
    static_specs: List[SubquerySpec] = []
    streamed_tables: List[str] = [streamed_table]
    block_tables: Dict[str, str] = {}
    replica_reasons: Dict[str, str] = {}

    for block in lineage_blocks(query):
        spec = (
            query.subqueries.get(block.produces)
            if block.produces is not None else None
        )
        pipeline = parse_block(block.plan)
        scan_name = pipeline.scan.table_name
        if scan_name != streamed_table:
            if block.produces is None:
                raise UnsupportedQueryError(
                    "the main query must scan the streamed relation"
                )
            # A subquery over a *different streamed fact* is itself an
            # online block over that relation (multi-fact join); only
            # subqueries over pure dimension tables are static.
            if not streamed.get(scan_name, False):
                if spec.plan.subquery_slots():
                    raise UnsupportedQueryError(
                        "static subqueries cannot reference streamed "
                        "subqueries"
                    )
                static_specs.append(spec)
                continue
        online_blocks.append(block)
        block_tables[block.block_id] = scan_name
        if scan_name not in streamed_tables:
            streamed_tables.append(scan_name)
        columns, replica_reasons[block.block_id] = closed_form_plan(
            block, pipeline
        )
        runtimes[block.block_id] = BlockRuntime(
            block, spec, config, dimension_tables, udafs,
            closed_form=columns,
        )

    return MetaPlan(
        query=query,
        streamed_table=streamed_table,
        streamed_tables=streamed_tables,
        block_tables=block_tables,
        online_blocks=online_blocks,
        runtimes=runtimes,
        static_specs=static_specs,
        replica_reasons=replica_reasons,
    )
