"""The public entry point: sessions and online queries.

Typical use::

    from repro import GolaSession, GolaConfig

    session = GolaSession(GolaConfig(num_batches=100, seed=7))
    session.register_table("sessions", table)
    query = session.sql(
        "SELECT AVG(play_time) FROM sessions "
        "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)"
    )
    for snapshot in query.run_online():
        print(snapshot.describe())
        if snapshot.relative_stdev < 0.02:
            query.stop()          # satisfied — the OLA contract
    truth = session.execute_batch(query)
    session.close()               # or use the session as a context manager
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterator, Optional, Union

from ..config import GolaConfig
from ..engine.aggregates import UDAFRegistry, UDAFSpec
from ..engine.executor import BatchExecutor
from ..errors import QueryStopped
from ..expr.functions import FunctionRegistry
from ..faults import FaultInjector, RowQuarantine, RunCheckpoint
from ..obs import Tracer
from ..parallel import ShardPools
from ..plan.binder import Binder
from ..plan.logical import Query
from ..plan.rewrite import rewrite_query
from ..sql.parser import parse_sql
from ..storage.catalog import Catalog
from ..storage.io import read_csv
from ..storage.table import Table
from .controller import QueryController
from .result import OnlineSnapshot
from .store import BatchStore


class OnlineQuery:
    """A bound query ready for online (or exact) execution."""

    def __init__(self, session: "GolaSession", query: Query, sql: str = ""):
        self.session = session
        self.query = query
        self.sql = sql
        self._controller: Optional[QueryController] = None

    @property
    def plan_description(self) -> str:
        """Human-readable logical plan (main plan + subquery blocks)."""
        return self.query.describe()

    def explain(self) -> str:
        """The full online execution strategy for this query.

        Shows the logical plan, each scan naming the columns it reads,
        then the compiled meta plan: lineage blocks in dependency order,
        what each consumes, how many uncertain predicates each
        classifies and the guard of each of their atoms, and which
        subqueries are static (evaluated once over dimension tables).
        """
        from .meta_plan import compile_meta_plan

        meta = compile_meta_plan(
            self.query, self.session._tables(),
            {name: self.session.catalog.is_streamed(name)
             for name in self.session.catalog},
            self.session.config, self.session.udafs,
        )
        return (
            self.query.describe(scan_columns=True)
            + "\n\nonline meta plan:\n"
            + meta.describe()
        )

    def run_online(self, config: Optional[GolaConfig] = None,
                   resume_from: Optional[Union[RunCheckpoint, str]] = None,
                   ) -> Iterator[OnlineSnapshot]:
        """Process mini-batches, yielding one snapshot per batch.

        The iterator stops early after :meth:`stop` is called (the user's
        accuracy is met) or runs to the final batch, whose snapshot equals
        the exact answer up to bootstrap error bars collapsing.

        ``resume_from`` — a :class:`~repro.faults.RunCheckpoint` (from
        :meth:`checkpoint`) or a path to a saved one — continues a prior
        run from its last checkpointed batch instead of from scratch.
        """
        if self._controller is not None:
            # A superseded run must not keep pinning its block states
            # and caches for the session's lifetime.
            self._controller.release()
        self._controller = self.session._make_controller(
            self.query, config or self.session.config
        )
        return self._controller.run(resume_from=resume_from)

    def stop(self) -> None:
        """Stop the online run after the batch currently in flight.

        The run's iterator then ends, releasing its memory (block
        states and caches, checkpoint state) — a stopped query does not
        pin memory for the session's lifetime.
        """
        if self._controller is None:
            raise QueryStopped("query is not running")
        self._controller.stop()

    def checkpoint(self) -> RunCheckpoint:
        """Checkpoint the active run's state after its latest batch.

        Feed the result (or a path it was :meth:`~repro.faults.
        RunCheckpoint.save`-d to) back via ``run_online(resume_from=...)``
        to continue where the run left off.
        """
        if self._controller is None:
            raise QueryStopped("query is not running")
        return self._controller.checkpoint()

    def run_until(self, relative_stdev: float,
                  config: Optional[GolaConfig] = None) -> OnlineSnapshot:
        """Run until the (scalar) answer reaches the target accuracy.

        Returns the first snapshot whose relative standard deviation is at
        or below the target, or the final snapshot if the target is never
        met — the S-AQP "accuracy contract" G-OLA satisfies without
        predicting a sample size (paper section 1).
        """
        last = None
        for snapshot in self.run_online(config):
            last = snapshot
            try:
                reached = snapshot.relative_stdev <= relative_stdev
            except ValueError:
                reached = False
            if reached:
                self.stop()
        if last is None:
            raise QueryStopped("no batches were processed")
        return last

    def run_to_completion(self, config: Optional[GolaConfig] = None
                          ) -> OnlineSnapshot:
        """Process every batch and return the final snapshot."""
        last = None
        for snapshot in self.run_online(config):
            last = snapshot
        if last is None:
            raise QueryStopped("no batches were processed")
        return last


class GolaSession:
    """A FluoDB-style session: catalog + registries + execution services.

    ``tracer`` injects an explicit :class:`repro.obs.Tracer` shared by
    every controller and batch executor the session creates; when None,
    each run builds one from the config's ``trace``/``trace_path``/
    ``metrics`` knobs (a no-op tracer when those are off).

    The session owns one :class:`~repro.core.store.BatchStore`: a
    streamed table's batch plan is drawn and its bootstrap weights are
    drawn by its first query, and every later one reads them (an 8-byte
    permutation slot plus ``trials`` weight bytes per streamed row; each
    read gathers the batch's columns from the registered table).

    It also owns the worker processes: :attr:`pools` starts one
    supervised shard pool per worker count on the first pooled fold
    that needs it and lends it to every later run, library and serve
    alike, so a query pays for folding, not for forking.  :meth:`close`
    (or leaving a ``with`` block) stops the workers; a
    ``weakref.finalize`` does the same when the session is garbage
    collected or the interpreter exits.  A closed session stays usable:
    its next pooled fold starts the pool again.
    """

    def __init__(self, config: Optional[GolaConfig] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config or GolaConfig()
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self.udafs = UDAFRegistry()
        self.tracer = tracer
        self.last_quarantine: Optional[RowQuarantine] = None
        self.batch_store = BatchStore()
        self.pools = ShardPools(tracer=tracer)
        weakref.finalize(self, self.pools.close)

    def close(self) -> None:
        """Stop the session's worker processes (idempotent)."""
        self.pools.close()

    def __enter__(self) -> "GolaSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- catalog ---------------------------------------------------------

    def register_table(self, name: str, table: Table,
                       streamed: bool = True, replace: bool = False) -> None:
        """Register an in-memory table.

        ``streamed=True`` marks the relation for online mini-batch
        processing (the fact table); dimension tables should pass
        ``streamed=False`` and are then read in entirety (paper
        section 2's per-relation control).
        """
        self.catalog.register(name, table, streamed=streamed, replace=replace)
        self._drop_batches(name)

    def register_colstore(self, name: str, dataset, streamed: bool = True,
                          replace: bool = False):
        """Register a converted colstore dataset (see ``repro convert``).

        ``dataset`` is a dataset directory path or an already-opened
        :class:`~repro.storage.colstore.ColstoreDataset`.  A streamed
        registration keeps the partition files on disk and decodes them
        one mini-batch per step (memory-mapped), so datasets
        larger than RAM stream through online queries; a dimension
        (``streamed=False``) registration is materialized in full when a
        query first needs it.  Returns the dataset.
        """
        from ..storage.colstore import ColstoreDataset, open_dataset

        if not isinstance(dataset, ColstoreDataset):
            dataset = open_dataset(dataset)
        self.catalog.register(name, dataset, streamed=streamed,
                              replace=replace)
        self._drop_batches(name)
        return dataset

    def load_csv(self, name: str, path, streamed: bool = True) -> Table:
        """Load a CSV file and register it under ``name``.

        With faults enabled in the session config, malformed rows are
        quarantined (up to ``faults.row_error_budget``) instead of
        aborting the load; the collected rows are kept on
        ``session.last_quarantine`` for inspection.
        """
        faults = self.config.faults
        quarantine = None
        injector = None
        if faults.enabled:
            quarantine = RowQuarantine(
                error_budget=faults.row_error_budget, label=name,
            )
            if self.tracer is not None:
                quarantine.tracer = self.tracer
            if faults.row_corruption_prob > 0.0:
                injector = FaultInjector.from_config(
                    self.config, tracer=self.tracer
                )
        table = read_csv(path, quarantine=quarantine, injector=injector)
        self.last_quarantine = quarantine
        self.register_table(name, table, streamed=streamed)
        return table

    # -- extensibility ----------------------------------------------------

    def register_udf(self, name: str, fn: Callable) -> None:
        """Register a vectorized scalar UDF callable from SQL."""
        self.functions.register(name, fn)

    def register_udaf(self, name: str, init: Callable, update: Callable,
                      merge: Callable, finalize: Callable) -> None:
        """Register a mergeable user-defined aggregate.

        ``finalize(state, scale)`` receives the multiplicity scale so
        SUM-like UDAFs can honour the multiset semantics.
        """
        self.udafs.register(
            UDAFSpec(name=name, init=init, update=update, merge=merge,
                     finalize=finalize)
        )

    # -- queries -----------------------------------------------------------

    def sql(self, text: str) -> OnlineQuery:
        """Parse, bind and optimize a SQL query against the catalog."""
        stmt = parse_sql(text)
        query = Binder(self.catalog, self.udafs).bind(stmt)
        query = rewrite_query(query)
        return OnlineQuery(self, query, sql=text)

    def execute_batch(self, query: Union[OnlineQuery, str]) -> Table:
        """Run a query exactly (the traditional batch engine)."""
        if isinstance(query, str):
            query = self.sql(query)
        # Every scanned relation, cut to the columns the query reads: a
        # view of an in-memory table, a colstore dataset decoding only
        # those columns (original row order).
        tables = {
            name: self.catalog.get(name).select(columns)
            for name, columns in query.query.scan_columns.items()
        }
        executor = BatchExecutor(
            tables, self.udafs, self.functions,
            tracer=self.tracer,
        )
        return executor.execute(query.query)

    # -- internal ----------------------------------------------------------

    def _drop_batches(self, name: str) -> None:
        """A (re-)registered table starts without partitions or weights."""
        self.batch_store.drop(
            name.lower(),
            self.tracer.metrics if self.tracer is not None else None,
        )

    def _tables(self) -> Dict[str, Table]:
        return {name: self.catalog.get(name) for name in self.catalog}

    def _make_controller(self, query: Query, config: GolaConfig,
                         parallel=None,
                         tracer: Optional[Tracer] = None) -> QueryController:
        """Build a controller; ``tracer`` lets the serving scheduler
        share one tracer across every concurrent query, and
        ``parallel`` injects an executor (tests).  The batch store and
        the worker pools are always the session's."""
        streamed = {
            name: self.catalog.is_streamed(name) for name in self.catalog
        }
        return QueryController(
            query, self._tables(), streamed, config,
            udafs=self.udafs, functions=self.functions,
            tracer=tracer if tracer is not None else self.tracer,
            parallel=parallel, batch_store=self.batch_store,
            pools=self.pools,
        )
