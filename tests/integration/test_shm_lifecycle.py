"""Shared-memory segment lifecycle: no ``/dev/shm`` leaks, ever.

ISSUE 8's lifecycle contract, probed by segment name (the registry
records every name it ever created, and :func:`segment_exists` asks the
OS): every fold releases its batch's segment before it returns — also
when a shard is lost for good — and segments are unlinked after a
session run stops early and after SIGKILL-induced supervised-pool
rebuilds, whose lost shards run on the coordinator and read the batch's
weights from the segment its lease still holds.
"""

import numpy as np
import pytest

from repro import FaultsConfig, GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.core.store import BatchStore
from repro.engine.aggregates import AvgState, SumState
from repro.errors import ShardLostError
from repro.estimate.bootstrap import PoissonWeightSource
from repro.faults import FaultInjector
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import ParallelExecutor, segment_exists
from repro.parallel.shm import attached_segments, detach_all
from repro.workloads import SBI_QUERY, generate_sessions

CONFIG = ParallelConfig(workers=2, min_shard_rows=1)


def _fold_batches(executor, batches=3, n=4000, trials=12, store=None,
                  tracer=None):
    rng = np.random.default_rng(8)
    gi = rng.integers(0, 7, n)
    values = {"s": rng.normal(size=n), "a": rng.normal(size=n)}
    states = {"s": SumState(trials), "a": AvgState(trials)}
    source = PoissonWeightSource(trials, 99, label="shm-life",
                                 tracer=tracer, store=store)
    for _ in range(batches):
        executor.fold_boot_states(states, gi, values,
                                  source.batch_weights(n))
    return states


def _serial_reference(**kw):
    executor = ParallelExecutor(ParallelConfig())
    try:
        states = _fold_batches(executor, **kw)
    finally:
        executor.close()
    return {k: s.finalize() for k, s in states.items()}


def _unrunnable_shard(payload):
    raise RuntimeError("this shard cannot be folded anywhere")


class TestSegmentsNeverLeak:
    def test_unlinked_after_drain_and_release(self):
        executor = ParallelExecutor(CONFIG)
        try:
            _fold_batches(executor)
            registry = executor.shm_registry
            assert registry is not None and registry.created
            assert registry.live_segments() == []
            assert not any(segment_exists(n) for n in registry.created)
        finally:
            executor.close()

    def test_lease_released_when_each_fold_returns(self, monkeypatch):
        # No fold outlives its call, so no lease does either: through a
        # whole session run the registry is empty right after every
        # fold_boot_states returns.
        fold = ParallelExecutor.fold_boot_states
        live = []

        def recording(executor, *args, **kwargs):
            fold(executor, *args, **kwargs)
            registry = executor.shm_registry
            if registry is not None:
                live.append(registry.live_segments())

        monkeypatch.setattr(ParallelExecutor, "fold_boot_states", recording)
        session = GolaSession(
            GolaConfig(num_batches=4, bootstrap_trials=16, seed=3,
                       parallel=CONFIG)
        )
        session.register_table("sessions", generate_sessions(4000, seed=5))
        list(session.sql(SBI_QUERY).run_online())
        assert live and all(segments == [] for segments in live)
        monkeypatch.setattr(ParallelExecutor, "fold_boot_states", fold)

        # A shard that raises in the pool and again in the quarantine
        # fallback is lost for good; its batch's segment is unlinked by
        # the time ShardLostError reaches the caller.
        monkeypatch.setattr("repro.parallel.executor.run_fold_shard",
                            _unrunnable_shard)
        executor = ParallelExecutor(CONFIG)
        try:
            with pytest.raises(ShardLostError):
                _fold_batches(executor, batches=1)
            registry = executor.shm_registry
            assert len(registry.created) == 1
            assert registry.live_segments() == []
            assert not segment_exists(registry.created[0])
        finally:
            executor.close()

    def test_unlinked_after_session_stops_early(self):
        session = GolaSession(
            GolaConfig(num_batches=6, bootstrap_trials=16, seed=3,
                       parallel=CONFIG)
        )
        session.register_table(
            "sessions", generate_sessions(12_000, seed=5)
        )
        query = session.sql(SBI_QUERY)
        run = query.run_online()
        next(run)
        registry = query._controller.parallel.shm_registry
        assert registry is not None and registry.created
        query.stop()
        assert list(run) == []  # stop takes effect after the batch
        created = list(registry.created)
        assert not any(segment_exists(n) for n in created)

    def test_unlinked_after_sigkill_pool_rebuilds(self):
        # Workers are SIGKILLed mid-fold; the supervisor abandons and
        # rebuilds the pool and re-dispatches lost shards against the
        # still-live segments.  Results stay bit-identical and every
        # segment is still unlinked afterwards.
        injector = FaultInjector(
            FaultsConfig(enabled=True, seed=11, worker_kill_prob=0.5),
            master_seed=11,
        )
        executor = ParallelExecutor(
            ParallelConfig(workers=2, min_shard_rows=1,
                           task_deadline_s=30.0),
            injector=injector,
        )
        try:
            states = _fold_batches(executor)
            registry = executor.shm_registry
            created = list(registry.created)
            restarts = executor._shard_pool.restarts
            out = {k: s.finalize() for k, s in states.items()}
        finally:
            executor.close()
        assert restarts >= 1, "chaos never killed a worker"
        assert created
        assert not any(segment_exists(n) for n in created)
        ref = _serial_reference()
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias

    def test_recovery_reads_weights_from_the_held_segment(self):
        # Every shard SIGKILLs its worker: each one then runs once on
        # the coordinator, which resolves the specs there.  It reads the
        # stored weight rectangle from the segment the batch's lease
        # still holds; nothing draws it again.
        injector = FaultInjector(
            FaultsConfig(enabled=True, seed=11, worker_kill_prob=1.0),
            master_seed=11,
        )
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        executor = ParallelExecutor(
            ParallelConfig(workers=2, min_shard_rows=1,
                           task_deadline_s=30.0),
            tracer=tracer, injector=injector,
        )
        try:
            states = _fold_batches(executor, store=BatchStore(),
                                   tracer=tracer)
            created = list(executor.shm_registry.created)
            attached = attached_segments()
            out = {k: s.finalize() for k, s in states.items()}
        finally:
            executor.close()
            detach_all()
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.serial_fallbacks"] == 3 * 2
        assert counters["parallel.restarts"] == 3
        assert "parallel.redispatched" not in counters
        assert counters["bootstrap.columns_drawn"] == 3 * 12
        # The fallback attached every batch's segment in this process.
        assert len(created) == 3 and set(created) <= set(attached)
        assert not any(segment_exists(n) for n in created)
        ref = _serial_reference()
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias
