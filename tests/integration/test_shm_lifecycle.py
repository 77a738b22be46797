"""Shared-memory segment lifecycle: no ``/dev/shm`` leaks, ever.

The lifecycle contract, probed by segment name (the registry records
every name it ever created, and :func:`segment_exists` asks the OS): a
run holds at most one live segment, reused fold after fold, and none
once it ends, stops or fails with a shard lost for good; segments are
unlinked after SIGKILL-induced supervised-pool rebuilds too, whose lost
shards run on the coordinator and read the batch's weights from the
run's segment before the next fold overwrites it.
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


def _record_registries(monkeypatch):
    """Every fold's run registry, right after the fold returns."""
    fold = ParallelExecutor.fold_boot_states
    seen = []

    def recording(executor, *args, **kwargs):
        try:
            fold(executor, *args, **kwargs)
        finally:
            seen.append((executor.shm_registry,
                         executor.shm_registry.live_segments()
                         if executor.shm_registry is not None else []))

    monkeypatch.setattr(ParallelExecutor, "fold_boot_states", recording)
    return seen


class TestSegmentsNeverLeak:
    def test_unlinked_after_drain_and_release(self):
        executor = ParallelExecutor(CONFIG)
        try:
            _fold_batches(executor)
            registry = executor.shm_registry
            # Three equal-sized folds reuse the run's one segment.
            assert registry is not None and len(registry.created) == 1
            assert registry.live_segments() == registry.created
            executor.end_run()
            assert executor.shm_registry is None
            assert registry.live_segments() == []
            assert not any(segment_exists(n) for n in registry.created)
        finally:
            executor.close()

    def test_one_live_segment_per_run(self, monkeypatch):
        # Through a whole session run the run's registry holds at most
        # one live segment after every fold, and none once it ends.
        seen = _record_registries(monkeypatch)
        session = GolaSession(
            GolaConfig(num_batches=4, bootstrap_trials=16, seed=3,
                       parallel=CONFIG)
        )
        session.register_table("sessions", generate_sessions(4000, seed=5))
        try:
            list(session.sql(SBI_QUERY).run_online())
            registries = {id(r): r for r, _ in seen if r is not None}
            assert len(registries) == 1
            assert all(len(live) <= 1 for _, live in seen)
            (registry,) = registries.values()
            assert registry.live_segments() == []
            assert not any(segment_exists(n) for n in registry.created)

            # A shard that raises in the pool and again in its serial
            # fallback is lost for good: the run fails, and its segment
            # is unlinked by the time ShardLostError reaches the caller.
            seen.clear()
            monkeypatch.setattr("repro.parallel.executor.run_fold_shard",
                                _unrunnable_shard)
            with pytest.raises(ShardLostError):
                list(session.sql(SBI_QUERY).run_online())
            ((registry, live),) = seen
            assert live == registry.created and len(live) == 1
            assert registry.live_segments() == []
            assert not segment_exists(registry.created[0])
        finally:
            session.close()

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
        # rebuilds the pool and runs lost shards on the coordinator
        # against the run's still-live segment.  Results stay
        # bit-identical and the segment is still unlinked afterwards.
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
        # stored weight rectangle from the run's segment, which no
        # later publish has overwritten yet; nothing draws it again.
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
        # All three folds published into the run's one segment, and the
        # fallback attached it in this process.
        assert len(created) == 1 and set(created) <= set(attached)
        assert not any(segment_exists(n) for n in created)
        ref = _serial_reference()
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias
