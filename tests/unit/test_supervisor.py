"""Unit coverage for the supervised worker pool.

Each recovery path in isolation: deadline-bounded hang escape, broken
pool rebuild, the one serial fallback on the coordinator for every
task the pool failed, and merge-time result-integrity fingerprints.
The faults are real: task functions from ``tests._faults`` kill their
worker, oversleep or poison their result, only in a pool worker.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import ParallelConfig
from repro.engine.aggregates import AvgState, SumState
from repro.errors import ShardLostError
from repro.estimate.bootstrap import PoissonWeightSource
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import (
    ParallelExecutor,
    SupervisedPool,
    run_fold_shard,
    validate_fold_shard,
)

from .._faults import faulty, not_nan, poison


def square(x):
    return x * x


def poison_three(x):
    if x == 3:
        raise ValueError("task 3 is unrunnable")
    return x * x


def kill_once(task):
    """Square ``x``; task 2 SIGKILLs its worker the first time."""
    x, marker = task
    if x == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def metrics_tracer():
    return Tracer(metrics=MetricsRegistry(enabled=True))


class TestSupervisedMap:
    def test_clean_map_is_ordered(self):
        with SupervisedPool(2, deadline_s=30.0) as pool:
            assert pool.map(square, range(7)) == [x * x for x in range(7)]

    def test_empty_map(self):
        with SupervisedPool(2) as pool:
            assert pool.map(square, []) == []
            assert pool.worker_pids() == []  # nothing started

    def test_serial_backend_is_rejected(self):
        # A serial fold is ParallelConfig(workers=0): it needs no pool.
        with pytest.raises(ValueError, match="serial"):
            SupervisedPool(0)


class TestCrashRecovery:
    def test_process_worker_kills_are_survived(self):
        """A worker dies on its third task; eight tasks on two workers
        reach one."""
        tracer = metrics_tracer()
        with SupervisedPool(2, deadline_s=30.0, tracer=tracer) as pool:
            assert pool.map(faulty(square, kill=3),
                            range(8)) == [x * x for x in range(8)]
            assert pool.restarts == 1
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.restarts"] == pool.restarts
        assert counters["parallel.worker_lost"] == 1
        assert counters["parallel.serial_fallbacks"] >= 1

    def test_sigkill_recovery_logs_one_warning_per_rung(self, tmp_path,
                                                         caplog):
        """One WARNING for the rebuild, then one per task run on the
        coordinator; task 2, whose worker died, is among them."""
        marker = str(tmp_path / "killed")
        tasks = [(x, marker) for x in range(4)]
        tracer = metrics_tracer()
        with caplog.at_level("WARNING", logger="repro.parallel"):
            with SupervisedPool(2, deadline_s=30.0, tracer=tracer) as pool:
                assert pool.map(kill_once, tasks) == [0, 1, 4, 9]
                assert pool.restarts == 1
        records = [rec for rec in caplog.records
                   if rec.name == "repro.parallel"]
        assert {rec.levelname for rec in records} == {"WARNING"}
        restarted, *fallbacks = (rec.getMessage() for rec in records)
        assert restarted.startswith("worker pool restarted after worker "
                                    "death")
        assert ("task 2 failed on the pool (worker lost); running it on "
                "the coordinator") in fallbacks
        assert all(msg.endswith("running it on the coordinator")
                   for msg in fallbacks)
        counters = tracer.metrics.snapshot().counters
        assert len(fallbacks) == counters["parallel.serial_fallbacks"]


class TestSharedPool:
    def test_a_late_rebuild_spares_the_replacement(self):
        """A thread that saw an executor break after another thread
        already replaced it must not abandon (or count) the new one."""
        with SupervisedPool(1, deadline_s=30.0) as pool:
            assert pool.map(square, [1]) == [1]
            broken = pool._executor
            pool._rebuild_pool(broken, "worker death")
            assert pool.map(square, [2]) == [4]
            replacement = pool._executor
            pids = pool.worker_pids()
            pool._rebuild_pool(broken, "worker death")
            assert pool._executor is replacement
            assert pool.worker_pids() == pids and pool.restarts == 1
            assert pool.map(square, [3]) == [9]

    def test_threads_survive_each_others_rebuilds(self):
        """Three runs (more than this host's cores) map on one pool at
        once, each with its own tracer; the worker dies on every fourth
        task it runs.  A broken
        executor is rebuilt once, never its replacement, and another
        run's tasks on it run on the coordinator: every result is
        right, and the runs' restart counters add up to the pool's."""
        pool = SupervisedPool(1, deadline_s=30.0)
        seeds = (1, 2, 3)
        tracers = {seed: metrics_tracer() for seed in seeds}
        results, errors = {}, []
        killing = faulty(square, kill=4)

        def drive(seed):
            try:
                results[seed] = [
                    pool.map(killing, range(5), tracer=tracers[seed])
                    for _ in range(6)
                ]
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(seed,))
                       for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not errors, errors
        for seed in seeds:
            assert results[seed] == [[x * x for x in range(5)]] * 6
        counted = sum(
            tracers[seed].metrics.snapshot().counters.get(
                "parallel.restarts", 0)
            for seed in seeds
        )
        assert counted == pool.restarts >= 1


class TestHangDeadline:
    def test_hung_worker_never_stalls_past_deadline(self):
        """The acceptance pin: hung tasks sleep 30s but the map is
        bounded by its (sub-second) dispatch budget, not by the
        hang."""
        start = time.monotonic()
        with SupervisedPool(2, deadline_s=0.5) as pool:
            results = pool.map(faulty(square, hang=1), range(4))
        elapsed = time.monotonic() - start
        assert results == [x * x for x in range(4)]
        assert elapsed < 15.0, f"stalled {elapsed:.1f}s behind a hang"

    def test_timeout_counters_and_restart(self):
        tracer = metrics_tracer()
        with SupervisedPool(2, deadline_s=0.3, tracer=tracer) as pool:
            assert pool.map(faulty(square, hang=1), [1, 2]) == [1, 4]
            assert pool.restarts == 1
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.task_timeouts"] == 2
        assert counters["parallel.serial_fallbacks"] == 2

    def test_close_kills_a_stopped_worker_within_the_deadline(self):
        """An idle worker SIGSTOPped after its last task never exits, so
        an unbounded shutdown would join it forever; close() must give
        up after one task deadline and SIGKILL it."""
        tracer = metrics_tracer()
        pool = SupervisedPool(2, deadline_s=0.5, tracer=tracer)
        assert pool.map(square, range(4)) == [x * x for x in range(4)]
        pids = pool.worker_pids()
        os.kill(pids[0], signal.SIGSTOP)
        closer = threading.Thread(target=pool.close, daemon=True)
        start = time.monotonic()
        try:
            closer.start()
            closer.join(timeout=10.0)
            elapsed = time.monotonic() - start
            assert not closer.is_alive(), "close() hung on a stopped worker"
        finally:
            for pid in pids:  # unblock a close() that did hang
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            closer.join(timeout=10.0)
        assert elapsed < 5.0, f"close() took {elapsed:.1f}s"
        # The stopped worker may hold the call queue's read lock, which
        # keeps its sibling from ever reading its exit sentinel.
        counters = tracer.metrics.snapshot().counters
        assert 1 <= counters["parallel.close_kills"] <= len(pids)

    def test_clean_close_kills_nothing(self):
        tracer = metrics_tracer()
        pool = SupervisedPool(2, deadline_s=5.0, tracer=tracer)
        assert pool.map(square, range(4)) == [x * x for x in range(4)]
        start = time.monotonic()
        pool.close()
        assert time.monotonic() - start < 5.0
        assert "parallel.close_kills" not in \
            tracer.metrics.snapshot().counters


class TestQuarantine:
    """A task the pool failed is quarantined off it: it runs once on the
    coordinator."""

    def test_poison_task_falls_back_to_serial(self):
        """Every result comes back corrupt: each task runs once on the
        coordinator, and the pool, which never broke, is kept."""
        tracer = metrics_tracer()
        with SupervisedPool(2, deadline_s=30.0, tracer=tracer,
                            validate=not_nan) as pool:
            assert pool.map(faulty(square, corrupt=1),
                            range(4)) == [x * x for x in range(4)]
            assert pool.restarts == 0
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.corrupt_results"] == 4
        assert counters["parallel.serial_fallbacks"] == 4

    def test_killed_tasks_run_once_on_the_coordinator(self):
        """Every task kills its worker: the pool is rebuilt once and
        each task runs once on the coordinator, never on the pool
        again."""
        tracer = metrics_tracer()
        with SupervisedPool(2, deadline_s=30.0, tracer=tracer) as pool:
            assert pool.map(faulty(square, kill=1),
                            range(4)) == [x * x for x in range(4)]
            assert pool.restarts == 1
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.restarts"] == 1
        assert counters["parallel.serial_fallbacks"] == 4

    def test_unrunnable_task_raises_shard_lost(self):
        tracer = metrics_tracer()
        with SupervisedPool(2, deadline_s=30.0, tracer=tracer) as pool:
            with pytest.raises(ShardLostError) as err:
                pool.map(poison_three, range(5))
        assert err.value.task_index == 3
        assert "serial fallback" in str(err.value)
        # Task 3 raised in a worker, then again on the coordinator; a
        # task exception leaves the pool whole.
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.task_failures"] == 1
        assert counters["parallel.serial_fallbacks"] == 1
        assert pool.restarts == 0


def _fold_payload(n=12, width=4):
    rng = np.random.default_rng(5)
    return {
        "aliases": [("s", SumState), ("a", AvgState)],
        "lo": 2,
        "hi": 2 + width,
        "group_idx": rng.integers(0, 3, size=n),
        "values": {"s": rng.normal(size=n), "a": rng.normal(size=n)},
        "row_idx": None,
        # The batch's (B, n) weight transpose; the shard reads rows
        # [lo, hi).
        "weights": rng.poisson(1.0, size=(2 + width, n)).astype(
            np.float64),
    }


class TestResultIntegrity:
    def test_valid_fold_result_passes(self):
        payload = _fold_payload()
        assert validate_fold_shard(payload, run_fold_shard(payload)) is None

    def test_nan_budget_rejects_corruption(self):
        payload = _fold_payload()
        result = poison(run_fold_shard(payload))
        error = validate_fold_shard(payload, result)
        assert error is not None and "NaN" in error

    def test_nan_inputs_stay_within_budget(self):
        payload = _fold_payload()
        payload["values"]["s"][0] = np.nan
        result = run_fold_shard(payload)
        assert validate_fold_shard(payload, result) is None

    def test_infinite_inputs_stay_within_budget(self):
        """A zero weight on an infinite value folds ``0 * inf``, a NaN
        the inputs legitimately produce: no NaN input is needed."""
        payload = _fold_payload()
        payload["values"]["s"][:2] = [np.inf, -np.inf]
        payload["weights"][payload["lo"], 0] = 0.0
        with np.errstate(invalid="ignore"):
            result = run_fold_shard(payload)
        assert any(np.isnan(arr).any() for _, state in result
                   for arr in vars(state).values()
                   if isinstance(arr, np.ndarray))
        assert validate_fold_shard(payload, result) is None

    def test_structural_mismatches_rejected(self):
        payload = _fold_payload()
        good = run_fold_shard(payload)
        assert validate_fold_shard(payload, "not a state list")
        assert validate_fold_shard(payload, good[:1])  # missing alias
        swapped = [(good[1][0], good[0][1]), good[1]]
        assert validate_fold_shard(payload, swapped)  # alias mismatch
        narrow = run_fold_shard({**payload, "hi": payload["lo"] + 2})
        assert "width" in validate_fold_shard(payload, narrow)

    def test_corrupted_results_rerun_in_supervised_map(self):
        """Every second result a worker returns is poisoned; six
        payloads on two workers poison at least one."""
        tracer = metrics_tracer()
        payloads = [_fold_payload() for _ in range(6)]
        expected = [run_fold_shard(p) for p in payloads]
        with SupervisedPool(2, deadline_s=30.0, tracer=tracer,
                            validate=validate_fold_shard) as pool:
            results = pool.map(faulty(run_fold_shard, corrupt=2),
                               payloads)
        for got, want in zip(results, expected):
            for (alias_g, state_g), (alias_w, state_w) in zip(got, want):
                assert alias_g == alias_w
                for name, arr in vars(state_w).items():
                    if isinstance(arr, np.ndarray):
                        np.testing.assert_array_equal(
                            vars(state_g)[name], arr
                        )
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.corrupt_results"] >= 1
        assert counters["parallel.serial_fallbacks"] == \
            counters["parallel.corrupt_results"]
        assert "parallel.restarts" not in counters


def _fold_four_batches(config, tracer=None):
    n, trials = 3000, 8
    rng = np.random.default_rng(4)
    gi = rng.integers(0, 5, n)
    values = {"s": rng.normal(size=n), "a": rng.normal(size=n)}
    states = {"s": SumState(trials), "a": AvgState(trials)}
    source = PoissonWeightSource(trials, 23, label="degrade")
    with ParallelExecutor(config, tracer=tracer) as executor:
        for _ in range(4):
            executor.fold_boot_states(states, gi, values,
                                      source.batch_weights(n))
    return {alias: state.finalize() for alias, state in states.items()}


class TestPoolDegradation:
    def test_forced_degradation_warns_and_counts(self, monkeypatch,
                                                 caplog):
        """A host that cannot start a process pool folds inline, bit
        for bit the serial fold, and says so once: one warning and one
        ``parallel.degraded`` bump for the whole run."""
        import repro.parallel.supervisor as supervisor_mod

        def unavailable(*args, **kwargs):
            raise PermissionError("fork blocked by sandbox")

        ref = _fold_four_batches(ParallelConfig())
        monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor",
                            unavailable)
        tracer = metrics_tracer()
        with caplog.at_level("WARNING", logger="repro.parallel"):
            out = _fold_four_batches(
                ParallelConfig(workers=2, min_shard_rows=1), tracer=tracer
            )
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias
        records = [rec for rec in caplog.records
                   if rec.name == "repro.parallel"]
        assert len(records) == 1
        assert "folding inline" in records[0].getMessage()
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.degraded"] == 1
        assert "parallel.sharded_folds" not in counters
        # A map on such a host still answers, through the serial
        # fallback on the coordinator.
        with SupervisedPool(2) as pool:
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
