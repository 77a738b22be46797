"""Unit coverage for the supervised worker pool (ISSUE 7 tentpole).

Each recovery rung in isolation: deadline-bounded hang escape, broken
pool rebuild with re-dispatch of only the lost shards, poison-task
quarantine with the serial fallback, merge-time result-integrity
fingerprints, and the seeded full-jitter retry pauses everything backs
off with.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.config import FaultsConfig
from repro.engine.aggregates import AvgState, SumState
from repro.errors import ShardLostError
from repro.faults import FaultInjector, RetryPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import (
    CORRUPT_SENTINEL,
    SupervisedPool,
    WorkerPool,
    run_fold_shard,
    validate_fold_shard,
)
from repro.parallel.supervisor import corrupt_result


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


def injector(**fields):
    cfg = FaultsConfig(enabled=True, seed=fields.pop("seed", 7), **fields)
    return FaultInjector(cfg, master_seed=cfg.seed)


def metrics_tracer():
    return Tracer(metrics=MetricsRegistry(enabled=True))


class TestSupervisedMap:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_clean_map_is_ordered(self, backend):
        with SupervisedPool(2, backend, deadline_s=30.0) as pool:
            assert pool.map(square, range(7)) == [x * x for x in range(7)]

    def test_empty_map(self):
        with SupervisedPool(2, "thread") as pool:
            assert pool.map(square, []) == []

    def test_serial_backend_is_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            SupervisedPool(1, "serial")


class TestCrashRecovery:
    def test_process_worker_kills_are_survived(self):
        tracer = metrics_tracer()
        inj = injector(worker_kill_prob=0.4)
        with SupervisedPool(2, "process", deadline_s=30.0, retries=2,
                            injector=inj, tracer=tracer) as pool:
            assert pool.map(square, range(8)) == [x * x for x in range(8)]
            assert pool.restarts >= 1
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.restarts"] == pool.restarts
        assert counters["parallel.worker_lost"] >= 1
        assert counters["parallel.redispatched"] >= 1

    def test_sigkill_recovery_logs_one_warning_per_rung(self, tmp_path,
                                                         caplog):
        marker = str(tmp_path / "killed")
        tasks = [(x, marker) for x in range(4)]
        with caplog.at_level("WARNING", logger="repro.parallel"):
            with SupervisedPool(2, "process", deadline_s=30.0,
                                retries=2) as pool:
                assert pool.map(kill_once, tasks) == [0, 1, 4, 9]
                assert pool.restarts == 1
        records = [rec for rec in caplog.records
                   if rec.name == "repro.parallel"]
        assert [rec.levelname for rec in records] == ["WARNING"] * 2
        lost, restarted = (rec.getMessage() for rec in records)
        assert lost.startswith("worker lost")
        assert restarted.startswith("worker pool restarted after worker "
                                    "death")

    def test_thread_backend_kills_become_retried_failures(self):
        tracer = metrics_tracer()
        inj = injector(worker_kill_prob=0.4)
        with SupervisedPool(2, "thread", deadline_s=30.0, retries=4,
                            injector=inj, tracer=tracer) as pool:
            assert pool.map(square, range(8)) == [x * x for x in range(8)]
            # Threads cannot be SIGKILLed; injected deaths surface as
            # per-task failures, never as pool breakage.
            assert pool.restarts == 0
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.task_failures"] >= 1

    def test_fault_plans_are_deterministic(self):
        plans = [injector(worker_kill_prob=0.3, worker_hang_prob=0.2,
                          result_corrupt_prob=0.1).worker_faults(16)
                 for _ in range(2)]
        for key in ("kill", "hang", "corrupt"):
            np.testing.assert_array_equal(plans[0][key], plans[1][key])
        assert any(plans[0][key].any()
                   for key in ("kill", "hang", "corrupt"))


class TestHangDeadline:
    def test_hung_worker_never_stalls_past_deadline(self):
        """The acceptance pin: injected hangs sleep 30s but the map is
        bounded by the (sub-second) task deadline per dispatch round,
        not by the hang."""
        inj = injector(worker_hang_prob=0.9, worker_hang_s=30.0)
        start = time.monotonic()
        with SupervisedPool(2, "process", deadline_s=0.5, retries=2,
                            injector=inj) as pool:
            results = pool.map(square, range(4))
        elapsed = time.monotonic() - start
        assert results == [x * x for x in range(4)]
        assert elapsed < 15.0, f"stalled {elapsed:.1f}s behind a hang"

    def test_timeout_counters_and_restart(self):
        tracer = metrics_tracer()
        inj = injector(worker_hang_prob=1.0, worker_hang_s=30.0,
                       max_retries=0)
        with SupervisedPool(2, "process", deadline_s=0.3, retries=0,
                            injector=inj, tracer=tracer) as pool:
            assert pool.map(square, [1, 2]) == [1, 4]
            assert pool.restarts >= 1
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.task_timeouts"] >= 1
        assert counters["parallel.quarantined"] >= 1


class TestQuarantine:
    def test_poison_task_falls_back_to_serial(self):
        """A task whose every pool attempt dies still yields its result
        through the coordinator-side serial fallback."""
        tracer = metrics_tracer()
        inj = injector(worker_kill_prob=1.0, max_retries=1)
        with SupervisedPool(2, "thread", deadline_s=30.0, retries=1,
                            injector=inj, tracer=tracer) as pool:
            assert pool.map(square, range(4)) == [x * x for x in range(4)]
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.quarantined"] >= 1
        assert counters["parallel.serial_fallbacks"] >= 1

    def test_unrunnable_task_raises_shard_lost(self):
        with SupervisedPool(2, "thread", deadline_s=30.0,
                            retries=1) as pool:
            with pytest.raises(ShardLostError) as err:
                pool.map(poison_three, range(5))
        assert err.value.task_index == 3
        assert "serial fallback" in str(err.value)


def _fold_payload(n=12, width=4):
    rng = np.random.default_rng(5)
    return {
        "aliases": [("s", SumState), ("a", AvgState)],
        "lo": 2,
        "hi": 2 + width,
        "group_idx": rng.integers(0, 3, size=n),
        "values": {"s": rng.normal(size=n), "a": rng.normal(size=n)},
        "row_idx": None,
        "weights": rng.poisson(1.0, size=(n, width)).astype(np.float64),
    }


class TestResultIntegrity:
    def test_valid_fold_result_passes(self):
        payload = _fold_payload()
        assert validate_fold_shard(payload, run_fold_shard(payload)) is None

    def test_nan_budget_rejects_corruption(self):
        payload = _fold_payload()
        result = corrupt_result(run_fold_shard(payload))
        error = validate_fold_shard(payload, result)
        assert error is not None and "NaN" in error

    def test_nan_inputs_stay_within_budget(self):
        payload = _fold_payload()
        payload["values"]["s"][0] = np.nan
        result = run_fold_shard(payload)
        assert validate_fold_shard(payload, result) is None

    def test_structural_mismatches_rejected(self):
        payload = _fold_payload()
        good = run_fold_shard(payload)
        assert validate_fold_shard(payload, CORRUPT_SENTINEL)
        assert validate_fold_shard(payload, good[:1])  # missing alias
        swapped = [(good[1][0], good[0][1]), good[1]]
        assert validate_fold_shard(payload, swapped)  # alias mismatch
        narrow = run_fold_shard({**payload, "hi": payload["lo"] + 2,
                                 "weights": payload["weights"][:, :2]})
        assert "width" in validate_fold_shard(payload, narrow)

    def test_corrupted_results_rerun_in_supervised_map(self):
        tracer = metrics_tracer()
        inj = injector(result_corrupt_prob=0.5)
        payloads = [_fold_payload() for _ in range(6)]
        expected = [run_fold_shard(p) for p in payloads]
        with SupervisedPool(2, "thread", deadline_s=30.0, retries=4,
                            injector=inj, tracer=tracer,
                            validate=validate_fold_shard) as pool:
            results = pool.map(run_fold_shard, payloads)
        for got, want in zip(results, expected):
            for (alias_g, state_g), (alias_w, state_w) in zip(got, want):
                assert alias_g == alias_w
                for name, arr in vars(state_w).items():
                    if isinstance(arr, np.ndarray):
                        np.testing.assert_array_equal(
                            vars(state_g)[name], arr
                        )
        assert tracer.metrics.snapshot().counters[
            "parallel.corrupt_results"] >= 1


class TestSeededJitter:
    def test_full_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(backoff_s=0.2, backoff_factor=2.0)
        a = policy.jitter_rng(7, "loadgen:c1")
        b = policy.jitter_rng(7, "loadgen:c1")
        seq_a = [policy.jittered_delay(i, a) for i in range(6)]
        seq_b = [policy.jittered_delay(i, b) for i in range(6)]
        assert seq_a == seq_b
        for attempt, delay in enumerate(seq_a):
            assert 0.0 <= delay <= policy.delay(attempt)

    def test_actors_are_decorrelated(self):
        policy = RetryPolicy()
        streams = [
            [policy.jittered_delay(i, policy.jitter_rng(7, actor))
             for i in range(4)]
            for actor in ("supervisor", "loadgen:c1", "loadgen:c2")
        ]
        assert len({tuple(s) for s in streams}) == len(streams)


class TestPoolDegradation:
    def test_forced_degradation_warns_and_counts(self, monkeypatch,
                                                 caplog):
        """Process-pool-unavailable fallback must be loud: a warning and
        a ``parallel.degraded`` bump, never a silent backend swap."""
        import repro.parallel.pool as pool_mod

        def unavailable(*args, **kwargs):
            raise PermissionError("fork blocked by sandbox")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", unavailable)
        metrics = MetricsRegistry(enabled=True)
        with caplog.at_level("WARNING", logger="repro.parallel"):
            pool = WorkerPool(2, backend="process", metrics=metrics)
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
        assert pool.backend == "thread"
        assert any("degrading" in rec.message for rec in caplog.records)
        assert metrics.snapshot().counters["parallel.degraded"] == 1
        pool.close()
