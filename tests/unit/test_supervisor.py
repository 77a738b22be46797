"""Unit coverage for the supervised worker pool (ISSUE 7 tentpole).

Each recovery rung in isolation: deadline-bounded hang escape, broken
pool rebuild with re-dispatch of only the lost shards, poison-task
quarantine with the serial fallback, merge-time result-integrity
fingerprints, and the seeded full-jitter retry pauses everything backs
off with.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.config import FaultsConfig, ParallelConfig
from repro.engine.aggregates import AvgState, SumState
from repro.errors import ShardLostError
from repro.estimate.bootstrap import PoissonWeightSource
from repro.faults import FaultInjector
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import (
    CORRUPT_SENTINEL,
    ParallelExecutor,
    SupervisedPool,
    run_fold_shard,
    validate_fold_shard,
)
from repro.parallel.supervisor import (
    BACKOFF_FACTOR,
    BACKOFF_S,
    backoff_delay,
    corrupt_result,
    jitter_rng,
)


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
        tracer = metrics_tracer()
        inj = injector(worker_kill_prob=0.4)
        with SupervisedPool(2, deadline_s=30.0, retries=2,
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
            with SupervisedPool(2, deadline_s=30.0, retries=2) as pool:
                assert pool.map(kill_once, tasks) == [0, 1, 4, 9]
                assert pool.restarts == 1
        records = [rec for rec in caplog.records
                   if rec.name == "repro.parallel"]
        assert [rec.levelname for rec in records] == ["WARNING"] * 2
        lost, restarted = (rec.getMessage() for rec in records)
        assert lost.startswith("worker lost")
        assert restarted.startswith("worker pool restarted after worker "
                                    "death")

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
        with SupervisedPool(2, deadline_s=0.5, retries=2,
                            injector=inj) as pool:
            results = pool.map(square, range(4))
        elapsed = time.monotonic() - start
        assert results == [x * x for x in range(4)]
        assert elapsed < 15.0, f"stalled {elapsed:.1f}s behind a hang"

    def test_timeout_counters_and_restart(self):
        tracer = metrics_tracer()
        inj = injector(worker_hang_prob=1.0, worker_hang_s=30.0)
        with SupervisedPool(2, deadline_s=0.3, retries=0,
                            injector=inj, tracer=tracer) as pool:
            assert pool.map(square, [1, 2]) == [1, 4]
            assert pool.restarts >= 1
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.task_timeouts"] >= 1
        assert counters["parallel.quarantined"] >= 1

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
    def test_poison_task_falls_back_to_serial(self):
        """A task whose every pool attempt dies still yields its result
        through the coordinator-side serial fallback."""
        tracer = metrics_tracer()
        inj = injector(worker_kill_prob=1.0)
        with SupervisedPool(2, deadline_s=30.0, retries=1,
                            injector=inj, tracer=tracer) as pool:
            assert pool.map(square, range(4)) == [x * x for x in range(4)]
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.quarantined"] >= 1
        assert counters["parallel.serial_fallbacks"] >= 1

    def test_unrunnable_task_raises_shard_lost(self):
        tracer = metrics_tracer()
        with SupervisedPool(2, deadline_s=30.0, retries=1,
                            tracer=tracer) as pool:
            with pytest.raises(ShardLostError) as err:
                pool.map(poison_three, range(5))
        assert err.value.task_index == 3
        assert "serial fallback" in str(err.value)
        # The per-task-exception rung: task 3 raised in a worker and was
        # retried before it was quarantined.
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.task_failures"] >= 1


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

    def test_infinite_inputs_stay_within_budget(self):
        """A zero weight on an infinite value folds ``0 * inf``, a NaN
        the inputs legitimately produce: no NaN input is needed."""
        payload = _fold_payload()
        payload["values"]["s"][:2] = [np.inf, -np.inf]
        payload["weights"][0, 0] = 0.0
        with np.errstate(invalid="ignore"):
            result = run_fold_shard(payload)
        assert any(np.isnan(arr).any() for _, state in result
                   for arr in vars(state).values()
                   if isinstance(arr, np.ndarray))
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
        with SupervisedPool(2, deadline_s=30.0, retries=4,
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
        a, b = jitter_rng(7), jitter_rng(7)
        seq_a = [backoff_delay(i, a) for i in range(6)]
        seq_b = [backoff_delay(i, b) for i in range(6)]
        assert seq_a == seq_b
        for attempt, delay in enumerate(seq_a):
            assert 0.0 <= delay <= BACKOFF_S * BACKOFF_FACTOR ** attempt

    def test_actors_are_decorrelated(self):
        """Pools under different fault seeds pause differently, so
        concurrent recoveries never wake in lockstep."""
        streams = [
            [backoff_delay(i, rng) for i in range(4)]
            for rng in (jitter_rng(7), jitter_rng(8), jitter_rng(9))
        ]
        assert len({tuple(s) for s in streams}) == len(streams)


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
        # fallback of the recovery ladder.
        with SupervisedPool(2, retries=0) as pool:
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
