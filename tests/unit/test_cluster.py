"""Unit tests for the discrete-event kernel, cost model and simulator."""

import pytest

from repro import ClusterConfig, FaultsConfig
from repro.cluster import (
    ClusterSimulator,
    EventLoop,
    SlotHeap,
    broadcast_cost,
    task_durations,
)
from repro.faults import FaultInjector


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("late"))
        loop.schedule(1.0, lambda: order.append("early"))
        final = loop.run()
        assert order == ["early", "late"]
        assert final == 2.0

    def test_actions_can_schedule_more(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append(loop.now)
            loop.schedule(3.0, lambda: seen.append(loop.now))

        loop.schedule(1.0, first)
        loop.run()
        assert seen == [1.0, 4.0]

    def test_fifo_tie_break(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(1.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b"]

    def test_past_scheduling_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: loop.schedule_at(
            2.5, lambda: seen.append(loop.now)))
        loop.run()
        assert seen == [2.5]

    def test_schedule_at_clamps_float_jitter(self):
        """Accumulated float durations can land a few ULPs before `now`;
        such deltas must run immediately rather than raise."""
        loop = EventLoop()
        seen = []
        total = 0.1 + 0.1 + 0.1  # 0.30000000000000004

        def later():
            # 0.3 < loop.now by ~5.6e-17: within the clamp window.
            loop.schedule_at(0.3, lambda: seen.append(True))

        loop.schedule(total, later)
        loop.run()
        assert seen == [True]

    def test_schedule_at_truly_past_still_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)


class TestSlotHeap:
    def test_parallel_speedup(self):
        serial = SlotHeap(1)
        parallel = SlotHeap(4)
        durations = [1.0] * 8
        assert serial.submit_all(durations) == pytest.approx(8.0)
        assert parallel.submit_all(durations) == pytest.approx(2.0)

    def test_longest_first_packing(self):
        pool = SlotHeap(2)
        makespan = pool.submit_all([3.0, 1.0, 1.0, 1.0])
        assert makespan == pytest.approx(3.0)

    def test_not_before(self):
        pool = SlotHeap(1)
        assert pool.submit(1.0, not_before=5.0) == pytest.approx(6.0)

    def test_needs_workers(self):
        with pytest.raises(ValueError):
            SlotHeap(0)

    def test_heap_matches_linear_scan_placement(self):
        """The heap submit must reproduce the old O(W) min-scan exactly,
        including the lowest-free-worker tie-break."""
        import itertools

        for durations in itertools.permutations([3.0, 1.0, 2.0, 1.0, 4.0]):
            pool = SlotHeap(2)
            free = [0.0, 0.0]  # the old linear-scan model
            for d in durations:
                w = free.index(min(free))
                free[w] += d
                assert pool.submit(d) == pytest.approx(free[w])
            assert pool.makespan == pytest.approx(max(free))

    def test_makespan_tracks_last_finish(self):
        pool = SlotHeap(3)
        pool.submit(5.0)
        pool.submit(1.0)
        assert pool.makespan == pytest.approx(5.0)

    def test_reset(self):
        pool = SlotHeap(2)
        pool.submit_all([1.0, 2.0, 3.0])
        pool.reset()
        assert pool.makespan == 0.0
        assert pool.submit(1.0) == pytest.approx(1.0)


class TestCostModel:
    def test_task_fanout(self):
        config = ClusterConfig(rows_per_task=100)
        durations = task_durations(250, config, bootstrap=False)
        assert len(durations) == 3
        total_rows_time = sum(durations) - 3 * config.task_overhead_s
        assert total_rows_time == pytest.approx(
            250 * config.per_tuple_cost_s
        )

    def test_bootstrap_overhead_applied(self):
        config = ClusterConfig()
        plain = sum(task_durations(10_000, config, bootstrap=False))
        boosted = sum(task_durations(10_000, config, bootstrap=True))
        rows_plain = plain - config.task_overhead_s
        rows_boost = boosted - config.task_overhead_s
        assert rows_boost / rows_plain == pytest.approx(
            1.0 + config.bootstrap_overhead_factor
        )

    def test_zero_rows_still_costs_overhead(self):
        config = ClusterConfig()
        assert task_durations(0, config) == [config.task_overhead_s]

    def test_broadcast_cost(self):
        config = ClusterConfig()
        assert broadcast_cost(3, config) == pytest.approx(
            3 * config.broadcast_cost_s
        )


class TestSimulator:
    def test_batch_latency_composition(self):
        sim = ClusterSimulator(ClusterConfig())
        batch = sim.simulate_batch(1, {"sub#0": 1000, "main": 1000})
        assert set(batch.stage_seconds) == {"sub#0", "main"}
        assert batch.total_seconds == pytest.approx(
            sum(batch.stage_seconds.values())
            + batch.broadcast_seconds + batch.overhead_seconds
        )

    def test_run_cumulative(self):
        sim = ClusterSimulator()
        run = sim.simulate_run([{"main": 100}] * 3)
        cum = run.cumulative_seconds
        assert len(cum) == 3
        assert cum[-1] == pytest.approx(run.total_seconds)
        assert cum == sorted(cum)

    def test_more_rows_take_longer(self):
        sim = ClusterSimulator()
        small = sim.simulate_batch(1, {"main": 1000}).total_seconds
        big = sim.simulate_batch(1, {"main": 10_000_000}).total_seconds
        assert big > small

    def test_batch_engine_has_no_bootstrap_overhead(self):
        # At paper scale the per-tuple cost dominates fixed overheads, so
        # the bootstrap multiplier shows through (~1.6x per pass).
        config = ClusterConfig()
        sim = ClusterSimulator(config)
        rows = 500_000_000
        batch_engine = sim.simulate_batch_engine(rows)
        online_pass = sim.simulate_batch(1, {"main": rows}).total_seconds
        assert online_pass > batch_engine * 1.4

    # Small tasks so a 100k-row stage fans out to 20 of them.
    FANOUT = ClusterConfig(rows_per_task=5_000)

    def test_retries_inflate_latency(self):
        """Recovery cost must show in the simulated latency curve."""
        clean = ClusterSimulator(self.FANOUT).simulate_batch(
            1, {"main": 100_000}
        )
        # A generous retry budget: this test wants retries, not failure.
        config = FaultsConfig(enabled=True, seed=4, task_failure_prob=0.3,
                              max_retries=10)
        faulty_sim = ClusterSimulator(self.FANOUT,
                                      injector=FaultInjector(config))
        faulty = faulty_sim.simulate_batch(1, {"main": 100_000})
        assert faulty.retries > 0
        assert not faulty.failed
        assert faulty.total_seconds > clean.total_seconds

    def test_stragglers_speculated(self):
        config = FaultsConfig(enabled=True, seed=4, straggler_prob=0.2,
                              straggler_factor=20.0)
        with_spec = ClusterSimulator(
            self.FANOUT, injector=FaultInjector(config)
        ).simulate_batch(1, {"main": 100_000})
        no_spec = ClusterSimulator(
            self.FANOUT,
            injector=FaultInjector(
                FaultsConfig(enabled=True, seed=4, straggler_prob=0.2,
                             straggler_factor=20.0, speculate=False)
            ),
        ).simulate_batch(1, {"main": 100_000})
        assert with_spec.speculations > 0
        # Speculation caps straggler runtime, so the batch finishes sooner.
        assert with_spec.total_seconds < no_spec.total_seconds

    def test_exhausted_retries_fail_batch_and_halt_stages(self):
        config = FaultsConfig(enabled=True, seed=4, task_failure_prob=1.0,
                              max_retries=1)
        sim = ClusterSimulator(injector=FaultInjector(config))
        batch = sim.simulate_batch(1, {"sub#0": 10_000, "main": 10_000})
        assert batch.failed
        # Downstream stages never run once a stage fails permanently.
        assert set(batch.stage_seconds) == {"sub#0"}
        run = sim.simulate_run([{"main": 1000}])
        assert run.failed_batches == [1]

    def test_disabled_faults_identical_latency(self):
        clean = ClusterSimulator().simulate_batch(1, {"main": 50_000})
        off = ClusterSimulator(
            injector=FaultInjector(FaultsConfig())
        ).simulate_batch(1, {"main": 50_000})
        assert off.total_seconds == clean.total_seconds
        assert off.retries == 0 and not off.failed

    def test_same_fault_seed_same_latency(self):
        def run():
            config = FaultsConfig(enabled=True, seed=9,
                                  task_failure_prob=0.2,
                                  straggler_prob=0.1)
            sim = ClusterSimulator(injector=FaultInjector(config))
            return sim.simulate_run([{"main": 20_000}] * 3)

        a, b = run(), run()
        assert a.batch_seconds == b.batch_seconds
        assert a.total_retries == b.total_retries

    def test_first_answer_much_earlier_than_batch(self):
        """The Figure 3(a) shape: tiny first-batch latency vs full scan.

        The paper reports the first answer at ~1.6% of the batch-engine
        latency (2.3s vs 2.34min) for 100 mini-batches over ~100GB.
        """
        sim = ClusterSimulator()
        total_rows = 5_000_000_000
        k = 100
        first = sim.simulate_batch(1, {"main": total_rows // k})
        full = sim.simulate_batch_engine(total_rows)
        assert first.total_seconds < 0.05 * full
