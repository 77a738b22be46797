"""Failure injection: variation-range violations and recovery.

The paper (section 3.2): the approximate range ``R(u)`` may fail — a
running value or bootstrap output escapes it — in which case the system
detects the failure and recomputes from the data seen so far; a larger
``ε`` trades recomputation probability for larger uncertain sets.  These
tests force both regimes and verify answers stay exact either way.
"""

import pytest

from repro import GolaConfig, GolaSession
from repro.workloads import SBI_QUERY, generate_sessions


# The seed is chosen so that ε = 0 produces at least one range
# violation under the per-(batch, trial) weight streams; re-verify if
# the weight derivation scheme ever changes.
def run(epsilon, seed=31, num_batches=30, n=3000):
    session = GolaSession(
        GolaConfig(num_batches=num_batches, bootstrap_trials=24,
                   seed=seed, epsilon_multiplier=epsilon)
    )
    session.register_table("sessions", generate_sessions(n, seed=7))
    query = session.sql(SBI_QUERY)
    snapshots = list(query.run_online())
    exact = session.execute_batch(query)
    truth = float(exact.column(exact.schema.names[0])[0])
    return snapshots, truth


class TestEpsilonTradeoff:
    def test_tiny_epsilon_forces_rebuilds(self):
        """ε = 0 leaves no slack: guard intersections shrink to nothing
        and violations trigger recomputation — which must succeed."""
        snapshots, truth = run(epsilon=0.0)
        rebuilds = sum(len(s.rebuilds) for s in snapshots)
        assert rebuilds >= 1
        assert snapshots[-1].estimate == pytest.approx(truth, rel=1e-9)

    def test_huge_epsilon_avoids_rebuilds_but_grows_uncertain(self):
        small_eps, _ = run(epsilon=0.25)
        big_eps, truth = run(epsilon=8.0)
        assert sum(len(s.rebuilds) for s in big_eps) == 0
        assert big_eps[-1].total_uncertain >= small_eps[-1].total_uncertain
        assert big_eps[-1].estimate == pytest.approx(truth, rel=1e-9)

    def test_answers_identical_across_epsilon(self):
        """ε changes the work profile, never the answers (same data,
        same partitioning, same point estimates)."""
        a, _ = run(epsilon=0.5)
        b, _ = run(epsilon=4.0)
        for snap_a, snap_b in zip(a, b):
            assert snap_a.estimate == pytest.approx(
                snap_b.estimate, rel=1e-9
            )

    def test_rebuild_accounting_in_rows_processed(self):
        snapshots, _ = run(epsilon=0.0)
        saw_rebuild = False
        for snap in snapshots:
            for block_id in snap.rebuilds:
                saw_rebuild = True
                # A rebuilt block re-reads the full prefix; its row count
                # for that batch must exceed the plain batch size.
                batch_rows = 3000 // 30
                assert snap.rows_processed[block_id] > batch_rows
        assert saw_rebuild


class TestRebuildSkipsDroppedBatches:
    def test_rebuild_refolds_only_folded_batches(self):
        """A rebuild re-reads batches ``1..i`` less every skipped one.

        ε = 0 rebuilds at batches 4 and 9.  Batch 1 loses a shard past
        every recovery rung and batch 6 fails to load, so the rebuild
        at batch 9 follows both kinds of skip.
        """
        from repro.config import FaultsConfig, ParallelConfig
        from repro.storage import MiniBatchPartitioner
        from .test_chaos import _LossyExecutor

        table = generate_sessions(3000, seed=7)
        config = GolaConfig(
            num_batches=30, bootstrap_trials=24, seed=31,
            epsilon_multiplier=0.0, metrics=True,
            faults=FaultsConfig(enabled=True, seed=10,
                                batch_failure_prob=0.05, max_retries=0),
        )
        session = GolaSession(config)
        session.register_table("sessions", table)
        lossy = _LossyExecutor(ParallelConfig())
        controller = session._make_controller(
            session.sql(SBI_QUERY).query, config, parallel=lossy)
        snapshots = list(controller.run())
        counters = controller.tracer.metrics.snapshot().counters
        assert lossy.losses == 1 and counters["faults.shards_lost"] == 1
        assert snapshots[-1].skipped_batches[:2] == [1, 6]

        rows = [b.num_rows for b in MiniBatchPartitioner(
            30, seed=31).partition(table)]
        expected = 0
        for snap in snapshots:
            if not snap.rebuilds:
                continue
            skipped = set(snap.skipped_batches or ())
            folded_rows = sum(rows[j - 1]
                              for j in range(1, snap.batch_index + 1)
                              if j not in skipped)
            expected += len(snap.rebuilds) * folded_rows
        rebuilt_at = [s.batch_index for s in snapshots if s.rebuilds]
        assert rebuilt_at[-1] > 6
        assert counters["delta.rebuild_rows"] == expected
