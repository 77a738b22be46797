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
        """A rebuild at batch ``i`` re-reads batches ``1..i``, each
        once: ``delta.rebuild_rows`` is the sum of their sizes over
        every rebuilding block."""
        from repro.storage import MiniBatchPartitioner

        table = generate_sessions(3000, seed=7)
        config = GolaConfig(num_batches=30, bootstrap_trials=24, seed=31,
                            epsilon_multiplier=0.0, metrics=True)
        session = GolaSession(config)
        session.register_table("sessions", table)
        controller = session._make_controller(
            session.sql(SBI_QUERY).query, config)
        snapshots = list(controller.run())
        counters = controller.tracer.metrics.snapshot().counters

        rows = [b.num_rows for b in MiniBatchPartitioner(
            30, seed=31).partition(table)]
        expected = sum(len(snap.rebuilds) * sum(rows[:snap.batch_index])
                       for snap in snapshots)
        assert any(snap.rebuilds for snap in snapshots)
        assert counters["delta.rebuild_rows"] == expected
