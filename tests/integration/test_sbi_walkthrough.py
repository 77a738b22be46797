"""Re-enactment of the paper's section 3 walk-through (Figure 1).

The paper's narrative: with mini-batches {t1..tn}, {tn+1..t2n}, the inner
AVG(buffer_time) is 37 after batch 1 — so t1 (buffer 36) is filtered out —
but drops to 35.3 after batch 2, flipping t1 back in.  Classical delta
maintenance must therefore re-read batch 1; G-OLA instead keeps t1 in the
uncertain set (its buffer time falls inside the inner average's variation
range) and re-evaluates it lazily from its cached lineage.
"""

import numpy as np
import pytest

from repro import GolaConfig
from repro.core.delta import BlockRuntime
from repro.expr.expressions import Environment
from repro.plan import bind_statement, lineage_blocks
from repro.sql import parse_sql
from repro.storage import Catalog
from repro.workloads import SBI_QUERY, figure1_table


@pytest.fixture
def setup():
    table = figure1_table()
    cat = Catalog()
    cat.register("sessions", table, streamed=True)
    query = bind_statement(parse_sql(SBI_QUERY), cat)
    config = GolaConfig(num_batches=2, bootstrap_trials=64, seed=13)
    blocks = lineage_blocks(query)
    runtimes = {
        b.block_id: BlockRuntime(
            b, query.subqueries.get(b.produces)
            if b.produces is not None else None, config, {}
        )
        for b in blocks
    }
    return table, query, blocks, runtimes, config


def run_batches(table, blocks, runtimes, config, batch_bounds):
    """Drive the exact batch split of the paper's figure."""
    rng = np.random.default_rng(99)
    seen = []
    outputs = []
    k = len(batch_bounds)
    for i, (lo, hi) in enumerate(batch_bounds, start=1):
        batch = table.slice(lo, hi)
        weights = rng.poisson(
            1.0, (batch.num_rows, config.bootstrap_trials)
        ).astype(float)
        seen.append((batch, weights))
        penv = Environment()
        slot_states = {}
        for block in blocks:
            runtime = runtimes[block.block_id]
            stats = runtime.process_batch(
                i, batch, weights, slot_states, penv, lambda: seen
            )
            if block.produces is not None:
                state = runtime.publish(penv, slot_states, k / i)
                slot_states[block.produces] = state
                state.bind_point(penv)
        out, _ = runtimes["main"].snapshot_output(penv, slot_states, k / i)
        outputs.append((stats, slot_states, out))
    return outputs


class TestWalkthrough:
    def test_inner_average_trajectory(self, setup):
        """Batch 1 inner avg = 37.0 exactly; batch 2 = 35.33 (paper)."""
        table, query, blocks, runtimes, config = setup
        outputs = run_batches(table, blocks, runtimes, config,
                              [(0, 3), (3, 6)])
        state1 = outputs[0][1][0]
        state2 = outputs[1][1][0]
        assert state1.estimate == pytest.approx(37.0)
        assert state2.estimate == pytest.approx(table["buffer_time"].mean())
        assert state2.estimate == pytest.approx(35.333, abs=0.01)

    def test_t1_lives_in_uncertain_set(self, setup):
        """With the paper's assumed range R(AVG) = [28.9, 45.1]:
        t2 (58) is deterministic-pass, tn (17) deterministic-fail, and
        t1 (36) lands in the uncertain set (paper section 3.2)."""
        from repro.core.uncertain import ScalarSlotState
        from repro.estimate import VariationRange

        table, query, blocks, runtimes, config = setup
        main = runtimes["main"]
        state = ScalarSlotState(
            slot=0, estimate=37.0,
            replicas=np.array([30.0, 44.0]),
            vrange=VariationRange(28.9, 45.1),
        )
        penv = Environment(scalars={0: 37.0})
        batch = table.slice(0, 3)  # {t1, t2, tn}
        weights = np.ones((3, config.bootstrap_trials))
        stats = main.process_batch(
            1, batch, weights, {0: state}, penv,
            lambda: [(batch, weights)],
        )
        cached = main.cache.rows.table.column("buffer_time").tolist()
        assert cached == [36.0]  # exactly t1 is uncertain
        assert stats.folded_pass == 1  # t2
        assert stats.folded_fail == 1  # tn

    def test_flip_is_absorbed_without_rescan(self, setup):
        """After batch 2 the answer equals the exact SBI result, and the
        work done was bounded by |batch| + |uncertain|, not |D_1|."""
        table, query, blocks, runtimes, config = setup
        outputs = run_batches(table, blocks, runtimes, config,
                              [(0, 3), (3, 6)])
        final = outputs[-1][2]
        inner = table["buffer_time"].mean()
        expected = table["play_time"][table["buffer_time"] > inner].mean()
        got = float(final.column(final.schema.names[0])[0])
        assert got == pytest.approx(expected, rel=1e-9)

        stats2 = runtimes["main"].stats_history[-1]
        if not stats2.rebuilt:
            assert stats2.candidates <= 3 + len(
                runtimes["main"].stats_history[0].__dict__
            ) + 3  # batch 2 rows + batch-1 uncertain leftovers

    def test_exact_answer_on_full_run(self, setup):
        table, query, blocks, runtimes, config = setup
        outputs = run_batches(table, blocks, runtimes, config,
                              [(0, 3), (3, 6)])
        # The paper's dataset: sessions with buffer > 35.33 are t1, t2, t4.
        final = outputs[-1][2]
        got = float(final.column(final.schema.names[0])[0])
        assert got == pytest.approx((238 + 135 + 194) / 3)
