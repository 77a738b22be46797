"""Ablation of a design choice DESIGN.md marks with ♦: cached-row
cost-model sensitivity (does the Fig 3(b) conclusion survive charging
cached rows at full price?).
"""

from common import ALL_QUERIES, run_cdm_rows, run_gola, simulate_latency
from repro import GolaConfig

CONFIG = GolaConfig(num_batches=10, bootstrap_trials=40, seed=2015)


# ----------------------------------------------------------------------
# Cost-model sensitivity: cached-row discount
# ----------------------------------------------------------------------

class TestCachedRowCostSensitivity:
    def test_fig3b_conclusion_survives_full_price(self, small_tables):
        """Even charging cached rows at 1.0x, CDM/G-OLA still grows and
        crosses 1 — the figure's conclusion is not a cost-model artifact."""
        table_name, sql = ALL_QUERIES["Q17"]
        trace = run_gola(sql, table_name, small_tables, CONFIG,
                         cached_row_cost_factor=1.0)
        gola = simulate_latency(trace.per_batch_rows).batch_seconds
        cdm = simulate_latency(
            run_cdm_rows(sql, table_name, small_tables, CONFIG),
            bootstrap=False,
        ).batch_seconds
        ratios = [c / g for c, g in zip(cdm, gola)]
        assert ratios[-1] > ratios[0]
        assert ratios[-1] > 1.5

    def test_discount_only_scales_latency(self, small_tables):
        table_name, sql = ALL_QUERIES["Q17"]
        cheap = run_gola(sql, table_name, small_tables, CONFIG,
                         cached_row_cost_factor=0.25)
        full = run_gola(sql, table_name, small_tables, CONFIG,
                        cached_row_cost_factor=1.0)
        # Same answers, same uncertain sets; only the charged rows move.
        assert cheap.uncertain_sizes == full.uncertain_sizes
        assert sum(sum(r.values()) for r in full.per_batch_rows) >= \
            sum(sum(r.values()) for r in cheap.per_batch_rows)
