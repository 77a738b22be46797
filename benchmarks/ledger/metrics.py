"""Every metric the benchmark prints: name -> (unit, which way is better).

``BENCHMARK.json`` lists the same names; ``test_ledger.py`` holds the
two together.  The glossary is in ``README.md``.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS = ("nested_mem", "deep_colstore", "fold_dispatch", "serve_mix")

#: Measured with tracing off.  name -> (unit, better, bound).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "ttfa_p50_s": ("s", "lower", 0.25),
    "ttfa_p90_s": ("s", "lower", 0.25),
    "tta_p50_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.20),
}

QUERY_NAMES = (
    "SBI", "C2", "C3", "Q11", "Q17", "Q20", "MM1",
    "T1", "T2", "T3", "T4", "T5", "T6", "T8", "T9", "T10",
    "AVGP", "GEO",
)


def _layers() -> Dict[str, Tuple[str, str]]:
    lower_s = (
        "sql.parse_s", "plan.bind_s", "core.meta_plan_s",
        "storage.partition_s", "core.begin_s",
        "storage.colstore.convert_s", "storage.colstore.decode_s",
        "storage.colstore.prune_s", "storage.colstore.to_table_s",
        "engine.exact_s", "engine.op_s", "estimate.weights_s",
        "core.classify_s", "core.fold_s", "core.guards_s",
        "core.publish_s", "core.snapshot_s", "core.rebuild_s",
        "core.batch_p50_s", "core.batch_max_s",
        "core.block_self_s", "core.batch_self_s", "core.step_self_s",
        "parallel.shard_s", "parallel.merge_s", "parallel.supervise_s",
        "parallel.serial_ref_s",
        "serve.submit_p50_s", "serve.queue_wait_p50_s",
        "serve.step_p50_s", "serve.metrics_scrape_s",
    )
    out = {name: ("s", "lower") for name in lower_s}
    out.update({
        "storage.colstore.convert_rows_per_s": ("rows/s", "higher"),
        "storage.colstore.bytes_per_row": ("bytes", "lower"),
        "storage.colstore.chunks_pruned": ("count", "higher"),
        "storage.colstore.chunks_total": ("count", "lower"),
        "storage.colstore.chunks_tri_decided": ("count", "higher"),
        "estimate.weights_drawn": ("count", "lower"),
        "core.rows_classified": ("count", "lower"),
        "core.rows_folded": ("count", "lower"),
        "core.uncertain_peak": ("count", "lower"),
        "core.uncertain_final_frac": ("ratio", "lower"),
        "core.work_ratio": ("ratio", "lower"),
        "core.rebuilds": ("count", "lower"),
        "core.rebuild_rows": ("count", "lower"),
        "parallel.shard_tasks": ("count", "lower"),
        "parallel.shm_bytes": ("bytes", "lower"),
        "parallel.pipeline_overlap_s": ("s", "higher"),
        "parallel.recoveries": ("count", "lower"),
        "parallel.w1_over_serial": ("ratio", "lower"),
        "serve.scan_cache_hit_ratio": ("ratio", "higher"),
        "serve.stream_bytes_per_query": ("bytes", "lower"),
        "serve.snapshots": ("count", "higher"),
        "serve.rejected": ("count", "lower"),
        "obs.trace_overhead_frac": ("ratio", "lower"),
        "obs.accounted_frac": ("ratio", "higher"),
        "ratio.ttfa_over_exact": ("ratio", "lower"),
        "ratio.online_over_exact": ("ratio", "lower"),
    })
    for name in QUERY_NAMES:
        out[f"q.{name}.online_s"] = ("s", "lower")
    return out


#: Measured by the traced run.  name -> (unit, better).  A layer a
#: workload does not reach has no value (n/a in the report).
PER_LAYER: Dict[str, Tuple[str, str]] = _layers()
