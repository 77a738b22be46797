"""Tests of the benchmark's own arithmetic (not of the program).

Run explicitly: ``PYTHONPATH=src python3 -m pytest benchmarks/ledger``
(``benchmarks/conftest.py`` imports the program).  Not part of the
tier-1 ``testpaths``.
"""

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from spans import (  # noqa: E402
    Span,
    SpanLog,
    adopt,
    self_time_by_name,
    self_times,
)


# -- span self-time arithmetic ------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        Span(0, "pass", 0.0, 10.0),
        Span(1, "query", 1.0, 9.0, parent=0),
        Span(2, "step", 2.0, 4.0, parent=1),
        Span(3, "step", 5.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 2.0, 3: 3.0}
    assert sum(own.values()) == pytest.approx(10.0)
    assert self_time_by_name(spans) == {"pass": 2.0, "query": 3.0,
                                        "step": 5.0}


def test_overlapping_children_are_counted_once():
    # Two blocks fanned out to threads cover 1..6 of the parent's 0..8.
    spans = [
        Span(0, "batch", 0.0, 8.0),
        Span(1, "block", 1.0, 5.0, parent=0),
        Span(2, "block", 3.0, 6.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_child_sticking_out_is_clipped_to_the_parent():
    spans = [
        Span(0, "step", 1.0, 2.0),
        Span(1, "batch", 0.9999995, 2.0000005, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(0.0)


def test_span_log_nests_and_inherits_the_query_id():
    ticks = iter(range(100))
    log = SpanLog(clock=lambda: float(next(ticks)))
    with log.span("pass"):
        with log.span("query", query="SBI") as q:
            log.add("core.step", 2.5, 3.5, parent=q.id)
    names = {s.name: s for s in log.spans}
    assert names["query"].parent == names["pass"].id
    assert names["core.step"].query == "SBI"
    assert names["pass"].end > names["query"].end


def test_adopt_hangs_program_spans_under_the_call_that_ran_them():
    log = SpanLog()
    qid = log.add("query", 100.0, 110.0, query="C3")
    log.add("session.sql", 100.0, 101.0, parent=qid)
    step = log.add("core.step", 101.0, 105.0, parent=qid)
    log.add("core.step", 105.0, 110.0, parent=qid)
    origin = 90.0
    records = [
        # Children close (and are recorded) before their parents.
        {"type": "span", "name": "phase:fold", "id": 3, "parent": 2,
         "ts": 11.5, "elapsed_s": 1.0, "attrs": {}},
        {"type": "span", "name": "batch", "id": 2, "parent": 1,
         "ts": 11.2, "elapsed_s": 3.0, "attrs": {"rows_in": 7}},
        {"type": "event", "name": "noise", "parent": 1, "ts": 12.0},
        {"type": "span", "name": "query", "id": 1, "parent": None,
         "ts": 11.1, "elapsed_s": 8.8, "attrs": {}},
    ]
    merged = adopt(log.spans, records, origin)
    by_name = {s.name: s for s in merged if s.name != "core.step"}
    assert "noise" not in by_name
    assert by_name["batch"].parent == step
    assert by_name["batch"].query == "C3"
    assert by_name["batch"].attrs == {"rows_in": 7}
    assert by_name["phase:fold"].parent == by_name["batch"].id
    assert by_name["phase:fold"].query == "C3"
    # The program's own query span is think time, not a layer.
    assert [s for s in merged if s.name == "query"] == [log.spans[qid]]
    own = self_time_by_name(merged)
    assert own["core.step"] == pytest.approx((4.0 - 3.0) + 5.0)
    assert own["batch"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


# -- percentiles the sample supports -------------------------------------


@pytest.mark.parametrize("n, p, ok", [
    (20, 50, True), (19, 50, False),
    (100, 90, True), (99, 90, False),
    (120, 90, True),            # 120 * 0.1 is 11.999... in binary
    (8, 90, False),             # an in-process pass: median only
    (1000, 99, True), (999, 99, False),
])
def test_ten_samples_beyond_the_percentile(n, p, ok):
    assert stats.supported(n, p) is ok


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values[:50], 50) == 25.0
    # Still a number where the sample does not support it: the report
    # says so beside it.
    assert stats.percentile(values[:14], 90) == 13.0
    assert not stats.supported(14, 90)


def test_spread_is_the_drivers_measure():
    values = [1.0, 1.1, 0.9, 1.3, 1.05, 0.95, 1.2, 1.0, 1.02, 0.98]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.spread([1.0]) is None


# -- a run's numbers from its trials -------------------------------------


def _trial(setup_s, pass_times):
    timings = ("pass_s", "ttfa_p50_s", "ttfa_p90_s", "tta_p50_s")
    return {"setup_s": setup_s, "peak_rss_mb": 100.0 + setup_s,
            "passes": [dict.fromkeys(timings, t) for t in pass_times],
            "attempted": 7 * len(pass_times), "failed": 0,
            "pass_count": len(pass_times)}


def test_a_run_reports_the_median_over_the_passes_of_all_its_trials():
    # One disturbed pass (9.0) and one slow set-up (5.0) move nothing.
    trials = [_trial(1.0, [3.0, 3.2]), _trial(5.0, [9.0, 3.1]),
              _trial(1.2, [3.3])]
    result = run.combine(trials, trace=0)
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert set(values) == set(metrics.END_TO_END)
    assert values["pass_s"] == values["tta_p50_s"] == 3.2
    assert values["setup_s"] == 1.2
    assert values["peak_rss_mb"] == 101.2
    assert (result["attempted"], result["passes"]) == (35, 5)
    assert result["correct"]


def test_a_layer_no_trial_reaches_has_no_value():
    trials = [{"layers": {"core.fold_s": v}, "attempted": 7, "failed": f,
               "pass_count": 2} for v, f in ((1.0, 0), (3.0, 1), (2.0, 0))]
    result = run.combine(trials, trace=1)
    assert result["metrics"]["core.fold_s"]["value"] == 2.0
    assert result["metrics"]["serve.rejected"]["value"] is None
    assert not result["correct"] and result["failed"] == 1


# -- digests and the exact comparison ------------------------------------


def _stream(seed):
    from repro import GolaConfig, GolaSession
    from repro.workloads import SBI_QUERY, generate_sessions

    session = GolaSession(GolaConfig(num_batches=3, bootstrap_trials=8,
                                     seed=seed))
    session.register_table("sessions", generate_sessions(2000, seed=7))
    return list(session.sql(SBI_QUERY).run_online())


def test_same_seed_gives_the_same_digests():
    first = checks.stream_digests(_stream(5))
    assert len(first) == 3 and len(set(first)) == 3
    assert checks.stream_digests(_stream(5)) == first
    assert checks.stream_digests(_stream(6)) != first


def test_digest_sees_bounds_uncertain_sizes_and_rebuilds():
    snapshot = _stream(5)[0]
    base = checks.snapshot_digest(snapshot)
    name = next(iter(snapshot.errors))
    snapshot.errors[name].highs[0] += 1e-9
    moved = checks.snapshot_digest(snapshot)
    assert moved != base
    block = next(iter(snapshot.uncertain_sizes))
    snapshot.uncertain_sizes[block] += 1
    grown = checks.snapshot_digest(snapshot)
    assert grown != moved
    snapshot.rebuilds.append(block)
    assert checks.snapshot_digest(snapshot) != grown


def test_record_digest_ignores_id_and_timing_only():
    record = {"type": "snapshot", "query_id": "q1", "elapsed_s": 0.5,
              "batch": 1, "rows": [{"x": 1.5}], "uncertain": 3}
    same = dict(record, query_id="q9", elapsed_s=0.7)
    assert checks.record_digest(record) == checks.record_digest(same)
    other = dict(record, uncertain=4)
    assert checks.record_digest(record) != checks.record_digest(other)


def test_table_mismatch():
    from repro import Table

    exact = Table.from_columns({
        "k": np.array([1, 2, 10], dtype=np.int64),
        "v": np.array([1.0, np.nan, 3.0]),
        "q": np.array([5.0, 6.0, 7.0]),
    })
    # The online engine boxes keys and may emit groups in any order.
    online = Table.from_columns({
        "k": np.array([10, 1, 2], dtype=object),
        "v": np.array([3.0 * (1 + 1e-10), 1.0, np.nan]),
        "q": np.array([7.7, 5.5, 6.6]),
    })
    assert checks.table_mismatch(online, exact, exempt={"q"}) is None
    assert "'q'" in checks.table_mismatch(online, exact)
    off = Table.from_columns({
        "k": np.array([10, 1, 2], dtype=object),
        "v": np.array([3.0 * (1 + 1e-6), 1.0, np.nan]),
        "q": np.array([7.0, 5.0, 6.0]),
    })
    assert "'v'" in checks.table_mismatch(off, exact)
    assert "rows" in checks.table_mismatch(online.take(np.array([0, 1])),
                                           exact)


# -- compare.py verdicts --------------------------------------------------


def _runs(pass_values, failed=0):
    return {"nested_mem": [
        {"workload": "nested_mem", "trace": 0, "attempted": 10,
         "failed": failed,
         "metrics": {name: {"value": value if name == "pass_s" else 1.0,
                            "unit": unit}
                     for name, (unit, _, _) in metrics.END_TO_END.items()}}
        for value in pass_values
    ]}


def test_verdicts():
    bound = 0.10
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, steady, "lower", bound)[0] == "ok"
    slower = [v * 1.2 for v in steady]
    assert compare.verdict(steady, slower, "lower", bound)[0] == "worse"
    assert compare.verdict(slower, steady, "lower", bound)[0] == "ok"
    assert compare.verdict(slower, steady, "higher", bound)[0] == "worse"
    noisy = [0.8, 1.3, 0.9, 1.2, 1.0, 0.7, 1.4, 1.1, 0.85, 1.25]
    assert compare.verdict(steady, noisy, "lower", bound)[0] == "unresolved"
    # One run a side: no spread to speak of, the ratio decides.
    assert compare.verdict([1.0], [1.05], "lower", bound)[0] == "ok"
    assert compare.verdict([1.0], [1.5], "lower", bound)[0] == "worse"


def test_compare_counts_worse_lines_and_failures(tmp_path, capsys):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.compare(_runs(steady), _runs(steady)) == 0
    assert compare.compare(_runs(steady),
                           _runs([v * 2 for v in steady])) == 1
    assert compare.compare(_runs(steady), _runs(steady, failed=1)) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "failed_frac" in out

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, runs in ((a, _runs(steady)), (b, _runs([3.0] * 5))):
        path.write_text("".join(
            json.dumps(r) + "\n" for r in runs["nested_mem"]))
    assert compare.main(["compare.py", str(a), str(a)]) == 0
    assert compare.main(["compare.py", str(a), str(b)]) == 1


# -- BENCHMARK.json says what the code measures -----------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"][-1] == "benchmarks/ledger/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == metrics.PER_LAYER
    assert len(metrics.PER_LAYER) <= 128


def test_baseline_has_a_number_for_every_metric_of_this_commit():
    # BENCHMARK.json's keys are fixed by the driver; this commit's
    # numbers are in baseline.json beside the code that measured them.
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert set(baseline["end_to_end"]) == set(metrics.WORKLOADS)
    for workload in metrics.WORKLOADS:
        assert baseline["failed"][workload] == 0
        assert baseline["attempted"][workload] > 0
        rows = baseline["end_to_end"][workload]
        assert set(rows) == set(metrics.END_TO_END)
        for row in rows.values():
            assert row["q1"] <= row["median"] <= row["q3"]
            assert row["median"] > 0
        layers = baseline["per_layer"][workload]
        assert set(layers) == set(metrics.PER_LAYER)
        # A layer the workload does not reach is null, not 0.
        assert any(v is None for v in layers.values())
        assert layers["obs.trace_overhead_frac"] is not None
