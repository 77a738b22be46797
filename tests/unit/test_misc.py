"""Unit tests for config validation, errors, results and the console."""

import io

import numpy as np
import pytest

from repro import GolaConfig, RangeViolation, ReproError
from repro.core.result import ColumnErrors, OnlineSnapshot
from repro.errors import ParseError
from repro.frontends import (
    ProgressConsole,
    error_bar,
    progress_bar,
    render_snapshot,
)
from repro.storage import Table


class TestGolaConfig:
    def test_defaults_valid(self):
        GolaConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_batches": 0},
            {"bootstrap_trials": 1},
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"epsilon_multiplier": -0.1},
            {"trace_rotate_mb": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GolaConfig(**kwargs)

    def test_with_options(self):
        base = GolaConfig(seed=1)
        tweaked = base.with_options(num_batches=42)
        assert tweaked.num_batches == 42 and tweaked.seed == 1
        assert base.num_batches != 42  # frozen original untouched


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ParseError, ReproError)
        assert issubclass(RangeViolation, ReproError)

    def test_range_violation_message(self):
        err = RangeViolation("slot#0", 5.0, 1.0, 2.0)
        assert "slot#0" in str(err) and "escaped" in str(err)

    def test_parse_error_position(self):
        err = ParseError("bad", position=4, text="ab\ncd")
        assert "line 2" in str(err)


def make_snapshot(values, lows=None, highs=None, rel=None):
    table = Table.from_columns({"v": np.asarray(values, dtype=np.float64)})
    errors = {}
    if lows is not None:
        errors["v"] = ColumnErrors(
            lows=np.asarray(lows), highs=np.asarray(highs),
            rel_stdev=np.asarray(rel),
        )
    return OnlineSnapshot(
        batch_index=2, num_batches=4, table=table, errors=errors,
        uncertain_sizes={"main": 7}, rows_processed={"main": 100},
        rebuilds=[], elapsed_s=0.01, confidence=0.95,
    )


class TestSnapshot:
    def test_scalar_conveniences(self):
        snap = make_snapshot([10.0], [9.0], [11.0], [0.05])
        assert snap.estimate == 10.0
        assert snap.interval.low == 9.0 and snap.interval.high == 11.0
        assert snap.relative_stdev == 0.05
        assert snap.fraction == 0.5 and not snap.is_final

    def test_scalar_access_rejected_for_tables(self):
        snap = make_snapshot([1.0, 2.0])
        with pytest.raises(ValueError, match="single value"):
            _ = snap.estimate

    def test_missing_errors_degenerate_interval(self):
        snap = make_snapshot([3.0])
        assert snap.interval.width == 0.0
        # No replica support -> the error is unknown, not zero.
        assert np.isnan(snap.relative_stdev)
        assert "rsd=n/a" in snap.describe()

    def test_describe(self):
        snap = make_snapshot([10.0], [9.0], [11.0], [0.05])
        text = snap.describe()
        assert "batch 2/4" in text and "uncertain=7" in text


class TestConsole:
    def test_progress_bar(self):
        assert progress_bar(0.5, width=10) == "[#####.....]"
        assert progress_bar(-1.0, width=4) == "[....]"
        assert progress_bar(2.0, width=4) == "[####]"

    def test_error_bar_positions_marker(self):
        bar = error_bar(0.0, 5.0, 10.0, width=11)
        assert bar[5] == "*" and bar[0] == "|" and bar[-1] == "|"
        assert error_bar(0.0, 0.0, 0.0).strip() == "*"

    def test_render_snapshot_scalar(self):
        snap = make_snapshot([10.0], [9.0], [11.0], [0.05])
        text = render_snapshot(snap)
        assert "estimate" in text and "uncertain set: 7" in text

    def test_render_snapshot_table(self):
        snap = make_snapshot([1.0, 2.0])
        text = render_snapshot(snap)
        assert "v" in text

    def test_progress_console_streams(self):
        sink = io.StringIO()
        console = ProgressConsole(sink=sink)
        console.update(make_snapshot([10.0], [9.0], [11.0], [0.01]))
        console.finish()
        out = sink.getvalue()
        assert "batch 2/4" in out and "done after 1" in out

    def test_rebuilds_surfaced(self):
        snap = make_snapshot([10.0], [9.0], [11.0], [0.05])
        snap.rebuilds.append("main")
        assert "RECOMPUTED" in render_snapshot(snap)
