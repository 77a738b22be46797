"""Unit tests for the fault-tolerance subsystem (repro.faults)."""

import numpy as np
import pytest

from repro import FaultsConfig, SchemaError
from repro.faults import RowQuarantine
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import SupervisedPool
from repro.storage.io import read_csv

from .._faults import faulty


def _square(x):
    return x * x


class TestFaultsConfig:
    def test_defaults_disabled(self):
        """No quarantine (``load_csv`` loads strictly) and no
        auto-checkpoints."""
        faults = FaultsConfig()
        assert faults.row_error_budget == 0.0
        assert faults.checkpoint_every == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultsConfig(row_error_budget=1.5)
        with pytest.raises(ValueError):
            FaultsConfig(checkpoint_every=-1)


class TestRetryPolicy:
    """The supervised pool's policy: one pool attempt, then one serial
    run on the coordinator."""

    def test_gives_up_after_budget(self):
        """One pool attempt, killed, then one serial run on the
        coordinator."""
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        with SupervisedPool(1, deadline_s=30.0, tracer=tracer) as pool:
            assert pool.map(faulty(_square, kill=1), [3]) == [9]
            assert pool.restarts == 1
        counters = tracer.metrics.snapshot().counters
        assert counters["parallel.restarts"] == 1
        assert counters["parallel.serial_fallbacks"] == 1


class TestRowQuarantine:
    def test_collects_within_budget(self):
        q = RowQuarantine(error_budget=0.5)
        q.add(2, "x", "oops", "not an int")
        q.check_budget(10, source="t.csv")
        assert q.count == 1
        assert q.fraction == pytest.approx(0.1)
        assert "1/10" in q.summary()

    def test_over_budget_raises(self):
        q = RowQuarantine(error_budget=0.1)
        for i in range(3):
            q.add(i + 2, "x", "bad", "reason")
        with pytest.raises(SchemaError, match="error budget"):
            q.check_budget(10, source="t.csv")

    def test_empty_summary_is_none(self):
        assert RowQuarantine().summary() is None


class TestCsvQuarantine:
    def _write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return path

    def test_bool_garbage_raises_without_quarantine(self, tmp_path):
        """Satellite fix: 'maybe' must not silently parse as False."""
        from repro import Column, ColumnType, Schema

        path = self._write(tmp_path, "flag\ntrue\nmaybe\nfalse\n")
        schema = Schema([Column("flag", ColumnType.BOOL)])
        with pytest.raises(SchemaError, match="maybe"):
            read_csv(path, schema=schema)

    def test_bool_garbage_demotes_inference_to_string(self, tmp_path):
        """Without a declared schema a stray token makes the column
        STRING — visible, instead of a silent False."""
        path = self._write(tmp_path, "flag\ntrue\nmaybe\nfalse\n")
        table = read_csv(path)
        assert table.column("flag").tolist() == ["true", "maybe", "false"]

    def test_bool_tokens_still_parse(self, tmp_path):
        path = self._write(tmp_path, "flag\ntrue\nf\nYES\n0\n")
        table = read_csv(path)
        assert table.column("flag").tolist() == [True, False, True, False]

    def test_malformed_rows_quarantined_and_dropped(self, tmp_path):
        path = self._write(
            tmp_path, "id,x\n1,1.5\n2,garbage\n3,2.5\n"
        )
        q = RowQuarantine(error_budget=0.5)
        table = read_csv(path, quarantine=q)
        assert table.num_rows == 2
        assert table.column("id").tolist() == [1, 3]
        assert q.count == 1
        assert q.rows[0].line_number == 3
        assert q.rows[0].column == "x"

    def test_quarantine_over_budget_aborts_load(self, tmp_path):
        from repro import Column, ColumnType, Schema

        path = self._write(
            tmp_path, "x\n1.0\nbad\nworse\nawful\n5.0\n"
        )
        schema = Schema([Column("x", ColumnType.FLOAT64)])
        with pytest.raises(SchemaError, match="error budget"):
            read_csv(path, schema=schema,
                     quarantine=RowQuarantine(error_budget=0.2))

    def test_tolerant_inference_keeps_numeric_type(self, tmp_path):
        """One bad cell must not demote the column to STRING (which
        would let the bad row sail through unquarantined)."""
        rows = "\n".join(str(i) for i in range(40))
        path = self._write(tmp_path, f"x\n{rows}\noops\n")
        q = RowQuarantine(error_budget=0.1)
        table = read_csv(path, quarantine=q)
        assert table.column("x").dtype == np.int64
        assert table.num_rows == 40
        assert q.count == 1
