"""Unit tests for the fault-injection subsystem (repro.faults)."""

import numpy as np
import pytest

from repro import FaultsConfig, SchemaError
from repro.faults import (
    FaultInjector,
    NULL_INJECTOR,
    RetryPolicy,
    RowQuarantine,
    fault_points,
    register_fault_point,
)
from repro.storage.io import read_csv


class TestFaultsConfig:
    def test_defaults_disabled(self):
        faults = FaultsConfig()
        assert not faults.enabled
        assert faults.batch_failure_prob == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultsConfig(row_corruption_prob=1.5)
        with pytest.raises(ValueError):
            FaultsConfig(worker_hang_s=-1.0)
        with pytest.raises(ValueError):
            FaultsConfig(max_retries=-1)


class TestFaultPointRegistry:
    def test_builtin_points_registered(self):
        points = fault_points()
        assert {"parallel.worker_kill", "controller.batch_load",
                "storage.row"} <= set(points)

    def test_registration_idempotent(self):
        a = register_fault_point("storage.row", "row")
        b = register_fault_point("storage.row", "row")
        assert a is b

    def test_kind_conflict_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_fault_point("storage.row", "worker")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            register_fault_point("x.y", "meteor")

    def test_unregistered_point_refused(self):
        injector = FaultInjector(FaultsConfig(enabled=True,
                                              row_corruption_prob=0.5))
        with pytest.raises(ValueError, match="unregistered"):
            injector.corrupted_rows("not.registered", 3)


class TestFaultInjector:
    def test_disabled_injector_never_faults(self):
        assert not NULL_INJECTOR.enabled
        assert not any(plan.any() for plan in
                       NULL_INJECTOR.worker_faults(100).values())
        assert NULL_INJECTOR.batch_load_failures(
            "controller.batch_load") == 0
        assert not NULL_INJECTOR.corrupted_rows("storage.row", 50).any()
        # No RNG stream was ever materialized.
        assert NULL_INJECTOR.state_dict() == {}

    def test_same_seed_same_faults(self):
        config = FaultsConfig(enabled=True, seed=11, worker_kill_prob=0.3,
                              row_corruption_prob=0.2)
        a, b = FaultInjector(config), FaultInjector(config)
        assert (a.worker_faults(200)["kill"]
                == b.worker_faults(200)["kill"]).all()
        assert (a.corrupted_rows("storage.row", 200)
                == b.corrupted_rows("storage.row", 200)).all()

    def test_streams_independent_per_point(self):
        """Draws at one point must not perturb another point's stream."""
        config = FaultsConfig(enabled=True, seed=11, worker_kill_prob=0.3,
                              row_corruption_prob=0.2)
        a, b = FaultInjector(config), FaultInjector(config)
        # b draws heavily from an unrelated point first.
        b.corrupted_rows("storage.row", 10_000)
        assert (a.worker_faults(100)["kill"]
                == b.worker_faults(100)["kill"]).all()

    def test_master_seed_used_when_unset(self):
        config = FaultsConfig(enabled=True, row_corruption_prob=0.5)
        a = FaultInjector(config, master_seed=1)
        b = FaultInjector(config, master_seed=2)
        assert (a.corrupted_rows("storage.row", 500)
                != b.corrupted_rows("storage.row", 500)).any()

    def test_certain_failure_exceeds_retry_budget(self):
        config = FaultsConfig(enabled=True, batch_failure_prob=1.0,
                              max_retries=2)
        injector = FaultInjector(config)
        fails = injector.batch_load_failures("controller.batch_load")
        assert fails > config.max_retries

    def test_state_roundtrip_resumes_stream(self):
        config = FaultsConfig(enabled=True, seed=5, worker_kill_prob=0.4)
        a = FaultInjector(config)
        a.worker_faults(50)
        state = a.state_dict()
        expected = a.worker_faults(50)["kill"]
        b = FaultInjector(config)
        b.restore(state)
        assert (b.worker_faults(50)["kill"] == expected).all()


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.1,
                             backoff_factor=2.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.total_delay(3) == pytest.approx(0.7)

    def test_gives_up_after_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.gives_up_after(2)
        assert policy.gives_up_after(3)

    def test_from_faults(self):
        faults = FaultsConfig(max_retries=5, retry_backoff_s=0.2,
                              retry_backoff_factor=3.0)
        policy = RetryPolicy.from_faults(faults)
        assert policy.max_retries == 5
        assert policy.delay(1) == pytest.approx(0.6)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


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

    def test_injector_corrupts_deterministic_rows(self, tmp_path):
        rows = "\n".join(f"{i},{i}.5" for i in range(50))
        path = self._write(tmp_path, f"id,x\n{rows}\n")
        config = FaultsConfig(enabled=True, seed=3,
                              row_corruption_prob=0.1)

        def load():
            q = RowQuarantine(error_budget=0.5)
            return read_csv(path, quarantine=q,
                            injector=FaultInjector(config)), q

        t1, q1 = load()
        t2, q2 = load()
        assert q1.count > 0
        assert q1.count == q2.count
        assert t1.num_rows == t2.num_rows == 50 - q1.count
        assert [r.line_number for r in q1.rows] == \
            [r.line_number for r in q2.rows]
