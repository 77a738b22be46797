"""The differential fuzz harness end to end.

Marked ``smoke``: this is the PR-time guarantee that the qa subsystem
itself works — a clean seeded sweep agrees across all execution paths,
an injected bug is caught (the harness can't silently rot), and a
divergent case shrinks to a replayable one-file reproducer.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.guards import BlockGuards

from repro.qa import (
    DifferentialRunner,
    FuzzCase,
    QueryGenerator,
    Shrinker,
    generate_table,
    load_artifact,
    random_dim_spec,
    random_fact_spec,
    replay_artifact,
    save_artifact,
)
from repro.qa.cli import run_fuzz
from repro.qa.generator import Predicate

pytestmark = pytest.mark.smoke


def make_cases(seed=0, rows=512, count=6, inject_bug=None):
    rng = np.random.default_rng(seed)
    fact = random_fact_spec(rng, rows=rows, seed=seed)
    dim = random_dim_spec(rng, fact, seed=seed + 1)
    gen = QueryGenerator(
        fact, generate_table(fact),
        dims={dim.name: (dim, generate_table(dim))}, seed=seed,
    )
    return [
        FuzzCase(tables=(fact, dim), query=gen.generate(),
                 num_batches=3, bootstrap_trials=8, seed=seed + i,
                 inject_bug=inject_bug)
        for i in range(count)
    ]


class TestCleanSweep:
    def test_seeded_sweep_has_zero_divergences(self):
        runner = DifferentialRunner(workers=2)
        for case in make_cases(seed=0, count=8):
            report = runner.run_case(case)
            assert not report.diverged, (case.sql, report.divergences)

    def test_sweep_through_serve_scheduler_agrees(self):
        runner = DifferentialRunner(workers=2, include_serve=True)
        for case in make_cases(seed=5, count=2):
            report = runner.run_case(case)
            assert not report.diverged, (case.sql, report.divergences)
            assert report.outcomes["serve"].status == "ok"


class TestInjectedBug:
    def test_injected_bug_is_caught(self):
        """The harness's negative control: a corrupted path must be
        reported as divergent, or the fuzzer is worthless."""
        runner = DifferentialRunner(workers=2)
        caught = 0
        for case in make_cases(seed=1, count=6, inject_bug="serial"):
            report = runner.run_case(case)
            if report.diverged:
                caught += 1
                assert any("serial" in d for d in report.divergences)
        assert caught >= 1

    def test_cli_sweep_fails_on_injected_bug(self, tmp_path):
        qa = dict(queries=6, seed=1, rows=512, num_batches=3,
                  bootstrap_trials=8,
                  artifact_dir=str(tmp_path / "artifacts"))
        out = tmp_path / "report.json"
        code = run_fuzz(**qa, out=str(out), inject_bug="serial")
        assert code == 1
        body = json.loads(out.read_text())
        assert body["divergences"] >= 1
        assert body["artifacts"]  # reproducers were written

    def test_cli_clean_sweep_exits_zero(self, tmp_path):
        qa = dict(queries=6, seed=2, rows=512, num_batches=3,
                  bootstrap_trials=8,
                  artifact_dir=str(tmp_path / "artifacts"))
        out = tmp_path / "report.json"
        code = run_fuzz(**qa, out=str(out))
        assert code == 0
        body = json.loads(out.read_text())
        assert body["queries"] == 6 and body["divergences"] == 0


class TestHarnessHealth:
    def test_parallel_path_shards_folds(self, tmp_path):
        """The parallel path must reach the pool, or the sweep only
        re-runs the serial path under another name."""
        qa = dict(queries=3, seed=2, rows=512, num_batches=3,
                  bootstrap_trials=8,
                  artifact_dir=str(tmp_path / "artifacts"))
        out = tmp_path / "report.json"
        assert run_fuzz(**qa, out=str(out)) == 0
        assert json.loads(out.read_text())["sharded_folds"] > 0

    def test_sweep_that_shards_nothing_exits_2(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(DifferentialRunner, "_parallel",
                            DifferentialRunner._serial)
        qa = dict(queries=2, seed=2, rows=512, num_batches=3,
                  bootstrap_trials=8,
                  artifact_dir=str(tmp_path / "artifacts"))
        out = tmp_path / "report.json"
        assert run_fuzz(**qa, out=str(out)) == 2
        assert json.loads(out.read_text())["sharded_folds"] == 0


class TestRebuildProperty:
    """A ``guard_sub`` query that reads no MIN/MAX slot may rebuild at no
    more than half its batches; its report records the count."""

    def _case(self, func):
        case = make_cases(seed=0, count=1)[0]
        fact = case.tables[0]
        col = next(c.name for c in fact.columns if c.kind == "float")
        where = Predicate(
            f"{col} > (SELECT {func}({col}) FROM {fact.name})", "guard_sub")
        return replace(case, query=replace(case.query, predicates=(where,)))

    @pytest.mark.parametrize("func", ["AVG", "MAX"])
    def test_rebuilding_every_batch_diverges_unless_min_max(
            self, func, monkeypatch):
        monkeypatch.setattr(BlockGuards, "violation",
                            lambda guards, ienv: "forced"
                            if guards.guards else None)
        report = DifferentialRunner(workers=2).run_case(self._case(func))
        batches = report.case.num_batches
        assert report.rebuilt_batches == batches
        assert report.to_dict()["rebuilt_batches"] == batches
        tripped = [d for d in report.divergences if "rebuilt at" in d]
        assert bool(tripped) == (func == "AVG"), report.divergences


class TestShrinkerAndReproducers:
    def _first_divergent(self, runner, cases):
        for case in cases:
            report = runner.run_case(case)
            if report.diverged:
                return case, report
        raise AssertionError("no divergent case found")

    def test_shrinks_to_minimal_replayable_reproducer(self, tmp_path):
        runner = DifferentialRunner(workers=2)
        case, report = self._first_divergent(
            runner, make_cases(seed=3, count=6, inject_bug="serial")
        )
        shrinker = Shrinker(runner)
        minimal, min_report = shrinker.shrink(case, report)
        assert min_report.diverged

        # Structurally minimal: no further simplification diverges
        # (guaranteed by the fixpoint loop), and no larger than the
        # original along every axis.
        assert len(minimal.query.predicates) <= \
            len(case.query.predicates)
        assert len(minimal.query.aggregates) <= \
            len(case.query.aggregates)
        assert all(m.rows <= o.rows
                   for m, o in zip(minimal.tables, case.tables))

        path = save_artifact(minimal, min_report,
                             tmp_path / "repro.json")
        loaded = load_artifact(path)
        assert loaded.sql == minimal.sql

        # The replay must reproduce the *same* divergence.
        replayed = replay_artifact(path, runner)
        assert replayed.diverged
        assert replayed.divergences == min_report.divergences

    def test_artifact_kind_is_validated(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            load_artifact(bogus)

    def test_shrink_refuses_non_divergent_case(self):
        runner = DifferentialRunner(workers=2)
        case = make_cases(seed=0, count=1)[0]
        with pytest.raises(ValueError):
            Shrinker(runner).shrink(case)
