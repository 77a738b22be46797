"""The one ``key=value`` spec parser behind every ``XConfig.parse``,
and a guard that every config field is read by the package."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro.config
from repro.config import (
    FaultsConfig,
    GolaConfig,
    ParallelConfig,
    ServeConfig,
)

# (class, its CLI flag, spec, the fields the spec must set)
ROUND_TRIPS = [
    (FaultsConfig, "--faults",
     "worker_kill_prob=0.3,checkpoint_every=1,seed=7,checkpoint_path=/tmp/ck",
     {"enabled": True, "worker_kill_prob": 0.3, "checkpoint_every": 1,
      "seed": 7, "checkpoint_path": "/tmp/ck"}),
    (ParallelConfig, "--workers",
     "workers=1,task_deadline_s=2.5,min_shard_rows=64",
     {"workers": 1, "task_deadline_s": 2.5, "min_shard_rows": 64}),
    (ServeConfig, "--serve",
     "max_concurrent=8,queue_depth=32,port=9000,max_steps_per_turn=3,"
     "default_deadline_s=1.5,host=0.0.0.0",
     {"max_concurrent": 8, "queue_depth": 32, "port": 9000,
      "max_steps_per_turn": 3, "default_deadline_s": 1.5,
      "host": "0.0.0.0"}),
]
IDS = [case[0].__name__ for case in ROUND_TRIPS]


@pytest.mark.parametrize("cls,flag,spec,expected", ROUND_TRIPS, ids=IDS)
class TestSpecParser:
    def test_round_trips_one_field_of_each_declared_type(
            self, cls, flag, spec, expected):
        config = cls.parse(spec)
        for name, value in expected.items():
            got = getattr(config, name)
            assert got == value and type(got) is type(value), name

    def test_untouched_fields_keep_their_defaults(
            self, cls, flag, spec, expected):
        config, default = cls.parse(spec), cls()
        for name in set(vars(default)) - set(expected):
            assert getattr(config, name) == getattr(default, name), name

    def test_unknown_key_names_the_flag(self, cls, flag, spec, expected):
        with pytest.raises(ValueError, match=f"unknown {flag} key 'bogus'"):
            cls.parse("bogus=1")
        with pytest.raises(ValueError, match=f"unknown {flag} key"):
            cls.parse("no_equals_sign")


def test_workers_bare_integer_is_shorthand():
    assert ParallelConfig.parse("4") == ParallelConfig(workers=4)
    assert ParallelConfig.parse(" 2 ").workers == 2


def test_empty_faults_spec_is_the_enabled_default_profile():
    assert FaultsConfig.parse("") == FaultsConfig(enabled=True)
    assert not FaultsConfig.parse("enabled=0").enabled


def test_empty_spec_elsewhere_is_the_defaults():
    for cls in (ParallelConfig, ServeConfig):
        assert cls.parse("") == cls()


def test_parsed_values_still_pass_validation():
    with pytest.raises(ValueError, match="max_concurrent"):
        ServeConfig.parse("max_concurrent=0")


def test_deleted_scan_cache_knob_is_an_unknown_key():
    # Partitions are shared through the session's batch store, always.
    with pytest.raises(ValueError, match="unknown --serve key 'scan_cache'"):
        ServeConfig.parse("scan_cache=0")


def test_deleted_serve_knobs_are_unknown_keys():
    # Serve histograms are always recorded; serve faults are gone.
    with pytest.raises(ValueError, match="unknown --serve key 'telemetry'"):
        ServeConfig.parse("telemetry=0")
    with pytest.raises(ValueError,
                       match="unknown --faults key 'step_failure_prob'"):
        FaultsConfig.parse("step_failure_prob=0.3")


def test_harness_and_serve_knobs_are_not_run_config():
    # A GolaConfig describes one run; the fuzz/calibrate harness takes
    # its flags directly and the scheduler takes its ServeConfig.
    for name in ("qa", "serve"):
        with pytest.raises(TypeError):
            GolaConfig(**{name: None})


def test_deleted_parallel_modes_are_rejected():
    # Every shard pool is a supervised process pool.
    with pytest.raises(ValueError, match="unknown --workers key 'backend'"):
        ParallelConfig.parse("backend=thread")
    with pytest.raises(ValueError, match="unknown --workers key 'supervise'"):
        ParallelConfig.parse("supervise=0")


def test_deleted_task_retries_is_an_unknown_key():
    # A shard the pool fails runs once on the coordinator: no retries.
    with pytest.raises(ValueError,
                       match="unknown --workers key 'task_retries'"):
        ParallelConfig.parse("task_retries=3")


def _on_args(node):
    """True for ``args.x``: an argparse namespace, not a config."""
    return isinstance(node, ast.Name) and node.id == "args"


def _names_read_outside_config():
    """Attribute names loaded, and ``getattr`` string names, in
    ``src/repro/**/*.py`` except ``config.py`` itself.  Reads off an
    argparse namespace named ``args`` do not count: a CLI flag that
    shares a field's name is not a read of the field."""
    root = Path(repro.__file__).parent
    names = set()
    for path in root.rglob("*.py"):
        if path == root / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load) and \
                    not _on_args(node.value):
                names.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and not _on_args(node.args[0])
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                names.add(node.args[1].value)
    return names


def test_every_config_field_is_read_somewhere():
    # A field nothing outside config.py reads is a knob that does nothing.
    read = _names_read_outside_config()
    config_classes = [
        cls for _, cls in inspect.getmembers(repro.config, inspect.isclass)
        if dataclasses.is_dataclass(cls)
        and cls.__module__ == repro.config.__name__
    ]
    assert config_classes
    unread = sorted(
        f"{cls.__name__}.{f.name}"
        for cls in config_classes for f in dataclasses.fields(cls)
        if f.name not in read
    )
    assert unread == []
