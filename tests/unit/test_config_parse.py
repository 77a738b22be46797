"""The one ``key=value`` spec parser behind every ``XConfig.parse``."""

import pytest

from repro.config import (
    FaultsConfig,
    ParallelConfig,
    QaConfig,
    ServeConfig,
    StorageConfig,
)

# (class, its CLI flag, spec, the fields the spec must set)
ROUND_TRIPS = [
    (FaultsConfig, "--faults",
     "batch_failure_prob=0.3,max_retries=1,seed=7,speculate=false,"
     "checkpoint_path=/tmp/ck",
     {"enabled": True, "batch_failure_prob": 0.3, "max_retries": 1,
      "seed": 7, "speculate": False, "checkpoint_path": "/tmp/ck"}),
    (ParallelConfig, "--workers",
     "workers=1,task_deadline_s=2.5,backend=thread,supervise=0",
     {"workers": 1, "task_deadline_s": 2.5, "backend": "thread",
      "supervise": False}),
    (ServeConfig, "--serve",
     "max_concurrent=8,queue_depth=32,port=9000,telemetry=false,"
     "default_deadline_s=1.5,host=0.0.0.0",
     {"max_concurrent": 8, "queue_depth": 32, "port": 9000,
      "telemetry": False, "default_deadline_s": 1.5, "host": "0.0.0.0"}),
    (StorageConfig, "--storage",
     " projection_every = 3 , mmap=no,projections=yes,projection_dir=p ",
     {"projection_every": 3, "mmap": False, "projections": True,
      "projection_dir": "p"}),
    (QaConfig, "--qa",
     "queries=7,rtol=1e-3,include_serve=true,grammar=deep",
     {"queries": 7, "rtol": 1e-3, "include_serve": True,
      "grammar": "deep"}),
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
    for cls in (ParallelConfig, ServeConfig, StorageConfig, QaConfig):
        assert cls.parse("") == cls()


def test_parsed_values_still_pass_validation():
    with pytest.raises(ValueError, match="max_concurrent"):
        ServeConfig.parse("max_concurrent=0")


def test_deleted_scan_cache_knob_is_an_unknown_key():
    # Partitions are shared through the session's batch store, always.
    with pytest.raises(ValueError, match="unknown --serve key 'scan_cache'"):
        ServeConfig.parse("scan_cache=0")
