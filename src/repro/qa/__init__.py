"""repro.qa — differential query fuzzer and statistical calibration.

The correctness backbone of the reproduction: a standing adversarial
process instead of per-test assertions.

* :mod:`repro.qa.tables` — seeded random table specs (JSON-round-trip,
  shrinkable) materialized deterministically into engine tables.
* :mod:`repro.qa.generator` — seeded random-but-valid SQL over any
  catalog schema, biased toward nested-aggregate predicates.
* :mod:`repro.qa.compare` — float-tolerant structural table comparison
  with a self-test that catches comparator bugs.
* :mod:`repro.qa.runner` — the differential runner: exact batch vs CDM
  vs serial G-OLA vs worker-parallel G-OLA (vs the serve scheduler).
* :mod:`repro.qa.shrink` — failing-query minimization and one-file
  reproducer artifacts (``python -m repro fuzz --replay``).
* :mod:`repro.qa.calibrate` — empirical bootstrap-CI coverage versus an
  exact binomial acceptance band around nominal confidence.
* :mod:`repro.qa.identity` — the bundled queries' stream fingerprints,
  recorded in and checked against ``tests/fingerprints.json``.

CLI: ``python -m repro fuzz`` and ``python -m repro calibrate``.
"""

from .calibrate import (
    CalibrationConfig,
    CalibrationReport,
    CalibrationResult,
    binomial_band,
    calibrate,
    calibration_queries,
)
from .compare import ComparatorBroken, assert_self_test, compare_tables, \
    self_test
from .generator import AggItem, Predicate, QueryGenerator, QuerySpec, \
    WindowItem, shrink_candidates
from .runner import CaseReport, DifferentialRunner, FuzzCase, PathOutcome
from .shrink import (
    Shrinker,
    artifact_dict,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from .tables import ColumnSpec, TableSpec, generate_table, \
    random_dim_spec, random_fact2_spec, random_fact_spec

__all__ = [
    "AggItem",
    "CalibrationConfig",
    "CalibrationReport",
    "CalibrationResult",
    "CaseReport",
    "ColumnSpec",
    "ComparatorBroken",
    "DifferentialRunner",
    "FuzzCase",
    "PathOutcome",
    "Predicate",
    "QueryGenerator",
    "QuerySpec",
    "Shrinker",
    "TableSpec",
    "WindowItem",
    "artifact_dict",
    "assert_self_test",
    "binomial_band",
    "calibrate",
    "calibration_queries",
    "compare_tables",
    "generate_table",
    "load_artifact",
    "random_dim_spec",
    "random_fact2_spec",
    "random_fact_spec",
    "replay_artifact",
    "save_artifact",
    "self_test",
    "shrink_candidates",
]
