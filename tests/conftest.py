"""Shared fixtures: small deterministic tables, catalogs and sessions.

Also registers the Hypothesis profiles the CI matrix selects via the
``HYPOTHESIS_PROFILE`` environment variable:

* ``ci`` — derandomized (a PR re-run sees the same examples) with a
  fixed generous deadline so slow shared runners don't flake.
* ``nightly`` — many more examples per property, for the scheduled
  deep sweep; not derandomized, so every night explores new inputs.
* ``default`` — Hypothesis defaults for local development.

And an autouse leak net: a test that leaves a pool worker process or a
``repro-*`` shared-memory segment behind fails.
"""

import gc
import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import settings

from repro import GolaConfig, GolaSession
from repro.storage import Catalog, Table

settings.register_profile(
    "ci", derandomize=True, deadline=2000, max_examples=100,
)
settings.register_profile(
    "nightly", deadline=None, max_examples=1000,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: How long a dropped pool gets to stop its workers once collected.
LEAK_GRACE_S = 10.0


def _children():
    return {proc.pid for proc in multiprocessing.active_children()}


def _segments():
    return set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(autouse=True)
def _leak_net():
    """Fail a test that leaves a live pool worker or a ``repro-*``
    segment behind.

    What the test merely dropped is collected first: a session's (or a
    registry's) finalizer then stops its workers and unlinks its
    segment, as it would in a program.  Leaked workers are killed before
    the failure, so they do not spill into the next test; segments are
    only reported (their owner may be another process).
    """
    children, segments = _children(), _segments()
    yield
    leaked_children = _children() - children
    leaked_segments = _segments() - segments
    if leaked_children or leaked_segments:
        gc.collect()
        deadline = time.monotonic() + LEAK_GRACE_S
        while True:
            leaked_children = _children() - children
            leaked_segments = _segments() - segments
            if not (leaked_children or leaked_segments) \
                    or time.monotonic() > deadline:
                break
            time.sleep(0.05)
    for pid in leaked_children:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert not leaked_children, (
        f"test left {len(leaked_children)} worker process(es) running")
    assert not leaked_segments, (
        f"test left shared-memory segments: {sorted(leaked_segments)}")


@pytest.fixture
def small_table():
    """A 6-row mixed-type table used across storage/engine tests."""
    return Table.from_columns(
        {
            "id": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
            "grp": np.array(["a", "b", "a", "b", "a", "c"], dtype=object),
            "x": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            "flag": np.array([True, False, True, False, True, False]),
        }
    )


@pytest.fixture
def sessions_table():
    """A deterministic 5k-row Sessions table with a real SBI effect."""
    rng = np.random.default_rng(42)
    n = 5000
    buffer_time = rng.exponential(30.0, n)
    play_time = rng.exponential(300.0, n) * np.exp(-0.02 * buffer_time)
    return Table.from_columns(
        {
            "session_id": np.arange(1, n + 1, dtype=np.int64),
            "buffer_time": buffer_time,
            "play_time": play_time,
        }
    )


@pytest.fixture
def catalog(sessions_table):
    cat = Catalog()
    cat.register("sessions", sessions_table)
    return cat


@pytest.fixture
def session(sessions_table):
    s = GolaSession(GolaConfig(num_batches=5, bootstrap_trials=30, seed=9))
    s.register_table("sessions", sessions_table)
    return s


SBI = (
    "SELECT AVG(play_time) FROM sessions "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)"
)


@pytest.fixture
def sbi_sql():
    return SBI
