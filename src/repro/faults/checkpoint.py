"""Checkpoint/resume for online runs.

A :class:`RunCheckpoint` captures everything a
:class:`~repro.core.controller.QueryController` needs to continue an
online run from the last completed mini-batch instead of from scratch:

* progress — the last batch index;
* per-block delta state — the block's guards, its uncertain cache, its
  error fold (exact states, presence and bootstrap or closed-form error
  state) and its group index, deep-copied so the live run can keep
  mutating.

Nothing per batch is saved, so a checkpoint's size follows the block
states, not the rows read.  A resumed run re-reads its batches from the
session's batch store and each batch's Poisson weights by batch index
(the streams are stateless), which is all a guard rebuild needs.

Checkpoints are fingerprinted against the query plan and the
statistically relevant config knobs; restoring against a different query
or config raises :class:`~repro.errors.CheckpointError` instead of
silently producing garbage.  ``save``/``load`` use pickle — fine for
numpy state and plan objects; UDAF closures are the one thing that may
not round-trip through a file (in-memory checkpoints carry them fine).
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

from ..errors import CheckpointError

CHECKPOINT_VERSION = 6


def config_fingerprint(config) -> str:
    """Hash of the config fields that determine the snapshot stream.

    Trace/metrics knobs are deliberately excluded: resuming with tracing
    toggled is safe and useful (e.g. resume a crashed run with tracing on
    to see why it crashed).  So are the fault knobs: row quarantine
    happens before the query and checkpointing only saves state, so
    neither can change a snapshot bit.
    """
    relevant = (
        config.num_batches, config.bootstrap_trials,
        config.epsilon_multiplier, config.confidence, config.seed,
        config.shuffle,
    )
    return hashlib.sha256(repr(relevant).encode()).hexdigest()[:16]


def query_fingerprint(query) -> str:
    """Hash of the logical plan (its stable description)."""
    return hashlib.sha256(query.describe().encode()).hexdigest()[:16]


@dataclass
class RunCheckpoint:
    """Resumable state of an online run after some completed batch."""

    query_fp: str
    config_fp: str
    batch_index: int  # last batch folded
    block_states: Dict[str, dict]
    version: int = CHECKPOINT_VERSION

    def verify(self, query, config) -> None:
        """Refuse to restore against a different query or config."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} != "
                f"{CHECKPOINT_VERSION}"
            )
        if self.query_fp != query_fingerprint(query):
            raise CheckpointError(
                "checkpoint was taken for a different query plan"
            )
        if self.config_fp != config_fingerprint(config):
            raise CheckpointError(
                "checkpoint was taken under a different configuration "
                "(batches/seed/bootstrap must match)"
            )

    def save(self, path: Union[str, Path]) -> None:
        """Pickle the checkpoint to ``path`` (atomic rename)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)

    @staticmethod
    def load(path: Union[str, Path]) -> "RunCheckpoint":
        try:
            with open(path, "rb") as fh:
                out = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise CheckpointError(
                f"cannot load checkpoint {path}: {exc}"
            ) from exc
        if not isinstance(out, RunCheckpoint):
            raise CheckpointError(f"{path} is not a run checkpoint")
        return out

    def copy_block_states(self) -> Dict[str, dict]:
        """Deep copies safe to hand to live runtimes."""
        return copy.deepcopy(self.block_states)
