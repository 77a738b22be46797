"""Seeded, deterministic fault injection.

The injector is the single source of "what goes wrong" for the whole
stack.  Components declare *named fault points*
(``controller.batch_load``, ``storage.row``, ...) in a process-wide
registry; at runtime each point draws from its own RNG stream derived
from the fault seed through the point's name, so

* two runs with the same :class:`~repro.config.FaultsConfig` inject
  identical fault sequences (the determinism the acceptance tests pin);
* adding draws at one point never perturbs another point's stream.

A disabled injector (the default) never touches an RNG and answers every
query with "no fault" — the hot paths stay bit-identical to a build
without the subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..config import FaultsConfig
from ..estimate.random_source import derive_rng
from ..obs import NULL_TRACER, Tracer

#: The fault kinds a point may declare.
FAULT_KINDS = ("batch", "row", "worker")


@dataclass(frozen=True)
class FaultPoint:
    """One named site in the stack where faults may be injected."""

    name: str
    kind: str
    description: str = ""


_REGISTRY: Dict[str, FaultPoint] = {}


def register_fault_point(name: str, kind: str,
                         description: str = "") -> FaultPoint:
    """Declare (idempotently) a named fault point.

    Registration is documentation plus validation: the injector refuses
    draws for unregistered points, so the set of places faults can occur
    is enumerable (``fault_points()``) rather than scattered.
    """
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}; one of {FAULT_KINDS}")
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing.kind != kind:
            raise ValueError(
                f"fault point {name!r} already registered with kind "
                f"{existing.kind!r}"
            )
        return existing
    point = FaultPoint(name=name, kind=kind, description=description)
    _REGISTRY[name] = point
    return point


def fault_points() -> Dict[str, FaultPoint]:
    """A copy of the fault-point registry (name -> point)."""
    return dict(_REGISTRY)


# The built-in fault points, one per layer the subsystem cuts across.
register_fault_point(
    "controller.batch_load", "batch",
    "loading a mini-batch fails; retried, then skipped-and-reweighted",
)
register_fault_point(
    "storage.row", "row",
    "an input row is corrupted at load time and quarantined",
)
register_fault_point(
    "parallel.worker_kill", "worker",
    "a pool worker is SIGKILLed mid-shard; the supervisor rebuilds the "
    "pool and re-dispatches the lost shards",
)
register_fault_point(
    "parallel.worker_hang", "worker",
    "a pool worker hangs past the task deadline; the pool is abandoned "
    "and the shard re-dispatched",
)
register_fault_point(
    "parallel.result_corrupt", "worker",
    "a worker's partial aggregate state is corrupted in flight; the "
    "merge-time integrity check rejects it and the shard re-runs",
)


class FaultInjector:
    """Draws deterministic fault decisions for registered fault points.

    One injector per run; its per-point RNG streams are part of the
    run's checkpointable state (:meth:`state_dict` / :meth:`restore`)
    so a resumed run injects exactly the faults the uninterrupted run
    would have.
    """

    def __init__(self, config: Optional[FaultsConfig] = None,
                 master_seed: int = 0,
                 tracer: Optional[Tracer] = None):
        self.config = config if config is not None else FaultsConfig()
        self.enabled = self.config.enabled
        self.seed = (
            self.config.seed if self.config.seed is not None else master_seed
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rngs: Dict[str, np.random.Generator] = {}

    @classmethod
    def from_config(cls, config, tracer: Optional[Tracer] = None
                    ) -> "FaultInjector":
        """Build from a :class:`~repro.config.GolaConfig`."""
        return cls(getattr(config, "faults", None),
                   master_seed=getattr(config, "seed", 0), tracer=tracer)

    # -- streams ---------------------------------------------------------

    def _rng(self, point: str) -> np.random.Generator:
        if point not in _REGISTRY:
            raise ValueError(f"unregistered fault point {point!r}")
        rng = self._rngs.get(point)
        if rng is None:
            rng = self._rngs[point] = derive_rng(self.seed, f"faults:{point}")
        return rng

    def _failures(self, rng: np.random.Generator, prob: float,
                  size: int) -> np.ndarray:
        """Consecutive failed attempts before the first success, per draw."""
        if prob >= 1.0:
            # Never succeeds; report one more failure than any retry
            # budget could absorb.
            return np.full(size, self.config.max_retries + 1, dtype=np.int64)
        return rng.geometric(1.0 - prob, size=size).astype(np.int64) - 1

    # -- decision API ----------------------------------------------------

    def worker_faults(self, num_tasks: int) -> Dict[str, np.ndarray]:
        """Per-task worker-fault plans for one supervised ``map``.

        Returns ``{"kill": k, "hang": h, "corrupt": c}`` where each
        entry is an ``(num_tasks,)`` int array: attempt ``a`` of task
        ``t`` is injected with that fault while ``a < plan[t]`` (so a
        task's first clean attempt is deterministic).  Draw order is
        fixed (kill, hang, corrupt from their own streams), keeping the
        plans independent of each other and of every other fault point.
        """
        n = max(num_tasks, 0)
        zeros = np.zeros(n, dtype=np.int64)
        if not self.enabled or n == 0:
            return {"kill": zeros, "hang": zeros.copy(),
                    "corrupt": zeros.copy()}
        cfg = self.config
        plans = {}
        for key, point, prob in (
            ("kill", "parallel.worker_kill", cfg.worker_kill_prob),
            ("hang", "parallel.worker_hang", cfg.worker_hang_prob),
            ("corrupt", "parallel.result_corrupt", cfg.result_corrupt_prob),
        ):
            if prob <= 0.0:
                plans[key] = zeros.copy()
            else:
                plans[key] = self._failures(self._rng(point), prob, n)
        return plans

    def batch_load_failures(self, point: str) -> int:
        """Failed attempts before a mini-batch load would succeed."""
        if not self.enabled or self.config.batch_failure_prob <= 0.0:
            return 0
        return int(self._failures(
            self._rng(point), self.config.batch_failure_prob, 1
        )[0])

    def corrupted_rows(self, point: str, num_rows: int) -> np.ndarray:
        """Boolean mask of input rows to corrupt at load time."""
        if not self.enabled or self.config.row_corruption_prob <= 0.0 \
                or num_rows <= 0:
            return np.zeros(max(num_rows, 0), dtype=bool)
        rng = self._rng(point)
        return rng.random(num_rows) < self.config.row_corruption_prob

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Dict[str, dict]:
        """Per-point RNG states (resume restores the exact streams)."""
        return {
            point: rng.bit_generator.state
            for point, rng in self._rngs.items()
        }

    def restore(self, state: Dict[str, dict]) -> None:
        for point, rng_state in state.items():
            rng = self._rng(point)
            rng.bit_generator.state = rng_state


#: Shared always-disabled injector (the default wherever none is given).
NULL_INJECTOR = FaultInjector(FaultsConfig(), master_seed=0)


def describe_fault_points() -> str:
    """Human-readable listing of every registered fault point."""
    lines = []
    for name in sorted(_REGISTRY):
        point = _REGISTRY[name]
        lines.append(f"{name:<26} [{point.kind}]  {point.description}")
    return "\n".join(lines)
