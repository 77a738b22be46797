"""Seeded, deterministic fault injection.

The injector is the single source of "what goes wrong" for the whole
stack.  Each kind of fault draws from its own RNG stream, derived from
the fault seed through the stream's name (``parallel.worker_kill``,
``parallel.worker_hang``, ``parallel.result_corrupt``, ``storage.row``),
so

* two runs with the same :class:`~repro.config.FaultsConfig` inject
  identical fault sequences (the determinism the acceptance tests pin);
* adding draws to one stream never perturbs another.

A disabled injector (the default) never touches an RNG and answers every
query with "no fault" — the hot paths stay bit-identical to a build
without the subsystem.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..config import FaultsConfig
from ..estimate.random_source import derive_rng
from ..obs import NULL_TRACER, Tracer


class FaultInjector:
    """Draws deterministic fault decisions from per-stream RNGs.

    One injector per run; its RNG streams are part of the run's
    checkpointable state (:meth:`state_dict` / :meth:`restore`) so a
    resumed run injects exactly the faults the uninterrupted run would
    have.
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

    def _rng(self, name: str) -> np.random.Generator:
        rng = self._rngs.get(name)
        if rng is None:
            rng = self._rngs[name] = derive_rng(self.seed, f"faults:{name}")
        return rng

    # -- decision API ----------------------------------------------------

    def worker_faults(self, num_tasks: int) -> Dict[str, np.ndarray]:
        """Per-task worker-fault masks for one supervised ``map``.

        Returns ``{"kill": k, "hang": h, "corrupt": c}``, each a
        ``(num_tasks,)`` bool array: task ``t``'s one pool run is
        injected with that fault where the mask is set (its serial
        fallback on the coordinator never is).  Each mask is drawn from
        its own stream, keeping them independent of each other and of
        the row stream.
        """
        n = max(num_tasks, 0)
        cfg = self.config
        return {
            key: (self._rng(name).random(n) < prob if self.enabled
                  else np.zeros(n, dtype=bool))
            for key, name, prob in (
                ("kill", "parallel.worker_kill", cfg.worker_kill_prob),
                ("hang", "parallel.worker_hang", cfg.worker_hang_prob),
                ("corrupt", "parallel.result_corrupt",
                 cfg.result_corrupt_prob),
            )
        }

    def corrupted_rows(self, num_rows: int) -> np.ndarray:
        """Boolean mask of input rows to corrupt at load time."""
        if not self.enabled or self.config.row_corruption_prob <= 0.0 \
                or num_rows <= 0:
            return np.zeros(max(num_rows, 0), dtype=bool)
        rng = self._rng("storage.row")
        return rng.random(num_rows) < self.config.row_corruption_prob

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Dict[str, dict]:
        """Per-stream RNG states (resume restores the exact streams)."""
        return {
            name: rng.bit_generator.state
            for name, rng in self._rngs.items()
        }

    def restore(self, state: Dict[str, dict]) -> None:
        for name, rng_state in state.items():
            self._rng(name).bit_generator.state = rng_state


#: Shared always-disabled injector (the default wherever none is given).
NULL_INJECTOR = FaultInjector(FaultsConfig(), master_seed=0)
