"""A block's folded state: exact states, presence and one kind of errors.

:class:`BootstrapFold` keeps trial states folded under Poisson weights
and reads ``(G, B)`` replicas; :class:`ClosedFormFold` (chosen from
lineage by :mod:`.meta_plan`) keeps exact width-1 moments and reads
``(G,)`` variances (:mod:`repro.estimate.closed_form`).  Both answer
``fold``, ``finalize``, ``column_errors``, ``window_error`` and
``intervals``, so no caller asks which kind a block has.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

import numpy as np

from ..engine.aggregates import AggState, SumState, VarState, make_state
from ..engine.operators import windowed_values
from ..errors import ExecutionError, UnsupportedQueryError
from ..estimate.closed_form import (
    count_variance,
    mean_variance,
    normal_intervals,
    sum_variance,
)
from ..estimate.intervals import basic_intervals, relative_sds, \
    relative_stdevs
from ..expr.expressions import ArrayTable


def _bump_counts(counts: np.ndarray, group_idx: np.ndarray) -> np.ndarray:
    """Increment per-group row counts, growing the array as needed."""
    if len(group_idx) == 0:
        return counts
    need = int(group_idx.max()) + 1
    if need > len(counts):
        counts = np.concatenate(
            [counts, np.zeros(need - len(counts), dtype=np.int64)]
        )
    counts[:need] += np.bincount(group_idx, minlength=need)
    return counts


class _BlockFold:
    """Exact states and presence; subclasses add the error state.  A
    fold holds states only, so a checkpoint pickles no UDAF registry."""

    def __init__(self, aggregates, seed: int, udafs=None) -> None:
        self.exact: Dict[str, AggState] = {
            call.alias: make_state(call, udafs=udafs, seed=seed + i)
            for i, call in enumerate(aggregates)
        }
        #: Folded qualifying rows per group — distinguishes "no data
        #: yet" groups (whose values are undefined) from genuine zeros.
        self.presence = np.empty(0, dtype=np.int64)

    def fold(self, rows, weights, row_idx, executor) -> None:
        """Fold deterministic-pass rows into every state.

        ``weights`` is the rows' dense ``(m, B)`` matrix, or — for
        freshly-arrived rows — the batch's weight handle with
        ``row_idx`` indexing the surviving rows into it.
        """
        if rows.size == 0:
            return
        self.presence = _bump_counts(self.presence, rows.group_idx)
        for alias, state in self.exact.items():
            state.update(rows.group_idx, rows.values[alias])
        self._fold_errors(rows, weights, row_idx, executor)

    def finalize(self, num_groups: int, scale: float, cache, slot_states,
                 penv):
        """Finalize folded + currently-passing cached rows.

        Returns ``(estimates, errors, present)``: alias -> ``(G,)``
        point estimates, alias -> this fold's error data, and the
        ``(G,)`` mask of groups with a qualifying row under the current
        point values.
        """
        mask = cache.point_mask(penv)
        counts = np.zeros(num_groups, dtype=np.int64)
        counts[: len(self.presence)] = self.presence
        if mask is not None:
            passing_idx = cache.rows.group_idx[mask]
            counts = _bump_counts(counts, passing_idx)[:num_groups]
        estimates: Dict[str, np.ndarray] = {}
        for alias, exact in self.exact.items():
            if mask is not None:
                exact = exact.copy()
                exact.update(passing_idx, cache.rows.values[alias][mask])
            exact.ensure_groups(num_groups)
            estimates[alias] = exact.finalize(scale)
        errors = self._errors(num_groups, scale, cache, mask, slot_states,
                              penv)
        return estimates, errors, counts > 0


class BootstrapFold(_BlockFold):
    """Error bars from ``(G, B)`` bootstrap replicas."""

    def __init__(self, aggregates, trials: int, seed: int,
                 udafs=None) -> None:
        super().__init__(aggregates, seed, udafs)
        self.boot: Dict[str, AggState] = {}
        for i, call in enumerate(aggregates):
            try:
                self.boot[call.alias] = make_state(
                    call, trials=trials, udafs=udafs, seed=seed + i)
            except ExecutionError as exc:
                raise UnsupportedQueryError(
                    f"aggregate {call.func!r} cannot run online (no "
                    f"bootstrap support): {exc}; use execute_batch()"
                ) from exc

    def _fold_errors(self, rows, weights, row_idx, executor) -> None:
        # The executor either shards the trial axis across workers or
        # folds the rows inline, bit-identical either way.
        executor.fold_boot_states(self.boot, rows.group_idx, rows.values,
                                  weights, row_idx=row_idx)

    def _errors(self, num_groups, scale, cache, mask, slot_states, penv):
        # The cache only fills on the uncertain path, so uncertain
        # predicates exist whenever some cached row passes.
        trial_masks = (None if mask is None
                       else cache.trial_masks(slot_states, penv))
        replicas: Dict[str, np.ndarray] = {}
        for alias, boot in self.boot.items():
            if trial_masks is not None:
                boot = boot.copy()
                # Each trial folds the cache rows IT would keep, under
                # its own inner-aggregate replicas.
                rows = cache.rows
                boot.update(rows.group_idx, rows.values[alias],
                            rows.weights * trial_masks)
            boot.ensure_groups(num_groups)
            replicas[alias] = boot.finalize(scale)
        return replicas

    def replica_table(self, replicas: Dict[str, np.ndarray],
                      group_cols: Dict[str, np.ndarray],
                      num_groups: int) -> ArrayTable:
        """The ``(G, B)`` replicas next to ``(G, 1)`` group keys, so one
        projection expression evaluates over them trial-wise."""
        columns = dict(replicas)
        columns.update({name: arr[:, None]
                        for name, arr in group_cols.items()})
        return ArrayTable(columns, num_groups)

    def column_errors(self, exprs, replicas, group_cols, num_groups,
                      env) -> Dict[str, np.ndarray]:
        """Each aggregate-reading output column's ``(G, B)`` replicas."""
        table = self.replica_table(replicas, group_cols, num_groups)
        out: Dict[str, np.ndarray] = {}
        for expr, name in exprs:
            if expr.references() & set(replicas):
                matrix = np.asarray(expr.evaluate(table, env),
                                    dtype=np.float64)
                if matrix.ndim == 2:
                    out[name] = matrix
        return out

    def window_error(self, call, replicas: np.ndarray,
                     order: np.ndarray) -> np.ndarray:
        """The rolling transform is linear, so the same frames applied
        per replica column give each window cell's replicas.  A MIN/MAX
        trial that never sampled a group holds +-inf there, and a frame
        over it has no value: NaN."""
        with np.errstate(invalid="ignore"):
            return windowed_values(call, replicas, order)

    def intervals(self, estimates: np.ndarray, replicas: np.ndarray,
                  confidence: float):
        """Basic (reverse-percentile) bootstrap bounds and relative sds.

        Reflecting the replica quantiles around the estimate keeps
        coverage nominal even for nested-aggregate queries whose
        per-replica thresholds bias the replica distribution (measured
        by ``repro calibrate``).
        """
        lows, highs = basic_intervals(estimates, replicas, confidence)
        return lows, highs, relative_stdevs(estimates, replicas)


#: A closed-form block's moment state per aggregate: SUM folds squares
#: into a SumState; AVG folds its values into a VarState (Chan's
#: (n, mean, M2)); COUNT needs none.
_MOMENT_STATES = {"sum": SumState, "avg": VarState, "mean": VarState}


class ClosedFormFold(_BlockFold):
    """Error bars from exact moments: ``(G,)`` estimate variances.

    ``columns`` maps each output column that reads an aggregate to
    ``(alias, c)`` (see :func:`~repro.core.meta_plan.closed_form_plan`):
    the column's variance is ``c²`` times the aggregate's.
    """

    def __init__(self, aggregates, columns: Dict[str, Tuple[str, float]],
                 seed: int) -> None:
        super().__init__(aggregates, seed)
        self.columns = columns
        #: alias -> exact moment state (Σx² for SUM, (n, mean, M2) for
        #: AVG; COUNT's n is its exact state).
        self.moments: Dict[str, AggState] = {
            call.alias: _MOMENT_STATES[call.func]()
            for call in aggregates if call.func in _MOMENT_STATES
        }

    def _fold_errors(self, rows, weights, row_idx, executor) -> None:
        for alias, state in self.moments.items():
            values = rows.values[alias]
            state.update(rows.group_idx, values * values
                         if isinstance(state, SumState) else values)

    def _errors(self, num_groups, scale, cache, mask, slot_states, penv):
        """What the Poisson(1) bootstrap replicas' variance would be in
        expectation.  No uncertain predicate, so no cache: the folds
        are all."""
        out: Dict[str, np.ndarray] = {}
        for alias, exact in self.exact.items():
            moment = self.moments.get(alias)
            if moment is None:  # COUNT: n is the exact count
                out[alias] = count_variance(exact.finalize(), scale)
                continue
            moment.ensure_groups(num_groups)
            if isinstance(moment, SumState):
                out[alias] = sum_variance(moment.finalize(), scale)
            else:
                out[alias] = mean_variance(moment.m2[:, 0],
                                           moment.wcount[:, 0])
        return out

    def column_errors(self, exprs, variances, group_cols, num_groups,
                      env) -> Dict[str, np.ndarray]:
        """Each aggregate-reading output column's variance."""
        return {name: coef * coef * variances[alias]
                for name, (alias, coef) in self.columns.items()}

    def window_error(self, call, variances: np.ndarray,
                     order: np.ndarray) -> np.ndarray:
        """Output rows are disjoint groups, independent under Poisson
        weights, so a SUM frame's variance is the sum of its rows' and
        an AVG frame's that sum over ``m²``."""
        var = windowed_values(replace(call, func="sum"), variances, order)
        if call.func == "avg":
            frames = windowed_values(
                replace(call, func="count", arg=None), None, order
            )
            var = var / (frames * frames)
        return var

    def intervals(self, estimates: np.ndarray, variances: np.ndarray,
                  confidence: float):
        """``estimate ± z · sd`` bounds and relative sds."""
        sd = np.sqrt(variances)
        lows, highs = normal_intervals(estimates, sd, confidence)
        return lows, highs, relative_sds(estimates, sd)
