"""Kleene three-valued truth codes and the interval comparison table.

The one place the ``x θ y`` rules over value intervals are written down
(paper section 3.2: a comparison is decided exactly when the operands'
variation ranges cannot overlap the wrong way).  Every consumer feeds it
intervals from a different source: per-row slot ranges
(:mod:`repro.core.classify`) and folded extremes
(:mod:`repro.core.delta`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError

# The ordering F < U < T makes Kleene AND a min and Kleene OR a max.
TRI_FALSE = np.int8(0)
TRI_UNKNOWN = np.int8(1)
TRI_TRUE = np.int8(2)

#: ``a op b``  ⇔  ``b FLIP_COMPARISON[op] a``.
FLIP_COMPARISON = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                   "=": "=", "!=": "!="}


def tri_not(tri: np.ndarray) -> np.ndarray:
    """Kleene NOT: swaps TRUE and FALSE, keeps UNKNOWN."""
    return (TRI_TRUE - tri + TRI_FALSE).astype(np.int8)


def tri_compare(op: str, a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """Elementwise three-valued ``[a_lo, a_hi] op [b_lo, b_hi]``.

    TRUE where the comparison holds for every pair of values drawn from
    the two intervals, FALSE where it fails for every pair, UNKNOWN
    otherwise.  The rules are monotone under interval containment: a
    verdict for ``[a_lo, a_hi]`` holds for every sub-interval.

    A side whose endpoints are both NaN is a NULL: it decides the
    comparison whatever the other side's range, the way point
    evaluation does — FALSE for ``< <= > >= =``, TRUE for ``!=``.  Any
    other NaN endpoint compares false everywhere and so stays UNKNOWN;
    callers widen an *uncertain* side's NaN endpoints to infinities
    first, because a NaN there is an unknown value, not a NULL.
    """
    a_lo, a_hi, b_lo, b_hi = np.broadcast_arrays(a_lo, a_hi, b_lo, b_hi)
    out = np.full(a_lo.shape, TRI_UNKNOWN, dtype=np.int8)
    if op == "<":
        out[a_hi < b_lo] = TRI_TRUE
        out[a_lo >= b_hi] = TRI_FALSE
    elif op == "<=":
        out[a_hi <= b_lo] = TRI_TRUE
        out[a_lo > b_hi] = TRI_FALSE
    elif op == ">":
        out[a_lo > b_hi] = TRI_TRUE
        out[a_hi <= b_lo] = TRI_FALSE
    elif op == ">=":
        out[a_lo >= b_hi] = TRI_TRUE
        out[a_hi < b_lo] = TRI_FALSE
    elif op in ("=", "!="):
        disjoint = (a_hi < b_lo) | (b_hi < a_lo)
        exact = (a_lo == a_hi) & (b_lo == b_hi) & (a_lo == b_lo)
        out[disjoint] = TRI_FALSE if op == "=" else TRI_TRUE
        out[exact] = TRI_TRUE if op == "=" else TRI_FALSE
    else:
        raise ExecutionError(f"unknown comparison {op!r}")
    # ``x != x`` is the NaN test that also takes object (string) arrays.
    null = ((a_lo != a_lo) & (a_hi != a_hi)) | ((b_lo != b_lo)
                                                & (b_hi != b_hi))
    out[null] = TRI_TRUE if op == "!=" else TRI_FALSE
    return out
