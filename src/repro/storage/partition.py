"""Random shuffling and mini-batch partitioning.

G-OLA's statistical guarantees rest on processing the input *in random
order*: every prefix ``D_i = ΔD_1 ∪ … ∪ ΔD_i`` must be a uniform random
sample of the full dataset ``D``.  The paper offers two mechanisms:

* partition-wise randomness — randomly pick existing partitions, which is
  valid when query attributes are uncorrelated with physical layout; and
* a pre-processing shuffle of the whole dataset, after which *any* subset
  is a uniform sample.

:class:`BatchPlan` implements both: it maps each of ``k`` batches of
uniform size to its rows, a slice of a permutation or of the storage
order, and :class:`MiniBatchPartitioner` cuts tables by it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .table import Table


class BatchPlan:
    """Which rows of an ``n``-row table each mini-batch holds, in
    processing order: the one place the partitioner's randomness lives.

    With ``shuffle`` the plan keeps a permutation of the rows (int64, 8
    bytes per row) and batch ``j`` is rows ``perm[lo_j:hi_j]``; without
    it, batch ``j`` is one contiguous slice of the storage order, the
    slices visited in a random order.  A plan holds no column data:
    :meth:`batch` gathers just the columns asked for, so a caller that
    keeps a plan beside its table keeps no shuffled copy.
    """

    def __init__(self, num_rows: int, num_batches: int, seed: int = 0,
                 shuffle: bool = True):
        rng = np.random.default_rng(seed)
        bounds = _bounds(num_rows, num_batches)
        self.num_rows = num_rows
        self.num_batches = num_batches
        if shuffle:
            self.perm: Optional[np.ndarray] = rng.permutation(num_rows)
            self.bounds = bounds
        else:
            self.perm = None
            self.bounds = [bounds[i] for i in rng.permutation(num_batches)]

    @property
    def nbytes(self) -> int:
        return 0 if self.perm is None else int(self.perm.nbytes)

    def rows(self, j: int):
        """Batch ``j``'s rows: an index array, or a slice without
        shuffle."""
        lo, hi = self.bounds[j]
        return slice(lo, hi) if self.perm is None else self.perm[lo:hi]

    def batch(self, table: Table, j: int,
              columns: Optional[Sequence[str]] = None) -> Table:
        """Batch ``j`` of ``table``, holding only ``columns`` (in that
        order; every column when None): a gather at its rows, or
        zero-copy slice views without shuffle."""
        names = table.schema.names if columns is None else list(columns)
        rows = self.rows(j)
        lo, hi = self.bounds[j]
        return Table(table.schema.select(names),
                     {n: table.column(n)[rows] for n in names},
                     num_rows=hi - lo)

    def restore(self, batches: Sequence[Table]) -> Table:
        """The inverse of :meth:`batch`: the table, in original row
        order, whose batch ``j`` is ``batches[j]``."""
        schema = batches[0].schema
        columns = {}
        for column in schema:
            out = np.empty(self.num_rows, dtype=column.ctype.numpy_dtype)
            for j, part in enumerate(batches):
                out[self.rows(j)] = part.column(column.name)
            columns[column.name] = out
        return Table(schema, columns, num_rows=self.num_rows)


class MiniBatchPartitioner:
    """Splits a table into ``k`` uniform mini-batches in random order.

    Args:
        num_batches: The number of mini-batches ``k``.
        seed: Seed for the shuffle permutation (reproducible runs).
        shuffle: If True, rows are globally shuffled before slicing —
            the paper's pre-processing tool.  If False, the table is sliced
            in storage order and the *batch order* is randomized instead
            (partition-wise randomness).
    """

    def __init__(self, num_batches: int, seed: int = 0, shuffle: bool = True):
        if num_batches < 1:
            raise ValueError("num_batches must be >= 1")
        self.num_batches = num_batches
        self.seed = seed
        self.shuffle = shuffle

    def partition(self, table: Table) -> List[Table]:
        """Return the list of mini-batches, in processing order.

        Batch sizes differ by at most one row (uniform size up to
        divisibility); the paper assumes ``|ΔD_1| = … = |ΔD_k|``.
        """
        return list(self.iter_batches(table))

    def iter_batches(self, table: Table) -> Iterator[Table]:
        """Iterate mini-batches lazily in processing order, gathering
        one batch at a time, so conversion over an mmap-backed table
        peaks at one batch of gathered rows."""
        plan = BatchPlan(table.num_rows, self.num_batches, self.seed,
                         self.shuffle)
        for j in range(self.num_batches):
            yield plan.batch(table, j)


def _bounds(n: int, num_batches: int) -> List[Tuple[int, int]]:
    edges = np.linspace(0, n, num_batches + 1).astype(np.int64)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(num_batches)]


def batch_sizes(total_rows: int, num_batches: int) -> List[int]:
    """The sizes the partitioner will produce for ``total_rows`` rows."""
    return [hi - lo for lo, hi in _bounds(total_rows, num_batches)]


def shuffle_table(table: Table, seed: int = 0) -> Table:
    """The paper's pre-processing tool: globally shuffle a dataset.

    After shuffling, *any* contiguous subset of the rows is a uniform
    random sample of the original dataset, so partition-wise batch
    selection is statistically safe even when query attributes correlate
    with the original physical order (paper section 2).
    """
    return BatchPlan(table.num_rows, 1, seed).batch(table, 0)


def random_sample(table: Table, fraction: float, seed: int = 0) -> Table:
    """A uniform random sample of ``fraction`` of the rows (no replacement).

    Utility used by tests and the BlinkDB-style comparisons in the
    benchmarks; not part of the G-OLA hot path.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = table.num_rows
    take = int(round(n * fraction))
    idx = rng.choice(n, size=take, replace=False)
    return table.take(np.sort(idx))
