"""Guards: when a block's folded decisions stop being trustworthy.

G-OLA folds a row once its three-valued classification is decided and
trusts that decision on every later batch; a decision that fails makes
the block rebuild.  :class:`BlockGuards` owns both halves for a block:
``classify`` classifies the candidate rows and commits what each folded
row relied on, ``violation`` checks those commitments against the
slots' fresh point values before the next batch, ``reset`` clears them.

Each uncertain conjunct, already NOT-normalized, is a Kleene AND/OR/NOT
tree whose slot-free subtrees are certain.  Every other leaf is an
*atom* with one treatment, chosen when the block is built (:func:`_node`):

* ``key [NOT] IN (subquery)`` — a :class:`_SetGuard` on membership;
* an ordering comparison — a :class:`_DecisionGuard` on ``certain θ
  uncertain`` once the slot-free terms of each side's top-level
  ``+``/``-`` sum move to the certain side, if the uncertain side reads
  only scalar slots and slots correlated on one column; ``=`` and ``!=``
  get a ``<``/``>`` pair, and ``BETWEEN`` is two ``<=`` atoms;
* anything else is never decided early: it classifies UNKNOWN, so its
  rows stay in the uncertain cache until the last batch, unguarded.

An atom commits only on the folded rows whose result it helped decide:
where a certain child decides an AND/OR alone nothing commits, otherwise
every child whose value equals the result commits.  Every guard checks
*point validity* — each committed decision still holds at the slots'
current point values, exactly what snapshot equality with ``Q(D_i,
k/i)`` needs (EXPERIMENTS.md, "Known deviations" 2).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Set

import numpy as np

from ..expr.expressions import (
    ArrayTable,
    Between,
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Environment,
    Expression,
    InSubquery,
    Literal,
    Negate,
    subquery_nodes,
)
from ..expr.tristate import (
    FLIP_COMPARISON,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    tri_compare,
    tri_not,
)
from ..storage.table import Table
from .classify import IntervalEnv, _comparison_side, tri_eval

_ORDERING_OPS = ("<", "<=", ">", ">=")

#: One group's column of a decision guard's extremes: the certain side's
#: max and min over TRUE-folds, then over FALSE-folds (none folded yet).
_NO_FOLDS = np.array([[-np.inf], [np.inf], [-np.inf], [np.inf]])


class _DecisionGuard:
    """Point validity of ``certain θ uncertain`` decisions.

    A fold of row ``r`` under ``c(r) θ u`` stays valid exactly while
    ``c(r) θ u`` keeps its value at ``u``'s *current point* value.  By
    monotonicity only the extreme folded values matter, so the guard
    keeps, per producer group (or globally when no slot is keyed), the
    extremes of the certain side among TRUE-folds and FALSE-folds and
    re-checks them each batch — O(G) vectorized work.  Checking the
    whole variation range instead would rebuild on nearly every batch
    for many small groups (Q17), whose replica hulls jitter by more than
    the fold margin; ε sets that margin.

    ``uncertain_side`` reads only scalar slots and slots correlated on
    ``correlation_name``, so its point value per group comes from the
    ordinary evaluator over a pseudo-table of one row per group of the
    first keyed slot, whose ``GroupIndex`` also indexes the extremes.
    A producer rebuild replaces that index and numbers its groups
    afresh, so the extremes are tied to the index object they are
    numbered by and remapped by key when it changes.
    """

    def __init__(self, op: str, certain_side: Expression,
                 uncertain_side: Expression, slots: List[int],
                 correlation_name: Optional[str]):
        self.op = op  # normalized: certain_side op uncertain_side
        self.certain_side = certain_side
        self.uncertain_side = uncertain_side
        #: Every slot the uncertain side reads, the first keyed one first.
        self.slots = slots
        self.slot = slots[0]
        self.correlation_name = correlation_name
        #: ``(4, G)`` extremes of the certain side among folded rows, per
        #: producer group (see ``_NO_FOLDS``); grown lazily.
        self.extremes = _NO_FOLDS.copy()
        #: The ``GroupIndex`` numbering the extremes (None: none yet).
        self._index = None

    @property
    def label(self) -> str:
        by = (f" by {self.correlation_name}"
              if self.correlation_name is not None else "")
        return f"decision on slot#{self.slot}{by}"

    def commit(self, table: Table, tri: np.ndarray,
               ienv: IntervalEnv) -> None:
        true_mask, false_mask = tri == TRI_TRUE, tri == TRI_FALSE
        if not (true_mask.any() or false_mask.any()):
            return
        n = table.num_rows
        c_vals = np.asarray(
            self.certain_side.evaluate(table, ienv.point), dtype=np.float64,
        )
        if c_vals.ndim == 0:
            c_vals = np.full(n, float(c_vals))
        if self.correlation_name is None:
            idx = np.zeros(n, dtype=np.int64)
        else:
            self._renumber(ienv.slots[self.slot].index)
            idx = ienv.slot_rows(self.slot, ColumnRef(self.correlation_name),
                                 table)
            pad = (len(ienv.slots[self.slot].estimates)
                   - self.extremes.shape[1])
            if pad > 0:
                self.extremes = np.concatenate(
                    [self.extremes, np.repeat(_NO_FOLDS, pad, axis=1)],
                    axis=1)
        # A NaN certain side is a NULL, decided whatever the uncertain
        # side does: it constrains nothing, and must not poison the
        # extremes (a NaN maximum would pass every later check).
        known = (idx >= 0) & ~np.isnan(c_vals)
        for mask, row in ((true_mask, 0), (false_mask, 2)):
            use = mask & known
            if use.any():
                np.maximum.at(self.extremes[row], idx[use], c_vals[use])
                np.minimum.at(self.extremes[row + 1], idx[use], c_vals[use])

    def _renumber(self, index) -> bool:
        """Number the extremes by ``index``, remapping them by key if
        another index numbered them; False if a group with folds has no
        row in ``index`` (its decisions can no longer be checked)."""
        old, self._index = self._index, index
        if old is None or old is index:
            return True
        folded = np.flatnonzero((self.extremes != _NO_FOLDS).any(axis=0))
        pos = np.array([index.index_of(old.key_at(g)) for g in folded],
                       dtype=np.int64)
        found = pos >= 0
        out = np.repeat(_NO_FOLDS, index.num_groups, axis=1)
        out[:, pos[found]] = self.extremes[:, folded[found]]
        self.extremes = out
        return bool(found.all())

    def check(self, ienv: IntervalEnv) -> bool:
        """Are all folded decisions point-correct under the new values?"""
        if self.correlation_name is None:
            pseudo = ArrayTable({}, 1)
        else:
            if not self._renumber(ienv.slots[self.slot].index):
                return False
            keys = np.array(ienv.slots[self.slot].index.keys())
            if len(keys) == 0:
                return True
            pseudo = ArrayTable({self.correlation_name: keys}, len(keys))
        g = self.extremes.shape[1]
        # Bind the slots' point values locally so the check is
        # self-contained (callers need not pre-bind the environment).
        env = Environment(functions=ienv.point.functions)
        for slot in self.slots:
            ienv.slots[slot].bind_point(env)
        if self.correlation_name is not None:  # row i is group i
            env.keyed_rows[self.slot] = partial(
                ienv.slots[self.slot].gather, np.arange(len(keys)),
                ienv.slots[self.slot].estimates)
        side = np.asarray(self.uncertain_side.evaluate(pseudo, env),
                          dtype=np.float64)
        if side.ndim == 0:
            side = np.full(pseudo.num_rows, float(side))
        n = min(g, len(side))
        point = side[:n]
        max_true, min_true, max_false, min_false = self.extremes[:, :n]
        # A group's TRUE-folds span [min_true, max_true]: all still hold
        # iff that interval compares TRUE against the point; likewise
        # the FALSE-folds.
        ok_true = tri_compare(self.op, min_true, max_true,
                              point, point) == TRI_TRUE
        ok_false = tri_compare(self.op, min_false, max_false,
                               point, point) == TRI_FALSE
        # Vacuous where no fold happened (extremes still at +-inf);
        # groups with no point value yet (NaN side) can have no folds.
        ok_true |= np.isneginf(max_true) & np.isposinf(min_true)
        ok_false |= np.isneginf(max_false) & np.isposinf(min_false)
        return bool(ok_true.all() and ok_false.all())

    def reset(self) -> None:
        self.extremes = np.repeat(_NO_FOLDS, self.extremes.shape[1], axis=1)
        self._index = None


class _SetGuard:
    """Membership commitments against the set slot of an ``IN`` atom:
    each folded key stays in (TRUE) or out (FALSE) of the set."""

    def __init__(self, node: InSubquery) -> None:
        self.node = node
        self.slot = node.slot
        self.label = f"set on slot#{node.slot}"
        self.committed_in: Set = set()
        self.committed_out: Set = set()

    def check(self, ienv: IntervalEnv) -> bool:
        members = ienv.slots[self.slot].point_members
        return (
            self.committed_in <= members
            and self.committed_out.isdisjoint(members)
        )

    def commit(self, table: Table, tri: np.ndarray,
               ienv: IntervalEnv) -> None:
        """``tri`` is each row's *membership* (``NOT IN`` negates it)."""
        if (tri != TRI_UNKNOWN).any():
            keys = np.asarray(self.node.value.evaluate(table, ienv.point))
            self.committed_in.update(keys[tri == TRI_TRUE].tolist())
            self.committed_out.update(keys[tri == TRI_FALSE].tolist())

    def reset(self) -> None:
        self.committed_in.clear()
        self.committed_out.clear()


def _split(expr: Expression, sign: int = 1):
    """The signed terms of ``expr``'s top-level ``+``/``-`` sum: the
    slot-free ones, then the rest."""
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-"):
        (lc, lu), (rc, ru) = _split(expr.left, sign), _split(
            expr.right, sign if expr.op == "+" else -sign)
        return lc + rc, lu + ru
    term = [(sign, expr)]
    return ([], term) if expr.subquery_slots() else (term, [])


def _sum(plus: list, minus: list) -> Expression:
    """``Σ plus − Σ minus`` over signed terms (``0`` for none)."""
    terms = plus + [(-sign, term) for sign, term in minus]
    if not terms:
        return Literal(0.0)
    sign, out = terms[0]
    out = out if sign > 0 else Negate(out)
    for sign, term in terms[1:]:
        out = BinaryOp("+" if sign > 0 else "-", out, term)
    return out


def _decision_guards(cmp: Comparison) -> List[_DecisionGuard]:
    """``cmp`` as ``certain θ uncertain`` guards — one for an ordering,
    a ``<``/``>`` pair for ``=``/``!=`` — or none when its uncertain side
    reads a row column or slots of two correlations."""
    (lc, lu), (rc, ru) = _split(cmp.left), _split(cmp.right)
    # ``L θ R`` ⇔ ``Lc − Rc θ Ru − Lu``; flipped to ``Rc θ' Lu`` when
    # only ``L`` reads slots and only ``R`` does not, so nothing negates.
    flip = not lc and not ru
    certain, uncertain = ((_sum(rc, lc), _sum(lu, ru)) if flip
                          else (_sum(lc, rc), _sum(ru, lu)))
    refs = subquery_nodes(uncertain)
    if any(isinstance(r, InSubquery) for r in refs):
        return []
    keyed = [r for r in refs if r.correlation is not None]
    if any(not isinstance(r.correlation, ColumnRef) for r in keyed):
        return []
    names = {r.correlation.name for r in keyed}
    if len(names) > 1 or uncertain.references() - names:
        return []
    slots = list(dict.fromkeys(r.slot for r in keyed + refs))
    corr = names.pop() if names else None
    ops = [cmp.op] if cmp.op in _ORDERING_OPS else ["<", ">"]
    return [_DecisionGuard(FLIP_COMPARISON[op] if flip else op, certain,
                           uncertain, slots, corr) for op in ops]


class _Leaf:
    """A slot-free subtree (``certain``: decided by point evaluation), or
    an atom with its guards: one decision guard, a ``<``/``>`` pair, one
    set guard, or none (never decided early)."""

    def __init__(self, expr: Expression, guards: Optional[list] = None):
        self.expr = expr
        self.certain = guards is None
        self.guards = guards or []
        self.atoms = () if self.certain else (self,)

    @property
    def label(self) -> str:
        return (self.guards[0].label if self.guards
                else "cached until the last batch")

    def decide(self, table: Table, ienv: IntervalEnv):
        """The leaf's value per row, plus the value each guard commits."""
        expr = self.expr
        if self.certain:
            return tri_eval(expr, table, ienv), []
        if isinstance(expr, InSubquery):
            tri = tri_eval(expr, table, ienv)
            return tri, [tri_not(tri) if expr.negated else tri]
        if not self.guards:
            return np.full(table.num_rows, TRI_UNKNOWN, dtype=np.int8), []
        sides = (*_comparison_side(expr.left, table, ienv),
                 *_comparison_side(expr.right, table, ienv))
        tri = tri_compare(expr.op, *sides)
        if len(self.guards) == 1:
            return tri, [tri]
        return tri, [tri_compare(op, *sides) for op in ("<", ">")]

    def commit(self, decided, keep: np.ndarray, table, ienv) -> None:
        for guard, tri in zip(self.guards, decided[1]):
            guard.commit(table, np.where(keep, tri, TRI_UNKNOWN), ienv)


class _Bool:
    """A Kleene AND, OR or NOT over child nodes, at least one uncertain."""

    certain = False

    def __init__(self, op: str, children: list) -> None:
        self.op = op
        self.children = children
        self.atoms = tuple(a for c in children for a in c.atoms)

    def decide(self, table: Table, ienv: IntervalEnv):
        parts = [child.decide(table, ienv) for child in self.children]
        value = parts[0][0]
        if self.op == "NOT":
            return tri_not(value), parts
        combine = np.minimum if self.op == "AND" else np.maximum
        for other, _ in parts[1:]:
            value = combine(value, other)
        return value, parts

    def commit(self, decided, keep: np.ndarray, table, ienv) -> None:
        """Commit the children that decided ``keep``'s rows."""
        value, parts = decided
        if self.op == "NOT":
            self.children[0].commit(parts[0], keep, table, ienv)
            return
        absorbing = TRI_FALSE if self.op == "AND" else TRI_TRUE
        for child, (tri, _) in zip(self.children, parts):
            if child.certain:
                keep = keep & (tri != absorbing)
        for child, part in zip(self.children, parts):
            if not child.certain:
                child.commit(part, keep & (part[0] == value), table, ienv)


def _node(expr: Expression):
    """The guard tree of one predicate."""
    if not expr.subquery_slots():
        return _Leaf(expr)
    if isinstance(expr, BooleanOp):
        return _Bool(expr.op, [_node(o) for o in expr.operands])
    if isinstance(expr, Between):
        return _Bool("AND", [
            _node(Comparison("<=", expr.low, expr.value)),
            _node(Comparison("<=", expr.value, expr.high)),
        ])
    if isinstance(expr, InSubquery):
        return _Leaf(expr, [_SetGuard(expr)])
    if isinstance(expr, Comparison):
        return _Leaf(expr, _decision_guards(expr))
    return _Leaf(expr, [])


class BlockGuards:
    """The classification and guards of one block's uncertain conjuncts,
    read as one Kleene AND over their trees."""

    def __init__(self, predicates: List[Expression]) -> None:
        trees = [_node(p) for p in predicates]
        self.tree = trees[0] if len(trees) == 1 else _Bool("AND", trees)
        #: Every atom, in predicate order, and every guard, in check order.
        self.atoms = self.tree.atoms
        self.guards = [g for atom in self.atoms for g in atom.guards]

    def describe(self) -> List[str]:
        """One line per atom: its SQL and its guard."""
        return [f"{atom.expr.sql()}: {atom.label}" for atom in self.atoms]

    def classify(self, table: Table, ienv: IntervalEnv) -> np.ndarray:
        """Classify ``table``'s rows (TRI_* per row) and commit what each
        folded (TRUE or FALSE) row's decision relied on."""
        decided = self.tree.decide(table, ienv)
        self.tree.commit(decided, decided[0] != TRI_UNKNOWN, table, ienv)
        return decided[0]

    def violation(self, ienv: IntervalEnv) -> Optional[str]:
        """The first failing guard as a human-readable cause, or None —
        what rebuild trace events report, so a profile can say *why* a
        block recomputed, not just that it did."""
        for guard in self.guards:
            if not guard.check(ienv):
                return f"guard failed: {guard.label}"
        return None

    def reset(self) -> None:
        for guard in self.guards:
            guard.reset()
