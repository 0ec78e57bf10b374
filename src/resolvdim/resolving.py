"""Resolving sets, metric dimension and minimal-set enumeration.

The representation of a vertex with respect to an ordered set W is the
tuple of its distances to the members of W; W resolves the graph when all
representations are distinct.  The metric dimension comes from two
independent routes: a closed-form case formula, and an exhaustive
increasing-size subset search over the distance matrix.  The search
starts at the twin lower bound (every resolving set must contain all but
one member of each twin class) and enumerates k-subsets in lexicographic
order, so the returned witness is the lexicographically least minimum
resolving set and is identical across batch sizes and worker counts.

Budgets are counted in candidate subsets evaluated, never wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import twins as twins_mod
from . import vectorspace
from .errors import BadParameters, BudgetExceeded, EmptySet, NotResolving
from .graph import ComponentGraph

DEFAULT_BUDGET = 1_000_000

_BATCH = 8192
_MASK_TABLE_MAX_N = 20


@dataclass(frozen=True)
class ResolvingReport:
    """Outcome of a resolving check for one candidate set."""

    W: tuple[int, ...]
    is_resolving: bool
    is_minimal: bool
    colliding_pair: tuple[int, int] | None = None
    redundant_vertex: int | None = None


# ---------------------------------------------------------------------------
# single-set checks
# ---------------------------------------------------------------------------

def representation(g: ComponentGraph, v: int, w: Sequence[int]) -> tuple[int, ...]:
    """Distance tuple of v to the ordered set w."""
    members = tuple(w)
    if not members:
        raise EmptySet("representation needs a non-empty ordered set")
    return tuple(g.distance(v, x) for x in members)


def _single_set(g: ComponentGraph,
                order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """Representation block of a sorted set, and the resolving status of
    each single removal (row i drops order[i]); None when the set itself
    does not resolve.

    The N x k block needs no N x N matrix; the set is one batch of the
    engine and its removals one more.
    """
    engine = _Engine(g.distance_block(order))
    every = np.arange(len(order))
    if not engine.status(every[None, :])[0]:
        return engine.dist, None
    return engine.dist, engine.status(_drop_each(every))


def _least_equal_rows(block: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically least pair u < v of equal rows (0-based)."""
    first: dict[bytes, int] = {}
    best: tuple[int, int] | None = None
    for v, row in enumerate(block):
        u = first.setdefault(row.tobytes(), v)
        if u != v and (best is None or (u, v) < best):
            best = (u, v)
    return best


def is_resolving(g: ComponentGraph, w: Iterable[int]) -> ResolvingReport:
    """Full report: resolving status, least collision, minimality."""
    members = tuple(w)
    if len(set(members)) != len(members):
        raise BadParameters("candidate set contains duplicate vertices")
    order = tuple(sorted(members))
    block, still = _single_set(g, order)
    if still is None:
        u, v = _least_equal_rows(block)
        return ResolvingReport(W=members, is_resolving=False, is_minimal=False,
                               colliding_pair=(u + 1, v + 1))
    redundant = order[int(np.argmax(still))] if still.any() else None
    return ResolvingReport(W=members, is_resolving=True,
                           is_minimal=redundant is None,
                           redundant_vertex=redundant)


def is_minimal(g: ComponentGraph, w: Iterable[int]) -> bool:
    """True iff w resolves and no single removal still resolves.

    Single removals suffice: supersets of resolving sets resolve, so a
    resolving proper subset implies a resolving (k-1)-subset.
    """
    _, still = _single_set(g, tuple(sorted(set(w))))
    if still is None:
        raise NotResolving("the candidate set does not resolve the graph")
    return not still.any()


# ---------------------------------------------------------------------------
# closed-form dimension and canonical construction
# ---------------------------------------------------------------------------

def metric_dimension_formula(q: int, n: int) -> int:
    """Case formula for the metric dimension of the component graph.

    q=2: 0 for n=1 (single vertex, empty set resolves), 1 for n=2, else n.
    q>=3: sum over k of C(n,k)*((q-1)^k - 1), the twin-class bound, which
    is attained.
    """
    if q < 2 or n < 1:
        raise BadParameters(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    if q == 2:
        if n == 1:
            return 0
        if n == 2:
            return 1
        return n
    return sum(comb(n, k) * ((q - 1) ** k - 1) for k in range(1, n + 1))


def canonical_metric_basis(q: int, n: int) -> tuple[int, ...]:
    """Constructive minimum resolving set.

    q=2: empty for n=1, {e1} for n=2, the unit vectors for n>=3.
    q>=3: all but the largest-id member of every skeleton class.
    """
    if q == 2:
        if n == 1:
            return ()
        if n == 2:
            return (1,)
        return tuple(2 ** i for i in range(n))
    out: list[int] = []
    for mask in range(1, 1 << n):
        support = [i for i in range(n) if (mask >> i) & 1]
        members = []
        for values in product(range(1, q), repeat=len(support)):
            coeffs = [0] * n
            for pos, val in zip(support, values):
                coeffs[pos] = val
            members.append(vectorspace.encode(coeffs, q))
        members.sort()
        out.extend(members[:-1])
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the subset engine over a distance matrix (0-based indices)
# ---------------------------------------------------------------------------

class _Engine:
    """The one subset engine: a kernel and a lexicographic k-subset scan.

    Rows of `dist` are vertices and columns are candidate members; the
    matrix is read at its stored dtype.  `status` is the only resolving
    test and `_scan` the only walk over k-subsets.  The budget counts the
    subsets the scan evaluates.
    """

    def __init__(self, dist: np.ndarray, budget: int = DEFAULT_BUDGET):
        self.dist = dist
        self.n_rows, self.n_cols = dist.shape
        self.base = max(int(dist.max(initial=0)) + 1, 2)
        # most base-`base` digits that still fit one int64 code
        self.group = 1
        while self.base ** (self.group + 1) < 2 ** 62:
            self.group += 1
        self.budget = budget
        self.evaluated = 0

    @property
    def left(self) -> int:
        return self.budget - self.evaluated

    def status(self, cols: np.ndarray) -> np.ndarray:
        """Boolean resolving status for a (B, k) batch of column sets."""
        b, k = cols.shape
        if k <= self.group:
            codes = np.zeros((self.n_rows, b), dtype=np.int64)
            for j in range(k):
                codes *= self.base
                codes += self.dist[:, cols[:, j]]
            codes.sort(axis=0)
            return ~np.any(codes[1:] == codes[:-1], axis=0)
        # wide-set fallback: exact per-candidate duplicate detection
        return np.array([len({row.tobytes() for row in self.dist[:, c]}) == self.n_rows
                         for c in cols], dtype=bool)

    def _scan(self, k: int, limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(columns, status) batches of k-subsets in lexicographic order,
        at most limit subsets, each one charged to the budget."""
        it = combinations(range(self.n_cols), k)
        while limit > 0:
            chunk = list(islice(it, min(_BATCH, limit)))
            if not chunk:
                return
            limit -= len(chunk)
            self.evaluated += len(chunk)
            cols = np.asarray(chunk, dtype=np.intp)
            yield cols, self.status(cols)

    def first_hit(self, k: int) -> tuple[int, ...] | None:
        """Lexicographically least resolving k-subset within the budget left."""
        for cols, hits in self._scan(k, self.left):
            if hits.any():
                return tuple(int(c) for c in cols[int(np.argmax(hits))])
        return None

    def all_hits(self, k: int) -> list[tuple[int, ...]]:
        """Every resolving k-subset, lexicographic order."""
        return [tuple(int(c) for c in row)
                for cols, hits in self._scan(k, comb(self.n_cols, k)) for row in cols[hits]]

    def mask_table(self) -> np.ndarray:
        """Resolving status of every subset, indexed by bit mask of columns."""
        status = np.zeros(1 << self.n_cols, dtype=bool)
        for k in range(self.n_cols + 1):
            for cols, hits in self._scan(k, comb(self.n_cols, k)):
                status[(np.int64(1) << cols).sum(axis=1)] = hits
        return status


def _drop_each(cols: Sequence[int]) -> np.ndarray:
    """(k, k-1) batch whose row i is cols without its i-th entry."""
    k = len(cols)
    full = np.broadcast_to(np.asarray(cols, dtype=np.intp), (k, k))
    return full[~np.eye(k, dtype=bool)].reshape(k, max(k - 1, 0))


def find_min_resolving_for_matrix(
    dist: np.ndarray,
    twin_classes: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, tuple[int, ...]]:
    """Smallest k with a resolving k-subset of matrix columns, plus the
    lexicographically least witness (0-based indices).

    Enumeration starts at the twin lower bound and walks k upward; the
    budget counts candidate subsets evaluated.
    """
    n = dist.shape[0]
    if n == 1:
        return 0, ()
    engine = _Engine(dist, budget)
    for k in range(max(1, twins_mod.twin_lower_bound(twin_classes)), n + 1):
        complete = comb(n, k) <= engine.left
        hit = engine.first_hit(k)
        if hit is not None:
            return k, hit
        if not complete:
            raise BudgetExceeded(
                f"search stopped after {engine.evaluated} subset evaluations",
                evaluated=engine.evaluated, budget=budget,
                lower_bound=k, upper_bound=n)
        if engine.left == 0:
            raise BudgetExceeded(
                f"budget spent after finishing level k={k}",
                evaluated=engine.evaluated, budget=budget,
                lower_bound=k + 1, upper_bound=n)
    raise AssertionError("the full vertex set always resolves")


def resolving_status_by_mask(dist: np.ndarray, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Resolving status of every subset, indexed by bit mask of columns.

    Needs 2^N evaluations; refuses when that exceeds the budget or N is
    beyond the table guard.
    """
    n = dist.shape[0]
    if n > _MASK_TABLE_MAX_N or (1 << n) > budget:
        raise BudgetExceeded(
            f"full subset table needs 2^{n} evaluations, over the budget {budget}",
            evaluated=0, budget=budget)
    return _Engine(dist, budget).mask_table()


def minimal_status_by_mask(status: np.ndarray, n: int) -> np.ndarray:
    """Minimal-resolving status for every subset mask, from the full table."""
    minimal = status.copy()
    all_masks = np.arange(1 << n, dtype=np.int64)
    for b in range(n):
        with_bit = all_masks[((all_masks >> b) & 1) == 1]
        minimal[with_bit] &= ~status[with_bit ^ (1 << b)]
    return minimal


def minimal_sets_by_table(
    dist: np.ndarray, budget: int = DEFAULT_BUDGET
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every minimal resolving set of matrix columns, from the 2^N table.

    Returns the sets (0-based, lexicographic order) and the minimal-status
    table indexed by bit mask.
    """
    n = dist.shape[0]
    minimal = minimal_status_by_mask(resolving_status_by_mask(dist, budget), n)
    sets = sorted(tuple(i for i in range(n) if (m >> i) & 1)
                  for m in map(int, np.flatnonzero(minimal)))
    return sets, minimal


def all_resolving_k_subsets(
    dist: np.ndarray, k: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Every resolving k-subset of matrix columns, lexicographic order."""
    n = dist.shape[0]
    if k == 0:
        return [()] if n == 1 else []
    total = comb(n, k)
    if total > budget:
        raise BudgetExceeded(
            f"scanning C({n},{k}) = {total} subsets exceeds the budget {budget}",
            evaluated=0, budget=budget)
    return _Engine(dist, budget).all_hits(k)


# ---------------------------------------------------------------------------
# component-graph front ends
# ---------------------------------------------------------------------------

def metric_dimension_search(
    g: ComponentGraph, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive-search metric dimension with its least witness (ids)."""
    if g.vertex_count == 1:
        return 0, ()
    classes = twins_mod.partition_by_neighborhood(g).classes
    classes0 = [[v - 1 for v in c] for c in classes]
    k, cols = find_min_resolving_for_matrix(g.distance_matrix(), classes0, budget)
    return k, tuple(c + 1 for c in cols)


def enumerate_minimum_resolving_sets(
    g: ComponentGraph, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All minimum resolving sets, lexicographic order (ids)."""
    k, _ = metric_dimension_search(g, budget)
    subsets = all_resolving_k_subsets(g.distance_matrix(), k, budget)
    return [tuple(c + 1 for c in cols) for cols in subsets]


def enumerate_minimal_resolving_sets(
    g: ComponentGraph,
    size_cap: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """All minimal resolving sets of size <= size_cap, lexicographic order.

    Uses the full 2^N subset table when it fits the budget, otherwise an
    increasing-k scan with explicit single-removal minimality checks.
    """
    n = g.vertex_count
    cap = n if size_cap is None else min(size_cap, n)
    if cap < 0:
        raise BadParameters("size cap must be non-negative")
    dist = g.distance_matrix()
    if n <= _MASK_TABLE_MAX_N and (1 << n) <= budget:
        sets, _ = minimal_sets_by_table(dist, budget)
        return [tuple(i + 1 for i in w) for w in sets if len(w) <= cap]
    engine = _Engine(dist, budget)
    out = []
    for k in range(0, cap + 1):
        level = comb(n, k)
        if level > engine.left:
            raise BudgetExceeded(
                f"level k={k} needs {level} evaluations, budget exhausted",
                evaluated=engine.evaluated, budget=budget)
        for cols in engine.all_hits(k):
            if k > engine.left:
                raise BudgetExceeded(
                    "minimality checks exhausted the budget",
                    evaluated=engine.evaluated, budget=budget)
            engine.evaluated += k
            if not engine.status(_drop_each(cols)).any():
                out.append(tuple(c + 1 for c in cols))
    out.sort()
    return out
