"""Resolving sets, metric dimension and minimal-set enumeration.

The representation of a vertex with respect to an ordered set W is the
tuple of its distances to the members of W; W resolves the graph when all
representations are distinct.  The metric dimension comes from two
independent routes: a closed-form case formula, and an exhaustive
increasing-size search over the distance matrix.

The search starts at the larger of two lower bounds: the twin bound
(every resolving set contains all but one member of each twin class;
Hernando, Mora, Pelayo, Seara and Wood, 2010) and the landmark bound (k
landmarks with distances in 1..D separate at most D^k + k vertices;
Khuller, Raghavachari and Rosenfeld, 1996).  At each size it walks the
k-subsets in lexicographic order depth first and drops a prefix when one
of those two rules shows that no completion can resolve; a full k-subset
is decided by the same rule, so the returned witness is the
lexicographically least minimum resolving set.  The walk never calls the
column-group kernel, which serves the plain scan, the twin-swap orbit,
the 2^N table and the single-set checks.  When the dimension equals the
twin bound, the minimum resolving sets are the twin-swap orbit of the
core and are enumerated as such.

Budgets are counted in candidate subsets evaluated, never wall time: one
unit per prefix subset whose representation partition the walk
evaluates, one per subset a plain scan or an orbit checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import field
from . import twins as twins_mod
from .errors import BadParameters, BudgetExceeded, NotResolving
from .graph import ComponentGraph, SkeletonColumns

DEFAULT_BUDGET = 1_000_000

_MASK_TABLE_MAX_N = 20
# most int64 keys one chunk of the kernel may hold (512 kB)
_BATCH_CELLS = 1 << 16


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

def _sorted_members(w: Iterable[int]) -> tuple[int, ...]:
    """The members of a candidate set in ascending order; duplicates are
    refused."""
    order = tuple(sorted(w))
    if len(set(order)) != len(order):
        raise BadParameters("candidate set contains duplicate vertices")
    return order


def _least_equal_rows(keys: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically least pair u < v of rows with equal keys (0-based)
    or None: after a stable sort, the adjacent equal entry with the least
    first row."""
    order = np.argsort(keys, kind="stable")
    same = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    if not same.size:
        return None
    i = same[np.argmin(order[same])]
    return int(order[i]), int(order[i + 1])


def is_resolving(g: ComponentGraph, w: Iterable[int]) -> ResolvingReport:
    """Full report: resolving status, least collision, minimality.

    The least colliding pair comes from the kernel keys of the sorted set;
    when there is none, minimality from the status of each single removal.
    Single removals suffice: supersets of resolving sets resolve, so a
    resolving proper subset implies a resolving (k-1)-subset.  Needs the
    N x k block, no N x N matrix.
    """
    members = tuple(w)
    order = _sorted_members(members)
    engine = _Engine(g.distance_block(order))
    every = np.arange(len(order))
    pair = _least_equal_rows(engine.keys(every[None, :])[:, 0])
    if pair is not None:
        u, v = pair
        return ResolvingReport(W=members, is_resolving=False, is_minimal=False,
                               colliding_pair=(u + 1, v + 1))
    still = engine.status(_drop_each(every))
    redundant = order[int(np.argmax(still))] if still.any() else None
    return ResolvingReport(W=members, is_resolving=True,
                           is_minimal=redundant is None,
                           redundant_vertex=redundant)


def resolves(g: ComponentGraph, w: Iterable[int]) -> bool:
    """True iff w resolves g: its N x k block as one batch of one, with
    no minimality check."""
    order = _sorted_members(w)
    engine = _Engine(g.distance_block(order))
    return bool(engine.status(np.arange(len(order))[None, :])[0])


def is_minimal(g: ComponentGraph, w: Iterable[int]) -> bool:
    """True iff w is a minimal resolving set, read from `is_resolving`;
    NotResolving when w does not resolve."""
    report = is_resolving(g, w)
    if not report.is_resolving:
        raise NotResolving("the candidate set does not resolve the graph")
    return report.is_minimal


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
    q>=3: all but the largest-id member of every skeleton class.  Checks
    q and n as `ComponentGraph` does.
    """
    field.validate_order(q)
    if n < 1:
        raise BadParameters(f"dimension n={n} must be >= 1")
    if q == 2:
        if n == 1:
            return ()
        if n == 2:
            return (1,)
        return tuple(2 ** i for i in range(n))
    # a class's largest id has every coefficient on its support at q-1
    largest = {(q - 1) * sum(q ** i for i in range(n) if mask >> i & 1)
               for mask in range(1, 1 << n)}
    return tuple(v for v in range(1, q ** n) if v not in largest)


# ---------------------------------------------------------------------------
# the subset engine over a distance matrix (0-based indices)
# ---------------------------------------------------------------------------

class _Engine:
    """The one subset engine: a kernel and three walks.

    Rows of `dist` are vertices and columns are candidate members; the
    matrix is read at its stored dtype.  `dist` may also be a column
    source such as `SkeletonColumns` (`shape`, `largest`, `column(c)`),
    on which only `walk` and `landmark_bound` run: the walk reads one
    column per node, the kernel whole blocks of the matrix.  `keys` is
    the one kernel: exact per-vertex labels of any number of columns,
    read by `status` (the batched resolving test) and by the colliding
    pair of a single set.
    The walks: `scan` lists every k-subset in lexicographic order and
    `orbit` the sets that omit one member of each twin class, each
    `batch` sets at a time through `status`; `walk` visits the scan's
    subsets in the same order but skips the prefixes the twin and
    refinement rules rule out, and decides every node, full k-subsets
    included, by one refinement step of its parent's partition, without
    the kernel.  Each charges the budget for the subsets it evaluates.
    """

    def __init__(self, dist: np.ndarray | SkeletonColumns,
                 budget: int = DEFAULT_BUDGET):
        self.dist = dist
        self.n_rows, self.n_cols = dist.shape
        if isinstance(dist, np.ndarray):
            self.column = lambda c: dist[:, c]
            largest = int(dist.max(initial=0))
        else:
            self.column, largest = dist.column, dist.largest
        self.base = max(largest + 1, 2)
        self.budget = budget
        self.evaluated = 0
        self.batch = max(1, _BATCH_CELLS // max(self.n_rows, 1))

    @property
    def left(self) -> int:
        return self.budget - self.evaluated

    def keys(self, cols: np.ndarray) -> np.ndarray:
        """(N, B) int64 keys of a (B, k) batch of column sets: two rows hold
        equal keys in column b exactly when they agree on every column of
        set b.

        Each column appends one base-`base` digit to every row's label.
        When the next digit would overflow an int64, each candidate's
        labels are first dense-ranked, which keeps equality and brings
        every label below N.  A digit always fits after a rank while
        N * base < 2^62, true of int16 distances for any N below 2^47.
        """
        n, (b, k) = self.n_rows, cols.shape
        labels = np.zeros((n, b), dtype=np.int64)
        batch = np.arange(b)
        bound = 1  # every label lies below bound
        for j in range(k):
            if bound * self.base >= 1 << 62:
                order = labels.argsort(axis=0)
                ranked = labels[order, batch]
                new = ranked[1:] != ranked[:-1]
                ranked[0] = 0
                np.cumsum(new, axis=0, out=ranked[1:])
                labels[order, batch] = ranked
                bound = n
            labels *= self.base
            labels += self.dist[:, cols[:, j]]
            bound *= self.base
        return labels

    def status(self, cols: np.ndarray) -> np.ndarray:
        """Boolean resolving status for a (B, k) batch of column sets, from
        their keys, `batch` sets at a time."""
        out = np.empty(len(cols), dtype=bool)
        for lo in range(0, len(cols), self.batch):
            keys = self.keys(cols[lo:lo + self.batch])
            keys.sort(axis=0)
            out[lo:lo + self.batch] = ~np.any(keys[1:] == keys[:-1], axis=0)
        return out

    def scan(self, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(columns, status) batches of every k-subset in lexicographic
        order, each one charged to the budget.  Callers refuse a scan that
        does not fit the budget before they start it."""
        it = combinations(range(self.n_cols), k)
        while chunk := list(islice(it, self.batch)):
            self.evaluated += len(chunk)
            cols = np.asarray(chunk, dtype=np.intp)
            yield cols, self.status(cols)

    def landmark_bound(self) -> int:
        """Least k >= 1 with n_rows <= D^k + k, D the largest distance.

        The off-diagonal entries of a distance matrix lie in 1..D, so k
        landmarks give the other vertices at most D^k representations and
        themselves k more.  On a connected graph D is the number of
        distinct nonzero distances.
        """
        d, k = self.base - 1, 1
        while d ** k + k < self.n_rows:
            k += 1
        return k

    def walk(self, k: int,
             twin_classes: Sequence[Sequence[int]]) -> tuple[tuple[int, ...] | None, bool]:
        """Lexicographically least resolving k-subset of a square matrix,
        and whether the walk finished within the budget.

        A depth-first walk over sorted prefixes, smallest next column
        first.  Every child of the current prefix is a node: one budget
        unit, and its representation partition is evaluated.  A node is
        dropped when
        (a) some cell of its partition has s > D^r + r vertices, r the
            picks left (no r columns can split it; `landmark_bound`), or
        (b) a twin class has two members the prefix has passed over, or
            the classes still need more than r members in total (every
            resolving set holds all but one member of each class).
        Rule (b) is applied before a child is formed, so the children
        are the columns it allows.  A child with no pick left is a full
        k-subset and a node like any other: with r = 0 rule (a) keeps it
        only when every cell is a single vertex, that is, when it
        resolves, and the first such leaf is the witness.  Labels are
        the dense ranks of a prefix's partition, stored as int32 (they
        lie below N) and widened to int64 for the refinement key.
        """
        n = self.n_cols
        # cls[v]: v's class, named by its least column; next_same[v]: the
        # next column of that class (n if none).  A walk that passes over
        # both v and next_same[v] breaks rule (b).
        cls = np.arange(n, dtype=np.intp)
        next_same = np.full(n, n, dtype=np.intp)
        for members in twin_classes:
            m = sorted(members)
            cls[m] = m[0]
            next_same[m[:-1]] = m[1:]
        sizes = np.bincount(cls, minlength=n)
        first_pair = np.append(np.minimum.accumulate(next_same[::-1])[::-1], n)
        # largest cell a partition may keep with r picks left
        limit, power = [], 1
        for r in range(k + 1):
            limit.append(min(power + r, self.n_rows))
            power = min(power * (self.base - 1), self.n_rows)
        chosen = np.zeros(n, dtype=np.intp)
        passed = np.zeros(n, dtype=bool)
        need = int(np.maximum(sizes - 1, 0).sum())
        if self.n_rows > limit[k] or need > k:
            return None, True
        path: list[int] = []
        undo: list[tuple[int, bool]] = []

        def children() -> np.ndarray:
            lo = path[-1] + 1 if path else 0
            picks_after = k - len(path) - 1
            hi = min(n - picks_after, first_pair[lo] + 1)
            lost = np.flatnonzero(passed[cls[lo:hi]])
            if lost.size:  # a class that lost a member must keep the rest
                hi = lo + int(lost[0]) + 1
            cands = np.arange(lo, hi)
            if need > picks_after:  # every pick left must fill a class
                c = cls[cands]
                cands = cands[chosen[c] < sizes[c] - 1]
            return cands

        def pick(c: int) -> None:
            lo = path[-1] + 1 if path else 0
            passed[cls[lo:c]] = True
            cc = cls[c]
            fills = bool(chosen[cc] < sizes[cc] - 1)
            chosen[cc] += 1
            nonlocal need
            need -= fills
            undo.append((lo, fills))
            path.append(c)

        def unpick() -> None:
            c = path.pop()
            lo, fills = undo.pop()
            passed[cls[lo:c]] = False
            chosen[cls[c]] -= 1
            nonlocal need
            need += fills

        frames = [[np.zeros(self.n_rows, dtype=np.int32), children(), 0]]
        while frames:
            frame = frames[-1]
            labels, cands, pos = frame
            if pos == len(cands):
                frames.pop()
                if path:
                    unpick()
                continue
            frame[2] = pos + 1
            if self.left <= 0:
                return None, False
            self.evaluated += 1
            c = int(cands[pos])
            key = np.multiply(labels, self.base, dtype=np.int64) + self.column(c)
            counts = np.bincount(key)
            picks_after = k - len(path) - 1
            if counts.max() > limit[picks_after]:
                continue
            if picks_after == 0:  # limit[0] == 1: every vertex stands alone
                return tuple(path) + (c,), True
            pick(c)
            frames.append([(np.cumsum(counts > 0, dtype=np.int32) - 1)[key], children(), 0])
        return None, True

    def orbit(self, twin_classes: Sequence[Sequence[int]]
              ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(columns, status) batches of the twin-swap orbit of the core.

        The orbit is every set that omits exactly one member of each of
        the classes, which partition the columns: prod |c| sets, listed in
        lexicographic order, each one charged to the budget.  Callers
        refuse an orbit that does not fit the budget before they start it.
        """
        classes = [sorted(c) for c in twin_classes]
        total = prod(len(c) for c in classes)
        members = [np.asarray(c, dtype=np.intp) for c in classes]
        # one omitted column per class, every combination (mixed radix)
        index = np.arange(total)
        omitted = np.empty((total, len(classes)), dtype=np.intp)
        for j, m in enumerate(members):
            index, digit = np.divmod(index, len(m))
            omitted[:, j] = m[digit]
        omitted.sort(axis=1)
        # W1 < W2 lexicographically iff the least column omitted by only one
        # of them is omitted by W2, iff W1's sorted omissions are the larger
        order = np.lexsort(omitted.T[::-1])[::-1]
        k = self.n_cols - len(classes)
        for lo in range(0, total, self.batch):
            rows = omitted[order[lo:lo + self.batch]]
            keep = np.ones((len(rows), self.n_cols), dtype=bool)
            keep[np.arange(len(rows))[:, None], rows] = False
            cols = np.nonzero(keep)[1].reshape(len(rows), k)
            self.evaluated += len(rows)
            yield cols, self.status(cols)


def _drop_each(cols: Sequence[int]) -> np.ndarray:
    """(k, k-1) batch whose row i is cols without its i-th entry."""
    k = len(cols)
    full = np.broadcast_to(np.asarray(cols, dtype=np.intp), (k, k))
    return full[~np.eye(k, dtype=bool)].reshape(k, max(k - 1, 0))


def find_min_resolving_for_matrix(
    dist: np.ndarray | SkeletonColumns,
    twin_classes: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, tuple[int, ...]]:
    """Smallest k with a resolving k-subset of matrix columns, plus the
    lexicographically least witness (0-based indices).

    `dist` is the distance matrix or a column source for it (see
    `_Engine`).  `twin_classes` partition the vertices into twin
    classes.  The walk starts at the larger of the twin and landmark
    bounds and moves k upward; the budget counts the nodes it evaluates.
    The empty set resolves a matrix of at most one vertex.
    """
    n = dist.shape[0]
    if n <= 1:
        return 0, ()
    engine = _Engine(dist, budget)
    start = max(1, twins_mod.twin_lower_bound(twin_classes), engine.landmark_bound())
    for k in range(start, n + 1):
        hit, complete = engine.walk(k, twin_classes)
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

    Needs 2^N evaluations; refused as by `_refuse_table`.
    """
    n = dist.shape[0]
    _refuse_table(n, budget)
    engine = _Engine(dist, budget)
    status = np.zeros(1 << n, dtype=bool)
    for k in range(n + 1):
        for cols, hits in engine.scan(k):
            status[(np.int64(1) << cols).sum(axis=1)] = hits
    return status


def minimal_status_by_mask(status: np.ndarray) -> np.ndarray:
    """Minimal-resolving status for every subset mask, from the full table
    of 2^n entries.

    For each bit b, viewing both tables as (-1, 2, 2^b) lines up every
    mask holding b (middle index 1) with the same mask without it (0).
    """
    n = status.size.bit_length() - 1
    minimal = status.copy()
    for b in range(n):
        minimal.reshape(-1, 2, 1 << b)[:, 1] &= ~status.reshape(-1, 2, 1 << b)[:, 0]
    return minimal


def all_resolving_k_subsets(
    dist: np.ndarray, k: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Every resolving k-subset of matrix columns, lexicographic order;
    refused by `_refuse_scan` before the scan starts."""
    _refuse_scan(dist.shape[0], k, budget)
    return [tuple(row) for cols, hits in _Engine(dist, budget).scan(k)
            for row in cols[hits].tolist()]


# ---------------------------------------------------------------------------
# refusals: read from counts alone, before any matrix is built
# ---------------------------------------------------------------------------

def _refuse_table(n: int, budget: int) -> None:
    """BudgetExceeded unless the 2^n subset table fits: first when 2^n
    evaluations exceed the budget, then when n is beyond the table guard,
    each with its own message."""
    if (1 << n) > budget:
        raise BudgetExceeded(
            f"full subset table needs 2^{n} evaluations, over the budget {budget}",
            evaluated=0, budget=budget)
    if n > _MASK_TABLE_MAX_N:
        raise BudgetExceeded(
            f"full subset table needs N <= {_MASK_TABLE_MAX_N}, got N = {n}",
            evaluated=0, budget=budget)


def _refuse_orbit(classes: Sequence[Sequence[int]], budget: int) -> None:
    """BudgetExceeded when the twin-swap orbit of `classes`, prod |c| sets,
    exceeds the budget."""
    total = prod(len(c) for c in classes)
    if total > budget:
        raise BudgetExceeded(
            f"twin-swap orbit has {total} sets, over the budget {budget}",
            evaluated=0, budget=budget)


def _refuse_scan(n: int, k: int, budget: int) -> None:
    """BudgetExceeded when the plain scan's C(n, k) subsets, k >= 1, exceed
    the budget."""
    total = comb(n, k)
    if k and total > budget:
        raise BudgetExceeded(
            f"scanning C({n},{k}) = {total} subsets exceeds the budget {budget}",
            evaluated=0, budget=budget)


# ---------------------------------------------------------------------------
# front ends: component graphs and plain graphs alike
# ---------------------------------------------------------------------------
#
# Each maps matrix columns to `g.vertex_ids()` and reads the twin classes
# from `g.twin_classes()`.  A component graph gives the walk its skeleton
# columns; every other route, and every route on a plain graph, reads
# `g.distance_matrix()`.

def _ids(g, cols: Iterable[int]) -> tuple[int, ...]:
    ids = g.vertex_ids()
    return tuple(ids[c] for c in cols)


def metric_dimension_search(
    g, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive-search metric dimension with its least witness (ids).

    On a component graph the walk reads `g.distance_columns()`, one
    column per node, and holds no N x N array.
    """
    dist = g.distance_columns() if isinstance(g, ComponentGraph) else g.distance_matrix()
    k, cols = find_min_resolving_for_matrix(dist, g.twin_classes(), budget)
    return k, _ids(g, cols)


def minimum_resolving_sets(
    g, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[np.ndarray]:
    """Every resolving k-subset of g, lexicographic order (0-based
    columns), where k is the metric dimension, as (B, k) column arrays:
    the sets of one kernel batch that resolve.

    When k equals the twin bound of `g.twin_classes()` the sets come from
    the twin-swap orbit of the core (every class minus its largest
    column), one budget unit per orbit member; otherwise from the plain
    scan of every k-subset.  At that size the orbit holds
    every candidate: a resolving set holds all but one member of each
    twin class, so a resolving set of size sum(|c| - 1) omits exactly one
    member of each class.  Swapping a member for its twin is an
    automorphism, so the orbit's sets resolve together or not at all;
    each is still checked by the kernel, and only those that resolve are
    yielded.  Either route is refused from its count, prod |c| or
    C(N, k), before `g.distance_matrix()` is read.
    """
    classes = g.twin_classes()
    if k == 0 or k != twins_mod.twin_lower_bound(classes):
        _refuse_scan(g.vertex_count, k, budget)
        batches = _Engine(g.distance_matrix(), budget).scan(k)
    else:
        _refuse_orbit(classes, budget)
        batches = _Engine(g.distance_matrix(), budget).orbit(classes)
    for cols, hits in batches:
        yield cols[hits]


def enumerate_minimum_resolving_sets(
    g, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All minimum resolving sets, lexicographic order (ids): k from
    `metric_dimension_search`, the sets from `minimum_resolving_sets`."""
    k, _ = metric_dimension_search(g, budget)
    return [_ids(g, cols) for block in minimum_resolving_sets(g, k, budget)
            for cols in block.tolist()]


def enumerate_minimal_resolving_sets(
    g, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All minimal resolving sets, lexicographic order (ids), from the full
    2^N subset table; BudgetExceeded, with its own message for each, when
    2^N exceeds the budget or N the 20-vertex table guard, before
    `g.distance_matrix()` is read."""
    n = g.vertex_count
    _refuse_table(n, budget)
    minimal = minimal_status_by_mask(resolving_status_by_mask(g.distance_matrix(), budget))
    sets = sorted(tuple(i for i in range(n) if (m >> i) & 1)
                  for m in map(int, np.flatnonzero(minimal)))
    return [_ids(g, w) for w in sets]
