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
Khuller, Raghavachari and Rosenfeld, 1996).  At each size the pruned
walk visits the k-subsets in lexicographic order depth first and drops
a prefix when one of those two rules shows that no completion can
resolve; a full k-subset is decided by the same rule, and the walk
yields every resolving one in that order.  The search takes its first,
the lexicographically least minimum resolving set;
`all_resolving_k_subsets` and `minimum_resolving_sets` above the twin
bound take them all.  The other families are decided by one product
walk over levels of partition rows (`_ProductWalk`), whose leaves come
in mixed-radix order: the twin-swap orbit of the core when the
dimension equals the twin bound (one level per twin class, `_orbit`)
and the 2^N table (one level per column, so leaf m is the set of mask
m).  Neither walk calls the column-group kernel, `_collision`, which
gives a single set's status and colliding pair; a single set's removals
are the rows of its own kept table, with no walk.  Where the table or
the orbit is refused, `twin_core_certificate` checks the premises under
which the minimal sets are the orbit, with one kernel call and no walk.

Budgets are counted in candidate subsets evaluated, never wall time:
one unit per node of the pruned walk, one per leaf of a product walk,
and one per set or class the twin-core certificate tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import field
from . import twins as twins_mod
from .errors import BadParameters, BudgetExceeded, NotResolving
from .graph import (BLOCK_CELLS, ComponentGraph, MatrixColumns, SkeletonColumns, slabs,
                    twin_classes_by_row_digest)

DEFAULT_BUDGET = 1_000_000

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

def _sorted_columns(g: ComponentGraph, w: Iterable[int]) -> np.ndarray:
    """The set's 0-based columns, ascending; duplicates are refused first,
    then ids outside the graph's, least first (id 0 of a component graph
    would read column -1)."""
    order = sorted(w)
    if len(set(order)) != len(order):
        raise BadParameters("candidate set contains duplicate vertices")
    for x in order:
        g.check_vertex(x)
    return np.array(order, dtype=np.intp) - g.vertex_ids().start


def _collision(engine: _Engine, cols: np.ndarray) -> tuple[int, int] | None:
    """The least pair u < v of rows that agree on every column of `cols`,
    or None: the column-group kernel.

    Each column, read a slab at a time (`slabs`), appends one base-`base`
    digit to every row's int64 key, so two rows hold equal keys exactly
    when they agree on every column so far.  When the next digit would
    pass 2^62, the keys are first dense-ranked, which keeps equality and
    brings every key below N; a digit always fits after a rank while
    N * base < 2^62, true of int16 distances for any N below 2^47.  The
    pair is the adjacent equal entry, after a stable sort of the keys,
    with the least first row.
    """
    keys = np.zeros(engine.n_rows, dtype=np.int64)
    bound = 1  # every key lies below bound
    for s in slabs(len(cols), engine.n_rows):
        for digit in engine.column(cols[s]).T:
            if bound * engine.base >= 1 << 62:
                _dense_rank(keys[:, None])
                bound = engine.n_rows
            keys *= engine.base
            keys += digit
            bound *= engine.base
    rank = np.argsort(keys, kind="stable")
    same = np.flatnonzero(keys[rank[1:]] == keys[rank[:-1]])
    if not same.size:
        return None
    i = same[np.argmin(rank[same])]
    return int(rank[i]), int(rank[i + 1])


def _single_removals(engine: _Engine, cols: np.ndarray) -> np.ndarray:
    """Whether each column's removal from `cols` still resolves: row i of
    the set's kept table (`_kept_table`) is its partition without cols[i],
    and the rows are tested a slab at a time (`slabs`, `_distinct_rows`)."""
    table = _kept_table(engine, cols)
    still = np.empty(len(table), dtype=bool)
    for s in slabs(len(table), engine.n_rows):
        still[s] = _distinct_rows(table[s])
    return still


def is_resolving(g: ComponentGraph, w: Iterable[int]) -> ResolvingReport:
    """Full report: resolving status, least collision, minimality.

    The least colliding pair comes from `_collision` over the sorted
    set's columns of `g.distance_columns()`; when there is none,
    minimality from each single removal (`_single_removals`), by
    ascending member, so `redundant_vertex` is the least redundant one.
    Single removals suffice, as supersets of resolving sets resolve.
    """
    members, ids = tuple(w), g.vertex_ids()
    cols = _sorted_columns(g, members)
    engine = _Engine(g.distance_columns())
    pair = _collision(engine, cols)
    if pair is not None:
        return ResolvingReport(W=members, is_resolving=False, is_minimal=False,
                               colliding_pair=(ids[pair[0]], ids[pair[1]]))
    still = _single_removals(engine, cols)
    redundant = ids[int(cols[np.argmax(still)])] if still.any() else None
    return ResolvingReport(W=members, is_resolving=True,
                           is_minimal=redundant is None,
                           redundant_vertex=redundant)


def resolves(g: ComponentGraph, w: Iterable[int]) -> bool:
    """True iff w resolves g: `_collision` finds no pair among its columns
    of `g.distance_columns()`, with no minimality check."""
    return _collision(_Engine(g.distance_columns()), _sorted_columns(g, w)) is None


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
# the subset engine over distance columns (0-based indices)
# ---------------------------------------------------------------------------

class _Engine:
    """The one subset engine: a kernel and two walks.

    Rows and columns of `dist` are vertices; every route, single sets
    included, names a set by its columns.  The engine reads it through
    `column(c)`, one column for an index and an N x B block for an index
    array, of a column source (`shape`, `largest`, `column(c)`):
    `SkeletonColumns`, or `MatrixColumns`, in which a bare distance
    matrix is wrapped.
    The one kernel, `_collision`, keys a single set's columns and reads
    its colliding pair.  The walks: `walk` yields every resolving
    k-subset in lexicographic order, depth first, skipping the prefixes
    the twin and refinement rules rule out and deciding every node, full
    k-subsets included, by one refinement step of its parent's partition
    (`_refine`); the product walk (`_ProductWalk`) decides every leaf
    of a product of levels of partition rows, and serves two clients:
    the twin-swap orbit (`_orbit`) and the 2^N table
    (`resolving_status_by_mask`).  Neither calls the kernel.  Each
    charges the budget for the subsets it evaluates.
    """

    def __init__(self, dist: np.ndarray | MatrixColumns | SkeletonColumns,
                 budget: int = DEFAULT_BUDGET):
        if isinstance(dist, np.ndarray):
            dist = MatrixColumns(dist)
        self.n_rows, self.n_cols = dist.shape
        self.column = dist.column
        self.base = max(dist.largest + 1, 2)
        self.budget = budget
        self.evaluated = 0
        self.batch = max(1, BLOCK_CELLS // max(self.n_rows, 1))

    @property
    def left(self) -> int:
        return self.budget - self.evaluated

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

    def walk(self, k: int, twin_classes: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
        """Every resolving k-subset of a square matrix, in lexicographic
        order; BudgetExceeded ("search stopped after E subset
        evaluations", with bounds k and N) when the budget runs out
        before the walk ends.

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
        are the columns it allows; without the twin classes the walk
        still lists every set, only more slowly.  A child with no pick
        left is a full k-subset and a node like any other: with r = 0
        rule (a) keeps it only when every cell is a single vertex, that
        is, when it resolves, and it is yielded before its later
        siblings are tried.  For k = 0 the root is the only set: the
        empty set, yielded when N <= 1.  Labels are the dense ranks of a
        prefix's partition from `_refine`, of `_label_dtype(N)` (uint16 up
        to N = 65,535).  Depth d keeps its labels in row d of one array of
        N columns, with a row for each depth the budget reaches (a depth
        below the root costs one evaluation), so a walk holds at most
        min(k, budget left + 1) rows and gives them all back at once when
        it ends.
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
            return
        if k == 0:
            yield ()
            return
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

        depths = min(k, max(self.left, 0) + 1)
        rows = np.empty((depths, self.n_rows), dtype=_label_dtype(self.n_rows))
        rows[0] = 0
        frames = [[rows[0], children(), 0]]
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
                raise BudgetExceeded(
                    f"search stopped after {self.evaluated} subset evaluations",
                    evaluated=self.evaluated, budget=self.budget,
                    lower_bound=k, upper_bound=n)
            self.evaluated += 1
            c = int(cands[pos])
            picks_after = k - len(path) - 1
            labels = _refine(labels, self.base, self.column(c), limit[picks_after])
            if labels is None:
                continue
            if picks_after == 0:  # limit[0] == 1: every vertex stands alone
                yield tuple(path) + (c,)
                continue
            pick(c)
            rows[len(frames)] = labels
            frames.append([rows[len(frames)], children(), 0])


def _dense_rank(labels: np.ndarray) -> None:
    """Replace each column of a 2-D label array, in place, by its dense
    ranks: equal labels stay equal and every label falls below the
    number of rows."""
    order = labels.argsort(axis=0)
    batch = np.arange(labels.shape[1])
    ranked = labels[order, batch]
    new = ranked[1:] != ranked[:-1]
    ranked[0] = 0
    np.cumsum(new, axis=0, out=ranked[1:])
    labels[order, batch] = ranked


def _label_dtype(n: int) -> np.dtype:
    """The dtype of dense labels below n: uint16 up to n = 65,535, the
    narrowest unsigned type that holds n past it.  Not uint8 below 256:
    uint8 labels raised the peak RSS of a small cell's `dim` or `verify`
    by about 0.1 MB, with the same traced allocations, to save a few
    hundred bytes."""
    return np.promote_types(np.min_scalar_type(n), np.uint16)


def _refine(labels: np.ndarray, base: int, column: np.ndarray,
            limit: int) -> np.ndarray | None:
    """The partition `labels` (each below N) met with one column of
    distances below `base`: dense ranks in ascending key order, in
    `labels`' own dtype, from a bincount of the int64 keys, or None when
    a cell holds more than `limit` rows.  The ranks lie below N, so a
    dtype that holds N holds them."""
    key = np.multiply(labels, base, dtype=np.int64) + column
    counts = np.bincount(key)
    if counts.max() > limit:
        return None
    return (np.cumsum(counts > 0, dtype=labels.dtype) - 1)[key]


def _kept_table(engine: _Engine, members: Sequence[int]) -> np.ndarray:
    """(|c|, n_rows) table for one class c of columns: row i is the
    partition of the rows by the class's columns other than members[i],
    as dense labels.  Row i meets the partition by the members before i
    with that by the members after it, so a class costs 2|c| one-column
    steps (`_refine`) and |c| sorted meets, not |c|(|c| - 1) steps."""
    rows = engine.n_rows
    table = np.empty((len(members), rows), dtype=np.min_scalar_type(max(rows - 1, 0)))
    before = np.zeros(rows, dtype=_label_dtype(rows))
    for i, x in enumerate(members):
        table[i] = before
        before = _refine(before, engine.base, engine.column(x), rows)
    after = np.zeros(rows, dtype=_label_dtype(rows))
    for i in reversed(range(len(members))):
        meet = table[i] * np.int64(rows) + after
        _dense_rank(meet[:, None])
        table[i] = meet
        after = _refine(after, engine.base, engine.column(members[i]), rows)
    return table


def _distinct_rows(labels: np.ndarray) -> np.ndarray:
    """True for each row of a 2-D label array whose labels are pairwise
    distinct; sorts the rows in place."""
    labels.sort(axis=1)
    return ~np.any(labels[:, 1:] == labels[:, :-1], axis=1)


class _ProductWalk:
    """Every leaf of a product of levels, decided in leaf order.

    Level d is a (len_d, n_rows) array of partition rows: labels of
    the rows, each below `width`.  Leaf i takes row
    (i // leaves[d + 1]) % len_d of every level d, `leaves[d]` the
    product of the lengths of levels d onward, and its partition is the
    meet of those rows; it is a hit when its labels are distinct
    (`_distinct_rows`).  Its callers decode a leaf's set from its index
    and refuse a walk that does not fit the budget before they start
    it; each leaf is one budget unit.

    A node at depth d has taken one row of each level before d; its
    labels are its parent's with one digit appended, the row it takes,
    as `_collision` appends one, so a shared prefix is met once.
    Labels are int32 and are dense-ranked only before a digit would
    overflow them, which leaves room for a digit while N * width < 2^31.
    A node with more leaves than a batch holds is split into runs of
    its children, as many as fit a batch; a run goes down to its leaves
    as a whole and is one batch of the output, so no level holds more
    than `BLOCK_CELLS` labels, and a run of children reads a slice of
    its level, a view.
    """

    def __init__(self, engine: _Engine, levels: Sequence[np.ndarray]):
        self.engine, self.levels = engine, levels
        self.leaves = [prod(len(t) for t in levels[d:]) for d in range(len(levels) + 1)]
        self.width = max((int(t.max(initial=0)) for t in levels), default=0) + 1

    def batches(self) -> Iterator[np.ndarray]:
        """The leaves' hits in leaf order, at most `engine.batch` a batch."""
        root = (np.zeros((1, self.engine.n_rows), dtype=np.int32), 1)
        if self.leaves[0] <= self.engine.batch:
            yield self._descend(root, 0)
        else:
            yield from self._runs(root, 0)

    def _runs(self, node: tuple, d: int) -> Iterator[np.ndarray]:
        """Batches below one node at depth d with more leaves than a batch:
        runs of its children that fit a batch, else each child's runs."""
        step = self.engine.batch // self.leaves[d + 1]
        for lo in range(0, len(self.levels[d]), max(step, 1)):
            run = self._children(node, d, slice(lo, lo + max(step, 1)))
            if step:
                yield self._descend(run, d + 1)
            else:
                yield from self._runs(run, d + 1)

    def _children(self, node: tuple, d: int, part: slice) -> tuple:
        """(labels, bound) of the children of the nodes that take each row
        of `part` of level d; labels lie below bound."""
        labels, bound = node
        rows = self.levels[d][part]
        if bound * self.width >= 1 << 31:
            _dense_rank(labels.T)
            bound = self.engine.n_rows
        p, b, n = len(labels), len(rows), self.engine.n_rows
        labels = np.repeat(labels, b, axis=0).reshape(p, b, n)
        labels *= self.width
        labels += rows
        return labels.reshape(p * b, n), bound * self.width

    def _descend(self, node: tuple, d: int) -> np.ndarray:
        """Take a run of nodes at depth d down to its leaves: their hits."""
        for level in range(d, len(self.levels)):
            node = self._children(node, level, slice(None))
        hits = _distinct_rows(node[0])
        self.engine.evaluated += len(hits)
        return hits


def _orbit(engine: _Engine,
           twin_classes: Sequence[Sequence[int]]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(columns, status) batches of the twin-swap orbit, class-product
    order: a product walk with one level per class.

    A set of the orbit omits one member of each class; a class of one
    member is omitted by every set and takes no part.  Level d is free
    class d (two or more members), the classes ordered by size, largest
    last, ties by least member, so the upper levels hold the fewest
    nodes.  Omitting x keeps its class minus x, whose own partition of
    the rows depends on x alone: level d is the class's kept table
    (`_kept_table`), row i for omitting its i-th member, so leaf i omits
    member (i // leaves[d + 1]) % |c| of each free class, and its kept
    columns are decoded from its index.
    """
    classes = [sorted(c) for c in twin_classes]
    free = sorted((c for c in classes if len(c) > 1), key=lambda c: (len(c), c[0]))
    fixed = [c[0] for c in classes if len(c) == 1]
    walk = _ProductWalk(engine, [_kept_table(engine, c) for c in free])
    n, width = engine.n_cols, engine.n_cols - len(free) - len(fixed)
    lo = 0
    for hits in walk.batches():
        b = len(hits)
        leaf, row = np.arange(lo, lo + b), np.arange(b)
        lo += b
        keep = np.ones((b, n), dtype=bool)
        keep[:, fixed] = False
        for d, members in enumerate(free):
            keep[row, np.asarray(members)[leaf // walk.leaves[d + 1] % len(members)]] = False
        # one gather of the kept column numbers, row by row
        yield np.broadcast_to(np.arange(n), (b, n))[keep].reshape(b, width), hits


def find_min_resolving_for_matrix(
    dist: np.ndarray | MatrixColumns | SkeletonColumns,
    twin_classes: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, tuple[int, ...]]:
    """Smallest k with a resolving k-subset of matrix columns, plus the
    lexicographically least witness (0-based indices).

    `dist` is the distance matrix or a column source for it (see
    `_Engine`).  `twin_classes` partition the vertices into twin
    classes.  The walk starts at the larger of the twin and landmark
    bounds and moves k upward, taking the first set it yields; the
    budget counts the nodes it evaluates.  The empty set resolves a
    matrix of at most one vertex.
    """
    n = dist.shape[0]
    if n <= 1:
        return 0, ()
    engine = _Engine(dist, budget)
    start = max(1, twins_mod.twin_lower_bound(twin_classes), engine.landmark_bound())
    for k in range(start, n + 1):
        hit = next(engine.walk(k, twin_classes), None)
        if hit is not None:
            return k, hit
        if engine.left == 0:
            raise BudgetExceeded(
                f"budget spent after finishing level k={k}",
                evaluated=engine.evaluated, budget=budget,
                lower_bound=k + 1, upper_bound=n)
    raise AssertionError("the full vertex set always resolves")


def resolving_status_by_mask(dist: np.ndarray | MatrixColumns | SkeletonColumns,
                             budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Resolving status of every subset, indexed by bit mask of columns.

    A product walk whose level d is a zero row and the dense ranks of
    column N - 1 - d: leaf m takes column c exactly when bit c of m is
    set, so the leaves come in mask order.  Needs 2^N evaluations;
    refused as by `_refuse_table`.
    """
    n = dist.shape[0]
    _refuse_table(n, budget)
    engine = _Engine(dist, budget)
    levels = [np.stack([np.zeros(n, dtype=np.intp),
                        np.unique(engine.column(c), return_inverse=True)[1]])
              for c in reversed(range(n))]
    return np.concatenate(list(_ProductWalk(engine, levels).batches()))


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
    """Every resolving k-subset of matrix columns, lexicographic order:
    every set the pruned walk yields, with the twin classes of the
    graph whose edges are the entries equal to 1.  The budget counts
    the walk's nodes, and the walk raises BudgetExceeded when they run
    out.  That cost is in nodes, not C(N, k): about N^3 / 6 at k = N - 2
    on a (q,2) cell, so it exceeds the default budget at (25,2), k = 622,
    where C(N, k) is 194,376."""
    classes = twin_classes_by_row_digest(lambda v: np.packbits(dist[v] == 1, axis=1),
                                         len(dist))
    return list(_Engine(dist, budget).walk(k, classes))


# ---------------------------------------------------------------------------
# refusals: read from counts alone, before any matrix is built
# ---------------------------------------------------------------------------

def _refuse(needed: int, budget: int, what: str) -> None:
    """BudgetExceeded ("<what>, over the budget B", nothing evaluated) when
    `needed` subset evaluations exceed the budget."""
    if needed > budget:
        raise BudgetExceeded(f"{what}, over the budget {budget}", evaluated=0, budget=budget)


def _refuse_table(n: int, budget: int) -> None:
    """BudgetExceeded unless the 2^n subset table fits: first when 2^n
    evaluations exceed the budget, then when n is beyond the table guard,
    each with its own message."""
    _refuse(1 << n, budget, f"full subset table needs 2^{n} evaluations")
    if n > _MASK_TABLE_MAX_N:
        raise BudgetExceeded(
            f"full subset table needs N <= {_MASK_TABLE_MAX_N}, got N = {n}",
            evaluated=0, budget=budget)


# ---------------------------------------------------------------------------
# front ends: component graphs and plain graphs alike
# ---------------------------------------------------------------------------
#
# Each maps matrix columns to `g.vertex_ids()` and reads the twin classes
# from `g.twin_classes()`.  The pruned walk, the orbit and the 2^N table
# all read `g.distance_columns()`: a component graph's skeleton columns, a
# plain graph's matrix.

def _ids(g, cols: Iterable[int]) -> tuple[int, ...]:
    ids = g.vertex_ids()
    return tuple(ids[c] for c in cols)


def metric_dimension_search(
    g, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive-search metric dimension with its least witness (ids).

    The walk reads `g.distance_columns()`, one column per node, so on a
    component graph it holds no N x N array.
    """
    k, cols = find_min_resolving_for_matrix(g.distance_columns(), g.twin_classes(), budget)
    return k, _ids(g, cols)


def minimum_resolving_sets(
    g, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[np.ndarray]:
    """Every resolving k-subset of g (0-based columns), where k is the
    metric dimension, as (B, k) column arrays of at most `_Engine.batch`
    sets each.

    Both routes read `g.distance_columns()`.  When k equals the twin
    bound of `g.twin_classes()` the sets come from the twin-swap orbit
    of the core (every class minus its largest column), in
    class-product order, one budget unit per orbit member, and a batch
    holds the sets of one orbit batch that resolve (the batch's own
    array when all of them do).  At that size the orbit holds every
    candidate: a resolving set holds all but one member of each twin
    class, so a resolving set of size sum(|c| - 1) omits exactly one
    member of each class.  Swapping a member for its twin is an
    automorphism, so the orbit's sets resolve together or not at all;
    the orbit still decides each one.  The orbit is refused from its
    count, prod |c|, before any distance is read.  Otherwise the sets
    are every set the pruned walk yields, in lexicographic order, and
    the walk raises BudgetExceeded when the nodes it evaluates use up
    the budget, possibly after some batches; near k = N its nodes far
    exceed C(N, k) (see `all_resolving_k_subsets`).
    """
    classes = g.twin_classes()
    if k != twins_mod.twin_lower_bound(classes):
        engine = _Engine(g.distance_columns(), budget)
        sets = engine.walk(k, classes)
        while block := list(islice(sets, engine.batch)):
            yield np.array(block, dtype=np.intp).reshape(len(block), k)
        return
    orbit = prod(len(c) for c in classes)
    _refuse(orbit, budget, f"twin-swap orbit has {orbit} sets")
    for cols, hits in _orbit(_Engine(g.distance_columns(), budget), classes):
        yield cols if hits.all() else cols[hits]
        del cols, hits  # not held while the next batch is built


def enumerate_minimum_resolving_sets(
    g, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All minimum resolving sets, lexicographic order (ids): k from
    `metric_dimension_search`, the sets from `minimum_resolving_sets`,
    sorted."""
    k, _ = metric_dimension_search(g, budget)
    return sorted(_ids(g, cols) for block in minimum_resolving_sets(g, k, budget)
                  for cols in block.tolist())


def enumerate_minimal_resolving_sets(
    g, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All minimal resolving sets, lexicographic order (ids), from the full
    2^N subset table; BudgetExceeded, with its own message for each, when
    2^N exceeds the budget or N the 20-vertex table guard, before
    `g.distance_columns()` is read."""
    n = g.vertex_count
    _refuse_table(n, budget)
    minimal = minimal_status_by_mask(resolving_status_by_mask(g.distance_columns(), budget))
    sets = sorted(tuple(i for i in range(n) if (m >> i) & 1)
                  for m in map(int, np.flatnonzero(minimal)))
    return [_ids(g, w) for w in sets]


# ---------------------------------------------------------------------------
# the twin-core certificate: the minimal sets where no table lists them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwinCore:
    """The twin classes (0-based columns, ascending) of a graph whose
    twin-core premises held (`twin_core_certificate`)."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def core(self) -> tuple[int, ...]:
        """The orbit member that omits the largest column of each class of
        two or more, ascending."""
        return tuple(sorted(x for c in self.classes for x in c
                            if len(c) == 1 or x != c[-1]))

    @property
    def family_size(self) -> int:
        """The orbit's size, prod |c|."""
        return prod(len(c) for c in self.classes)

    @property
    def charge(self) -> int:
        """The budget units the certificate evaluates: one `is_twin_class`
        per class and one `resolves` on the core."""
        return 1 + len(self.classes)


def _paired(classes: Sequence[Sequence[int]]) -> bool:
    """Premise (ii) of the twin-core certificate: every class has two
    members or more."""
    return all(len(c) > 1 for c in classes)


def twin_class_verdicts(g) -> dict[tuple[int, ...], bool]:
    """Premise (i) of the twin-core certificate, class by class: each
    class of `g.twin_classes()`, as its ids, mapped to its
    `twins.is_twin_class` verdict.  Every class of two or more is tested,
    with no early stop, so one pass serves every reader of a verdict; a
    class of one is a twin class with no test."""
    return {ids: len(ids) == 1 or twins_mod.is_twin_class(g, ids)
            for ids in (_ids(g, c) for c in g.twin_classes())}


def twin_core_certificate(
    g, budget: int = DEFAULT_BUDGET,
    twin_verdicts: Callable[..., Mapping[tuple[int, ...], bool]] = twin_class_verdicts,
) -> TwinCore | None:
    """The twin classes of g when its minimal resolving sets are exactly
    the twin-swap orbit; None when a premise fails.

    The orbit is the sets that omit exactly one member of each class of
    two or more, prod |c| of them; the core is its member that omits
    each such class's largest.  The premises, each checked here on
    `g.twin_classes()`:
    (i) the classes partition the columns and each passes
        `twins.is_twin_class`: `twin_verdicts(g)` holds a true verdict
        for every class (`twin_class_verdicts`, or a caller's copy of
        its one pass);
    (ii) every class has two members or more;
    (iii) the core resolves (`resolves`).  Given (i) and (ii) this fails
        only when the classes split a twin class: two non-twins outside
        the core are told apart by some w, and w or its twin is in the
        core.
    Then:
    - Two members of a class have equal distances to every other vertex,
      so a resolving set omits at most one member of each class, and by
      (i) and (ii) it holds an orbit member: in each class it does not
      cut, leave out any one member.
    - A twin transposition is an automorphism, so by (iii) every orbit
      member resolves.  A minimal resolving set holds a resolving orbit
      member, so it is that member.  An orbit member is minimal: without
      any one of its members x, x's class has two members outside it.
      So the minimal sets are the orbit, each of |core| members.
    - The exchange property holds.  Take orbit members W1, W2 and r in
      W1 minus W2, in class C.  W2 omits r alone of C; W1 holds r and
      omits some s of C, which W2 keeps.  (W2 - s) + r omits s alone of
      C and what W2 omits elsewhere, so it is an orbit member.
    A singleton class {v} breaks this: v has no twin, so nothing forces
    it into a resolving set, yet every orbit member holds it, and an orbit
    member need not be minimal.  At q=2, n=3 every class is a singleton:
    the orbit is V alone, which resolves, while the minimal sets have 3
    or 4 members and the exchange property fails.  The exchange step
    above needs a twin s of r too.

    The certificate is charged for what it evaluates (`TwinCore.charge`):
    one unit per `is_twin_class` and one for the core's `resolves`,
    1 + #classes in all.  Once (ii) holds it is refused (BudgetExceeded,
    "twin-core certificate needs C evaluations, over the budget B") when
    that charge exceeds the budget, before any distance is read.  The
    family it decides, prod |c| sets, is counted, never listed, so it
    may exceed the budget.
    """
    classes = g.twin_classes()
    if not _paired(classes):
        return None
    cert = TwinCore(classes)
    _refuse(cert.charge, budget, f"twin-core certificate needs {cert.charge} evaluations")
    if sorted(x for c in classes for x in c) != list(range(g.vertex_count)):
        return None
    verdicts = twin_verdicts(g)
    if not all(verdicts.get(_ids(g, c), False) for c in classes):
        return None
    return cert if resolves(g, _ids(g, cert.core)) else None
