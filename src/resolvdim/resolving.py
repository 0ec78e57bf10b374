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
of those two rules shows that no completion can resolve, so the returned
witness is the lexicographically least minimum resolving set.  When the
dimension equals the twin bound, the minimum resolving sets are the
twin-swap orbit of the core and are enumerated as such.

Budgets are counted in candidate subsets evaluated, never wall time: one
unit per prefix subset whose representation partition the walk
evaluates, one per subset a plain scan or an orbit checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import twins as twins_mod
from . import vectorspace
from .errors import BadParameters, BudgetExceeded, NotResolving
from .graph import ComponentGraph

DEFAULT_BUDGET = 1_000_000

_BATCH = 8192
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


def _single_set(g: ComponentGraph, order: tuple[int, ...]
                ) -> tuple[tuple[int, int] | None, np.ndarray | None]:
    """Least colliding pair (0-based) of a sorted set, from its kernel
    keys; when there is none, the resolving status of each single removal
    (row i drops order[i]).  Needs the N x k block, no N x N matrix."""
    engine = _Engine(g.distance_block(order))
    every = np.arange(len(order))
    pair = _least_equal_rows(engine.keys(every[None, :])[:, 0])
    if pair is not None:
        return pair, None
    return None, engine.status(_drop_each(every))


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
    """Full report: resolving status, least collision, minimality."""
    members = tuple(w)
    order = _sorted_members(members)
    pair, still = _single_set(g, order)
    if still is None:
        u, v = pair
        return ResolvingReport(W=members, is_resolving=False, is_minimal=False,
                               colliding_pair=(u + 1, v + 1))
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
    """True iff w resolves and no single removal still resolves.

    Single removals suffice: supersets of resolving sets resolve, so a
    resolving proper subset implies a resolving (k-1)-subset.
    """
    _, still = _single_set(g, _sorted_members(w))
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
    """The one subset engine: a kernel, a plain scan, a pruned walk and the
    twin-swap orbit.

    Rows of `dist` are vertices and columns are candidate members; the
    matrix is read at its stored dtype.  `keys` is the one kernel: exact
    per-vertex labels of any number of columns, read by `status` (the
    only resolving test) and by the colliding pair of a single set.
    `_scan` walks every k-subset in lexicographic order; `walk`
    visits the same subsets in the same order but skips the prefixes the
    twin and refinement rules rule out; `orbit` lists the sets that omit
    one member of each twin class.  The budget counts the subsets each of
    them evaluates.
    """

    def __init__(self, dist: np.ndarray, budget: int = DEFAULT_BUDGET):
        self.dist = dist
        self.n_rows, self.n_cols = dist.shape
        self.base = max(int(dist.max(initial=0)) + 1, 2)
        self.budget = budget
        self.evaluated = 0

    @property
    def left(self) -> int:
        return self.budget - self.evaluated

    def keys(self, cols: np.ndarray) -> np.ndarray:
        """(N, B) int64 keys of a (B, k) batch of column sets: two rows hold
        equal keys in column b exactly when they agree on every column of
        set b.

        A group of columns appends one base-`base` digit each to every
        row's label, as many as fit an int64; if columns remain, each
        candidate's labels are dense-ranked, keeping equality and every
        label below N, and the next group starts.  A group takes at least
        one column while N * base < 2^62, true of int16 distances for any N
        below 2^47.  Columns are gathered in runs of at most _BATCH_CELLS
        entries and a run's digits appended with one integer product; a
        one-column run, as in every full chunk of `status`, is added
        directly, where the product is several times slower.
        """
        n, (b, k) = self.n_rows, cols.shape
        labels = np.zeros((n, b), dtype=np.int64)
        batch = np.arange(b)
        run = max(1, _BATCH_CELLS // max(n * b, 1))
        lo, bound = 0, 1  # every label lies below bound
        while lo < k:
            if bound * self.base >= 1 << 62:
                order = labels.argsort(axis=0)
                ranked = labels[order, batch]
                new = ranked[1:] != ranked[:-1]
                ranked[0] = 0
                np.cumsum(new, axis=0, out=ranked[1:])
                labels[order, batch] = ranked
                bound = n
            hi = lo
            while hi < min(k, lo + run) and bound * self.base < 1 << 62:
                hi += 1
                bound *= self.base
            digits = self.dist[:, cols[:, lo:hi]]
            labels *= self.base ** (hi - lo)
            if hi - lo == 1:
                labels += digits[:, :, 0]
            else:
                labels += digits @ self.base ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64)
            lo = hi
        return labels

    def status(self, cols: np.ndarray) -> np.ndarray:
        """Boolean resolving status for a (B, k) batch of column sets, from
        their keys, at most _BATCH_CELLS keys at a time."""
        out = np.empty(len(cols), dtype=bool)
        step = max(1, _BATCH_CELLS // max(self.n_rows, 1))
        for lo in range(0, len(cols), step):
            keys = self.keys(cols[lo:lo + step])
            keys.sort(axis=0)
            out[lo:lo + step] = ~np.any(keys[1:] == keys[:-1], axis=0)
        return out

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
        are the columns it allows.  Children with no pick left are full
        k-subsets; the kernel `status` decides them, in batches, and the
        budget is charged up to the witness, as if one at a time.
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

        leaf_batch = max(1, min(_BATCH, _BATCH_CELLS // max(self.n_rows, 1)))
        frames = [[np.zeros(self.n_rows, dtype=np.int64), children(), 0]]
        while frames:
            frame = frames[-1]
            labels, cands, pos = frame
            picks_after = k - len(path) - 1
            if picks_after == 0:
                for at in range(0, len(cands), leaf_batch):
                    chunk = cands[at:at + min(leaf_batch, self.left)]
                    if chunk.size == 0:
                        return None, False
                    cols = np.empty((len(chunk), k), dtype=np.intp)
                    cols[:, :-1] = path
                    cols[:, -1] = chunk
                    hits = self.status(cols)
                    if hits.any():
                        first = int(np.argmax(hits))
                        self.evaluated += first + 1
                        return tuple(path) + (int(chunk[first]),), True
                    self.evaluated += len(chunk)
                    if len(chunk) < len(cands[at:at + leaf_batch]):
                        return None, False
                pos = len(cands)
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
            key = labels * self.base + self.dist[:, c]
            counts = np.bincount(key)
            if counts.max() > limit[picks_after]:
                continue
            pick(c)
            frames.append([(np.cumsum(counts > 0) - 1)[key], children(), 0])
        return None, True

    def orbit(self, twin_classes: Sequence[Sequence[int]]
              ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(columns, status) batches of the twin-swap orbit of the core.

        The orbit is every set that omits exactly one member of each of
        the classes, which partition the columns: prod |c| sets, listed in
        lexicographic order, each one charged to the budget.  Raises
        BudgetExceeded before listing when they do not fit the budget left.
        """
        classes = [sorted(c) for c in twin_classes]
        total = prod(len(c) for c in classes)
        if total > self.left:
            raise BudgetExceeded(
                f"twin-swap orbit has {total} sets, over the budget {self.budget}",
                evaluated=self.evaluated, budget=self.budget)
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
        for lo in range(0, total, _BATCH):
            rows = omitted[order[lo:lo + _BATCH]]
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
    dist: np.ndarray,
    twin_classes: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, tuple[int, ...]]:
    """Smallest k with a resolving k-subset of matrix columns, plus the
    lexicographically least witness (0-based indices).

    `twin_classes` partition the vertices into twin classes.  The walk
    starts at the larger of the twin and landmark bounds and moves k
    upward; the budget counts the nodes it evaluates.  The empty set
    resolves a matrix of at most one vertex.
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


def minimum_resolving_sets_for_matrix(
    dist: np.ndarray,
    twin_classes: Sequence[Sequence[int]],
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Every resolving k-subset of matrix columns, lexicographic order
    (0-based), where k is the metric dimension.

    When k equals the twin bound the sets come from the twin-swap orbit
    of the core (every class minus its largest column), one budget unit
    per orbit member; otherwise from `all_resolving_k_subsets`.  At that
    size the orbit holds every candidate: a resolving set holds all but
    one member of each twin class, so a resolving set of size
    sum(|c| - 1) omits exactly one member of each class.  Swapping a
    member for its twin is an automorphism, so the orbit's sets resolve
    together or not at all; each is still checked by the kernel, and
    only those that resolve are yielded.
    """
    if k == 0 or k != twins_mod.twin_lower_bound(twin_classes):
        yield from all_resolving_k_subsets(dist, k, budget)
        return
    engine = _Engine(dist, budget)
    for cols, hits in engine.orbit(twin_classes):
        for row in cols[hits]:
            yield tuple(int(c) for c in row)


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
        return [()] if n <= 1 else []
    total = comb(n, k)
    if total > budget:
        raise BudgetExceeded(
            f"scanning C({n},{k}) = {total} subsets exceeds the budget {budget}",
            evaluated=0, budget=budget)
    return _Engine(dist, budget).all_hits(k)


# ---------------------------------------------------------------------------
# front ends: component graphs and plain graphs alike
# ---------------------------------------------------------------------------
#
# Each takes the distances from `g.distance_matrix()`, the twin classes
# from `g.adjacency_matrix()` and maps matrix columns to `g.vertex_ids()`.

def _ids(g, cols: Iterable[int]) -> tuple[int, ...]:
    ids = g.vertex_ids()
    return tuple(ids[c] for c in cols)


def metric_dimension_search(
    g, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive-search metric dimension with its least witness (ids)."""
    classes = twins_mod.twin_classes_from_adjacency(g.adjacency_matrix())
    k, cols = find_min_resolving_for_matrix(g.distance_matrix(), classes, budget)
    return k, _ids(g, cols)


def enumerate_minimum_resolving_sets(
    g, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All minimum resolving sets, lexicographic order (ids)."""
    dist = g.distance_matrix()
    classes = twins_mod.twin_classes_from_adjacency(g.adjacency_matrix())
    k, _ = find_min_resolving_for_matrix(dist, classes, budget)
    return [_ids(g, cols)
            for cols in minimum_resolving_sets_for_matrix(dist, classes, k, budget)]


def enumerate_minimal_resolving_sets(
    g, size_cap: int | None = None, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All minimal resolving sets of size <= size_cap, lexicographic order
    (ids), from the full 2^N subset table; BudgetExceeded when the table
    does not fit the budget or the table guard."""
    if size_cap is not None and size_cap < 0:
        raise BadParameters("size cap must be non-negative")
    sets, _ = minimal_sets_by_table(g.distance_matrix(), budget)
    return [_ids(g, w) for w in sets if size_cap is None or len(w) <= size_cap]
