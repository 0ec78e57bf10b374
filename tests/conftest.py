import os
import signal
from itertools import combinations
from math import comb

import numpy as np
import pytest

import resolvdim
from resolvdim.errors import DimensionMismatch, EmptySet
from resolvdim.graph import ComponentGraph
from resolvdim.intersection import PlainGraph
from resolvdim.resolving import _Engine

# Seconds any one test may run; the slowest takes a few.
TEST_ALARM_S = 120


@pytest.fixture(autouse=True)
def _alarm():
    """Fail a test that runs past TEST_ALARM_S instead of hanging the suite.

    Uses SIGALRM, so it does nothing where that signal does not exist.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"test still running after {TEST_ALARM_S} s; a loop that "
                    f"never ends?")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# The directory that holds the imported package: `src` in a checkout.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(resolvdim.__file__)))


def child_env(base=None):
    """Environment for a `python -m resolvdim` child process.

    Starts from `base` (a copy of `os.environ` when omitted) and puts the
    absolute PACKAGE_ROOT at the front of PYTHONPATH, so the child imports
    the same package as the tests whatever its working directory and
    whether PYTHONPATH named `src` relatively, absolutely or not at all.
    """
    env = dict(os.environ if base is None else base)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def representation(g, v, w):
    """Distance tuple of v to the ordered set w."""
    members = tuple(w)
    if not members:
        raise EmptySet("representation needs a non-empty ordered set")
    return tuple(g.distance(v, x) for x in members)


def resolves_by_definition(g, w):
    """W resolves g iff the N representation tuples are pairwise distinct.

    Straight from the definition, one `representation` per vertex; shares
    no code with the subset engine.  The empty set resolves only N = 1.
    """
    if not w:
        return g.vertex_count == 1
    return len({representation(g, v, w) for v in g.vertex_ids()}) == g.vertex_count


def int64_digits(base):
    """Most base-`base` digits whose packed code stays below 2^62 (at
    least one): the width of the single packed pass."""
    group = 1
    while base ** (group + 1) < 2 ** 62:
        group += 1
    return group


def rank_by_elimination(f, vectors):
    """Rank of equal-length vectors over f by Gauss-Jordan elimination over
    every row for every pivot, one public field operation per element: the
    routine the running-basis `field.rank` replaced, kept as its reference."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    for v in rows:
        if len(v) != ncols:
            raise DimensionMismatch(f"vector lengths differ: {len(v)} vs {ncols}")
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = f.inv(rows[r][col])
        rows[r] = [f.mul(scale, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def status_by_rows(dist, cols):
    """Boolean resolving status for a (B, k) batch of column sets: one
    packed int64 pass when k fits `int64_digits`, else a set of row bytes
    per candidate.  The two detectors the column-group kernel
    `_Engine.keys` replaced, kept as its reference."""
    n_rows = dist.shape[0]
    base = max(int(dist.max(initial=0)) + 1, 2)
    b, k = cols.shape
    if k <= int64_digits(base):
        codes = np.zeros((n_rows, b), dtype=np.int64)
        for j in range(k):
            codes *= base
            codes += dist[:, cols[:, j]]
        codes.sort(axis=0)
        return ~np.any(codes[1:] == codes[:-1], axis=0)
    return np.array([len({row.tobytes() for row in dist[:, c]}) == n_rows
                     for c in cols], dtype=bool)


def least_equal_rows_by_dict(block):
    """Lexicographically least pair u < v of equal rows (0-based), from a
    dict of row bytes: the reference for the kernel's colliding pair."""
    first = {}
    best = None
    for v, row in enumerate(block):
        u = first.setdefault(row.tobytes(), v)
        if u != v and (best is None or (u, v) < best):
            best = (u, v)
    return best


def plain_first_hit(dist, k):
    """Lexicographically least resolving k-subset of the matrix columns, or
    None: the plain scan over every k-subset, with no pruning."""
    total = comb(dist.shape[1], k)
    for cols, hits in _Engine(dist, total).scan(k):
        if hits.any():
            return tuple(int(c) for c in cols[int(np.argmax(hits))])
    return None


def exchange_by_definition(g):
    """(holds, sorted minimal set sizes, first violation (w1, r, w2) in ids
    or None) of the exchange property, straight from the definition.

    The status of every subset comes from its distance rows, one Python
    set of representation tuples per subset; a resolving set is minimal
    when no single removal resolves (supersets of resolving sets
    resolve).  The quantifier runs in the documented witness order: W2
    lexicographic, then r ascending, and W1 the least minimal set holding
    r.  Shares no code with the subset engine or the 2^N mask table.
    """
    rows = g.distance_matrix().tolist()
    ids = list(g.vertex_ids())
    n = len(ids)
    resolving = {w for k in range(n + 1) for w in combinations(range(n), k)
                 if len({tuple(row[c] for c in w) for row in rows}) == n}
    minimal = sorted(w for w in resolving
                     if not any(w[:i] + w[i + 1:] in resolving for i in range(len(w))))
    family = set(minimal)
    sizes = tuple(sorted(len(w) for w in minimal))
    held = sorted({r for w in minimal for r in w})
    for w2 in minimal:
        for r in held:
            if r in w2:
                continue
            if not any(tuple(sorted(set(w2) - {s} | {r})) in family for s in w2):
                w1 = min(w for w in minimal if r in w)
                return False, sizes, (tuple(ids[c] for c in w1), ids[r],
                                      tuple(ids[c] for c in w2))
    return True, sizes, None


def export_by_lines(g):
    """(DOT text, edge-list text) built one line per edge from `g.edges()`,
    the edge list sorted as strings: the reference for the row-wise
    exports in `resolvdim.graph`."""
    lines = ["graph gv {"]
    for u in g.vertex_ids():
        lines.append(f'  {u} [label="{g.label(u)}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    dot = "\n".join(lines) + "\n"
    lines = sorted(f"{u} {v}" for u, v in g.edges())
    return dot, "\n".join(lines) + ("\n" if lines else "")


def intersection_graph_by_pairs(fam):
    """Intersection graph from a set intersection per member pair: the
    reference for the incidence-product `intersection_graph`."""
    k = len(fam.members)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)
             if fam.members[i] & fam.members[j]]
    return PlainGraph(k, edges)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def twin_classes_by_union_find(adj):
    """0-based twin classes of an adjacency matrix.

    Vertices are merged when their open-neighborhood rows match or their
    closed-neighborhood rows match: the reference for the packed-row
    `twin_classes_from_packed_rows`, which needs no merging.  Returned in
    its shape: a tuple of ascending tuples, ordered by least member.
    """
    n = adj.shape[0]
    uf = _UnionFind(n)
    closed = adj.copy()
    np.fill_diagonal(closed, True)
    for rows in (adj, closed):
        seen: dict[bytes, int] = {}
        for i in range(n):
            key = rows[i].tobytes()
            if key in seen:
                uf.union(seen[key], i)
            else:
                seen[key] = i
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0]))


@pytest.fixture(scope="session")
def g22():
    return ComponentGraph(2, 2)


@pytest.fixture(scope="session")
def g23():
    return ComponentGraph(2, 3)


@pytest.fixture(scope="session")
def g24():
    return ComponentGraph(2, 4)


@pytest.fixture(scope="session")
def g32():
    return ComponentGraph(3, 2)


@pytest.fixture(scope="session")
def g33():
    return ComponentGraph(3, 3)


@pytest.fixture(scope="session")
def g42():
    return ComponentGraph(4, 2)
