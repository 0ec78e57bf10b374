import os
import signal
from math import comb

import numpy as np
import pytest

import resolvdim
from resolvdim.errors import EmptySet
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
    for cols, hits in _Engine(dist, total)._scan(k, total):
        if hits.any():
            return tuple(int(c) for c in cols[int(np.argmax(hits))])
    return None


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
    `twins.twin_classes_from_adjacency`, which needs no merging.
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
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


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
