import os
import random
import signal
from itertools import combinations, islice
from math import prod

import numpy as np
import pytest

import resolvdim
from resolvdim.errors import BudgetExceeded, DimensionMismatch, EmptySet
from resolvdim.field import SUPPORTED_ORDERS
from resolvdim.graph import ComponentGraph
from resolvdim.intersection import PlainGraph

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
    no code with the subset engine.  The empty set resolves only N <= 1.
    """
    if not w:
        return g.vertex_count <= 1
    return len({representation(g, v, w) for v in g.vertex_ids()}) == g.vertex_count


class DistanceTable:
    """g's distance matrix read once into Python rows, with g's ids: a
    stand-in for g, plain graphs too, in `resolves_by_definition` and
    `minimality_by_definition` when many sets of one graph are checked."""

    def __init__(self, g):
        self._ids = g.vertex_ids()
        self.vertex_count = len(self._ids)
        self._rows = g.distance_matrix().tolist()

    def vertex_ids(self):
        return self._ids

    def distance(self, u, v):
        return self._rows[u - self._ids.start][v - self._ids.start]


def minimality_by_definition(g, w):
    """(is_minimal, redundant_vertex) of a resolving set w, by the
    definition applied to each single removal: the least member whose
    removal still leaves the N representations pairwise distinct, or
    None.  Each vertex's representation over the sorted members is built
    once, and removal i drops coordinate i of every one."""
    members = sorted(w)
    reps = [representation(g, v, members) for v in g.vertex_ids()] if members else []
    redundant = next((x for i, x in enumerate(members)
                      if len({r[:i] + r[i + 1:] for r in reps}) == g.vertex_count), None)
    return redundant is None, redundant


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
    `resolving._collision` replaced, kept as its reference."""
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


def overflowing_digit_matrix():
    """A 3 x 3 distance table of base 2^40 + 1 whose columns 0 and 1
    resolve it: after column 0 the kernel's key bound times the base
    passes 2^62, so the keys are dense-ranked before column 1 is
    appended.  Keys that are never re-ranked wrap modulo 2^64:
    2^24 * (2^40 + 1) is 2^24, and rows 0 and 1 collide."""
    return np.array([[2 ** 24, 0, 2 ** 40],
                     [0, 2 ** 24, 0],
                     [1, 1, 0]], dtype=np.int64)


def mixed_triple_graph():
    """w, x, y, z = 0..3 with edges w-x, w-y, w-z and x-y: the one row
    outside {x, y, z}, w's, is constant on it, but d(x, y) = 1 while
    d(x, z) = 2.  x and y are true twins."""
    return PlainGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


def kernel_status(engine, cols):
    """Boolean resolving status for a (B, k) batch of column sets, from
    one run of the column-group kernel (`resolving._collision`) per set,
    kept to check the kernel against `status_by_rows`."""
    return np.array([resolvdim.resolving._collision(engine, c) is None for c in cols],
                    dtype=bool)


def scan_batches(dist, k, batch=4096):
    """(columns, status) batches of every k-subset of the matrix columns
    in lexicographic order, each decided by `status_by_rows`: the plain
    scan, with no pruning and no engine code, the oracle for the
    engine's walks."""
    sets = combinations(range(dist.shape[1]), k)
    while block := list(islice(sets, batch)):
        cols = np.array(block, dtype=np.intp).reshape(len(block), k)
        yield cols, status_by_rows(dist, cols)


def resolving_sets_by_scan(dist, k):
    """Every resolving k-subset of the matrix columns, lexicographic
    order, from the plain scan (`scan_batches`)."""
    return [tuple(row) for cols, hits in scan_batches(dist, k)
            for row in cols[hits].tolist()]


def status_by_mask_by_scan(dist):
    """Resolving status of every subset of the matrix columns, indexed by
    bit mask: the plain scan of every size (`scan_batches`), each set
    written at the sum of its column bits."""
    status = np.zeros(1 << dist.shape[1], dtype=bool)
    for k in range(dist.shape[1] + 1):
        for cols, hits in scan_batches(dist, k):
            status[(np.int64(1) << cols).sum(axis=1)] = hits
    return status


def orbit_by_mixed_radix(dist, twin_classes, batch=4096):
    """(columns, status) batches of the twin-swap orbit, lexicographic
    order: the route the orbit walk replaced, kept as its reference.

    Lists every set's omitted columns at once (mixed radix over the
    classes), sorts those rows and checks each set on all its columns
    through `status_by_rows`.
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
    n = dist.shape[1]
    for lo in range(0, total, batch):
        rows = omitted[order[lo:lo + batch]]
        keep = np.ones((len(rows), n), dtype=bool)
        keep[np.arange(len(rows))[:, None], rows] = False
        cols = np.nonzero(keep)[1].reshape(len(rows), n - len(classes))
        yield cols, status_by_rows(dist, cols)


def random_partition(n, rng, sizes=(1, 2, 3, 4, 6, 8)):
    """A random partition of range(n) into classes, each size drawn from
    `sizes` (the last class takes what is left), members shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    classes, lo = [], 0
    while lo < n:
        size = rng.choice(sizes)
        classes.append(order[lo:lo + size])
        lo += size
    return classes


def partition_with_a_wide_class(n, rng, wide=200, pairs=2):
    """A random partition of range(n): one class of `wide` to `wide` + 50
    members, `pairs` classes of two, and singletons."""
    order = list(range(n))
    rng.shuffle(order)
    size = rng.randint(wide, wide + 50)
    ends = range(size, size + 2 * pairs + 1, 2)
    return ([order[:size]] + [order[a:a + 2] for a in ends[:-1]]
            + [[x] for x in order[ends[-1]:]])


def orbit_pairs(batches):
    """Every (set, status) pair of (columns, status) batches, sorted: the
    orbit's order is the walk's own, so sets are compared, not positions."""
    return sorted((tuple(cols), hit) for block, hits in batches
                  for cols, hit in zip(block.tolist(), hits.tolist()))


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
    None: the first hit of the plain scan (`scan_batches`)."""
    for cols, hits in scan_batches(dist, k):
        if hits.any():
            return tuple(int(c) for c in cols[int(np.argmax(hits))])
    return None


def exchange_by_definition(g):
    """The minimal resolving sets and the exchange property, straight
    from the definition: `sets`, the minimal sets (0-based columns,
    lexicographic); `sizes`, their sizes sorted; `holds`; and `witness`,
    the first violation (w1, r, w2) in columns, or None.

    The status of every subset comes from its distance rows, one Python
    set of representation tuples per subset; a resolving set is minimal
    when no single removal resolves (supersets of resolving sets
    resolve).  The quantifier runs in the documented witness order: W2
    lexicographic, then r ascending, and W1 the least minimal set holding
    r.  Shares no code with the subset engine or the 2^N mask table.
    """
    rows = g.distance_matrix().tolist()
    n = len(rows)
    resolving = {w for k in range(n + 1) for w in combinations(range(n), k)
                 if len({tuple(row[c] for c in w) for row in rows}) == n}
    minimal = sorted(w for w in resolving
                     if not any(w[:i] + w[i + 1:] in resolving for i in range(len(w))))
    family = set(minimal)
    answer = {"sets": minimal, "sizes": tuple(sorted(len(w) for w in minimal)),
              "holds": True, "witness": None}
    held = sorted({r for w in minimal for r in w})
    for w2 in minimal:
        for r in held:
            if r in w2:
                continue
            if not any(tuple(sorted(set(w2) - {s} | {r})) in family for s in w2):
                w1 = min(w for w in minimal if r in w)
                return {**answer, "holds": False, "witness": (w1, r, w2)}
    return answer


def walk_outcome(source, classes, budget):
    """The pruned walk's (k, witness) at a budget, or where it stopped:
    (message, evaluated, lower bound, upper bound)."""
    try:
        return resolvdim.resolving.find_min_resolving_for_matrix(source, classes, budget)
    except BudgetExceeded as exc:
        return str(exc), exc.evaluated, exc.lower_bound, exc.upper_bound


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
    reference for the token-holder `intersection_graph`."""
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


def desk_instances(limit, orders=SUPPORTED_ORDERS):
    """Every supported (q, n) with at most `limit` vertices, by q then n."""
    return [(q, n) for q in orders for n in range(1, limit.bit_length() + 1)
            if q ** n - 1 <= limit]


# seeded graphs: each seed string fixes one instance

def gnp(rng, n, p):
    """G(n, p) on 0..n-1 drawn from rng, one draw per pair u < v in order."""
    return PlainGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def random_graph(seed, kind="exchange"):
    """G(n, p) with n from 0 to 10 (2 to 10 for kind "walk"): twins of both
    kinds, disconnected pairs and the empty graph occur."""
    rng = random.Random(f"{kind}:{seed}")
    n = rng.randint(2 if kind == "walk" else 0, 10)
    return gnp(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))


def mask_table_graph(n):
    return gnp(random.Random(f"mask-table:{n}"), n, 0.3)


def all_hits_graph(seed, with_twins):
    """8 to 14 vertices, redrawn until it has a twin class of two or more
    vertices exactly when `with_twins`."""
    rng = random.Random(f"all-hits:{seed}:{with_twins}")
    p = rng.choice([0.2, 0.3, 0.5])
    while True:
        pg = gnp(rng, rng.randint(8, 14), p)
        if (max(map(len, pg.twin_classes())) > 1) == with_twins:
            return pg


def doubled_graph(seed):
    """A seeded G(m, p) with every vertex v doubled by v + m, a true twin
    (adjacent to v) or a false twin, so every twin class has two members
    or more; m <= 8, so N <= 16."""
    rng = random.Random(f"doubled:{seed}")
    m = rng.randint(1, 8)
    p = rng.choice([0.2, 0.4, 0.6, 0.8])
    base = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < p]
    edges = [(a + da, b + db) for a, b in base for da in (0, m) for db in (0, m)]
    edges += [(v, v + m) for v in range(m) if rng.random() < 0.5]
    return PlainGraph(2 * m, edges)


def twins_graph(seed):
    """G(12, 0.4) plus a twin copy 12 + u of each u < 3: a false twin,
    holding u's neighbours below 12."""
    rng = random.Random(f"plaintwins:{seed}")
    n = 12
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    edges += [(u, n + u) for u in range(3)] + [(n + u, w) for u, w in edges if u < 3 and w < n]
    return PlainGraph(n + 3, edges)


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
