"""The nonzero component graph of GF(q)^n.

Vertices are the nonzero vectors, identified by their base-q ids; two
vertices are adjacent when their coefficient expansions share a position
with nonzero coefficient, i.e. when their skeleton masks intersect.  The
graph is kept implicit: adjacency and distance are computed from one
read-only int64 skeleton array, never from a materialized edge list.

The distance closed form (0 for equal vertices, 1 for intersecting
skeletons, else 2) is backed by the breadth-first-search oracle
`bfs_distances`, which the test suite compares against it pair by pair.
Because of it, every route reads the skeletons directly: the twin
classes from packed adjacency rows (`_meet_rows`), the subset engine,
single sets included, and the twin-class check from `SkeletonColumns`,
the exports from one row generator each.  So the twin classes and the
check of them share no code.  Only `adjacency_matrix` and
`distance_matrix` hold an entry per vertex pair, and no route of the
CLI calls them; `packed_adjacency` holds a bit per pair.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from . import field, vectorspace
from .errors import BadParameters, InstanceTooLarge, OutOfRange
from .vectorspace import DEFAULT_VERTEX_CAP

# Hard guard for O(N^2) dense structures (distance/adjacency matrices).
MATRIX_CAP = 4096

# Rows per block where a dense product is built a block at a time; a
# block of distance columns is met ROW_BLOCK^2 cells at a time.
ROW_BLOCK = 256


class ComponentGraph:
    """Implicit nonzero component graph on q^n - 1 vertices.

    Immutable after construction; all queries are pure and thread-safe.
    The lazily built twin classes are an idempotent cache.
    """

    def __init__(self, q: int, n: int, vertex_cap: int = DEFAULT_VERTEX_CAP):
        field.validate_order(q)
        if n < 1:
            raise BadParameters(f"dimension n={n} must be >= 1")
        # q^n - 1 >= 2^n - 1 > vertex_cap once n passes the cap's bit
        # length, so a huge n is refused without forming q^n
        big = n > max(64, vertex_cap.bit_length())
        count = None if big else q ** n - 1
        if big or count > vertex_cap:
            shown = f"{q}^{n}-1" if big or count >= 1 << 64 else count
            raise InstanceTooLarge(
                f"q^n-1 = {shown} exceeds the vertex cap {vertex_cap}"
            )
        self.q = q
        self.n = n
        self.vertex_count = count
        # bit i of entry v-1 is set where base-q digit i of vertex v is nonzero
        rest = np.arange(1, count + 1, dtype=np.int64)
        self._skeletons = np.zeros(count, dtype=np.int64)
        for i in range(n):
            rest, digit = np.divmod(rest, q)
            self._skeletons[digit != 0] |= 1 << i
        self._skeletons.flags.writeable = False
        # the same masks in the narrowest unsigned type that holds n bits
        # (uint16 up to n = 16): the pair tests run about 3x faster than
        # on int64 at q = 2, n = 12
        self._masks = self._skeletons.astype(np.min_scalar_type((1 << n) - 1))
        self._twins: tuple[tuple[int, ...], ...] | None = None

    # -- basic queries --

    def check_vertex(self, u: int) -> None:
        if not (1 <= u <= self.vertex_count):
            raise OutOfRange(f"vertex id {u} outside 1..{self.vertex_count}")

    def skeleton(self, u: int) -> int:
        self.check_vertex(u)
        return int(self._skeletons[u - 1])

    def adjacent(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return u != v and bool(self._skeletons[u - 1] & self._skeletons[v - 1])

    def distance(self, u: int, v: int) -> int:
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            return 0
        if self._skeletons[u - 1] & self._skeletons[v - 1]:
            return 1
        return 2

    def vertex_ids(self) -> range:
        return range(1, self.vertex_count + 1)

    def label(self, u: int) -> str:
        return vectorspace.vertex_text(u, self.q, self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, ascending."""
        for u, later in _later_neighbors(self):
            for v in later.tolist():
                yield (u, v)

    # -- dense views (desk scale only) --

    def skeleton_array(self) -> np.ndarray:
        """Read-only int64 skeletons indexed 0..N-1 (vertex id minus 1)."""
        return self._skeletons

    def _meet_rows(self, cols: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, bool block) for each ROW_BLOCK rows: entry (i, j) is true
        where the skeletons of vertices lo+i+1 and cols[j]+1 meet.  No
        temporary exceeds ROW_BLOCK x k."""
        sk = self._masks
        right = sk[cols]
        for lo in range(0, len(sk), ROW_BLOCK):
            yield lo, (sk[lo:lo + ROW_BLOCK, None] & right) != 0

    def _refuse_dense(self) -> None:
        """The matrix cap, shared by every view that grows as N^2."""
        if self.vertex_count > MATRIX_CAP:
            raise InstanceTooLarge(
                f"dense adjacency needs N <= {MATRIX_CAP}, got {self.vertex_count}"
            )

    def packed_adjacency(self) -> np.ndarray:
        """uint8 N x ceil(N/8) open adjacency rows, each packed as by
        `np.packbits(adjacency_matrix(), axis=1)`: N^2/8 bytes (2 MB at
        N = 4095).  Packed ROW_BLOCK rows at a time from the skeletons,
        so no N x N array is built.  A fresh array on every call.
        """
        self._refuse_dense()
        n = self.vertex_count
        rows = np.empty((n, (n + 7) // 8), dtype=np.uint8)
        for lo, block in self._meet_rows(np.arange(n)):
            own = np.arange(len(block))
            block[own, lo + own] = False
            rows[lo:lo + ROW_BLOCK] = np.packbits(block, axis=1)
        return rows

    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """0-based twin classes, read by `twin_classes_from_packed_rows`
        from `packed_adjacency`; built on the first call and kept."""
        if self._twins is None:
            self._twins = twin_classes_from_packed_rows(self.packed_adjacency())
        return self._twins

    def distance_columns(self) -> SkeletonColumns:
        """The distance matrix as columns computed on demand (see
        `SkeletonColumns`); no N x N array."""
        return SkeletonColumns(self._masks, self.n)

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix indexed 0..N-1 (vertex id minus 1), read
        off `distance_matrix`; a fresh array on every call."""
        return self.distance_matrix() == 1

    def distance_matrix(self) -> np.ndarray:
        """int16 distance matrix indexed 0..N-1 (vertex id minus 1), built
        from `_meet_rows` a row block at a time; a fresh array on every
        call.  It reads no `SkeletonColumns`, so the tests can hold the
        columns against it."""
        self._refuse_dense()
        n = self.vertex_count
        dist = np.empty((n, n), dtype=np.int16)
        for lo, meets in self._meet_rows(np.arange(n)):
            dist[lo:lo + ROW_BLOCK] = np.where(meets, np.int16(1), np.int16(2))
        np.fill_diagonal(dist, 0)
        return dist

    def __repr__(self) -> str:
        return f"ComponentGraph(q={self.q}, n={self.n}, vertices={self.vertex_count})"


class SkeletonColumns:
    """Columns of a component graph's distance matrix, each computed from
    the skeletons when asked: 0 at the column's own vertex, 1 where the
    skeletons meet, else 2.  It stands in for the matrix in the subset
    engine: the search walk reads one column per node, so it holds O(N)
    memory, and a single set's check keys its columns a block of at most
    65,536 cells at a time, with no N x k copy.

    `largest` is the matrix's largest entry, which the walk's landmark
    bound reads: 0 for the single vertex at N = 1; 1 at n = 1, where all
    skeletons are {0} and the graph is complete; else 2, since e1 and e2
    do not meet.
    """

    def __init__(self, skeletons: np.ndarray, n: int):
        self._skeletons = skeletons
        count = len(skeletons)
        self.shape = (count, count)
        self.largest = 0 if count == 1 else 1 if n == 1 else 2

    def column(self, c: int | np.ndarray) -> np.ndarray:
        """int16 distances from every vertex to vertex c + 1 (0-based c);
        for a 1-D index array c, the N x B block of those columns.

        The block is the only N x B array: the masks are met a slab of at
        most ROW_BLOCK^2 cells at a time, at their own width, and each
        slab's test for 0 is written into the block, leaving 1 where the
        masks do not meet and 0 where they do; one more makes those the
        distances 2 and 1."""
        sk, own = self._skeletons, self._skeletons[c]
        col = np.empty((len(sk),) + own.shape, dtype=np.int16)
        step = max(1, ROW_BLOCK ** 2 // max(own.size, 1))
        for lo in range(0, len(sk), step):
            np.equal(np.bitwise_and.outer(sk[lo:lo + step], own), 0, out=col[lo:lo + step])
        col += 1
        col[(c, np.arange(len(c))) if isinstance(c, np.ndarray) else c] = 0
        return col


class MatrixColumns:
    """A stored distance matrix as a column source, with the interface of
    `SkeletonColumns`: `shape`, `largest` and `column(c)`, read at the
    matrix's own dtype.  `largest` is computed when first read, as a
    class test reads only columns."""

    def __init__(self, dist: np.ndarray):
        self._dist = dist
        self.shape = dist.shape

    @cached_property
    def largest(self) -> int:
        return int(self._dist.max(initial=0))

    def column(self, c: int | np.ndarray) -> np.ndarray:
        """Column c (0-based), or the N x B block of the columns in c."""
        return self._dist[:, c]


def twin_classes_from_packed_rows(rows: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """0-based twin classes from packed open adjacency rows, one row per
    vertex in the layout of `np.packbits(adj, axis=1)`; ordered by least
    member, members ascending.  The rows are changed in place: they hold
    the closed rows on return.

    Each vertex is labelled with the least vertex that has the same open
    row or the same closed row, and the classes are the groups of equal
    labels.  No vertex has twins of both kinds: if N(u) = N(v) and
    N[u] = N[w] with v, w != u, then w is in N(u) = N(v), so v is in
    N[w] = N[u] and v is adjacent to u; but u is not in N(u) = N(v).  So
    each class is one group of equal open rows or one group of equal
    closed rows, and the least member of either group labels all of it.
    The rows are compared packed, N/8 bytes each.
    """
    n = rows.shape[0]
    label = list(range(n))

    def least_equal_row() -> None:
        first: dict[bytes, int] = {}
        for i, row in enumerate(rows):
            label[i] = min(label[i], first.setdefault(row.tobytes(), i))

    least_equal_row()
    v = np.arange(n)  # set each vertex's own bit: the closed rows
    rows[v, v >> 3] |= (0x80 >> (v & 7)).astype(np.uint8)
    least_equal_row()
    # a class's least member carries its own label and comes first
    groups: dict[int, list[int]] = {}
    for i, least in enumerate(label):
        groups.setdefault(least, []).append(i)
    return tuple(map(tuple, groups.values()))


def order_formula(q: int, n: int) -> int:
    """Number of vertices, q^n - 1."""
    if q < 2 or n < 1:
        raise BadParameters(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    return q ** n - 1


def size_formula(q: int, n: int) -> int:
    """Number of edges, (q^2n - q^n + 1 - (2q-1)^n) / 2, in exact integers."""
    if q < 2 or n < 1:
        raise BadParameters(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    numerator = q ** (2 * n) - q ** n + 1 - (2 * q - 1) ** n
    half, rem = divmod(numerator, 2)
    if rem:
        raise AssertionError("edge-count numerator must be even")
    return half


def _later_neighbors(g: ComponentGraph,
                     sources: Iterable[int] | None = None
                     ) -> Iterator[tuple[int, np.ndarray]]:
    """For each source u (every vertex ascending by default), the ids
    v > u adjacent to u, ascending.

    One row-wise scan that tests every pair once; `edges`,
    `size_bruteforce`, `is_complete` and both exports are built on it.
    """
    sk = g.skeleton_array()
    for u in g.vertex_ids() if sources is None else sources:
        yield u, u + 1 + np.flatnonzero(sk[u:] & sk[u - 1])


def size_bruteforce(g: ComponentGraph) -> int:
    """Count adjacent unordered pairs, testing every pair (oracle)."""
    return sum(len(later) for _, later in _later_neighbors(g))


def is_complete(g: ComponentGraph) -> bool:
    """True iff every pair of vertices is adjacent (checked, not assumed)."""
    return all(len(later) == g.vertex_count - u for u, later in _later_neighbors(g))


def bfs_distances(g: ComponentGraph, source: int) -> list[int]:
    """Breadth-first-search distances from source; index by vertex id.

    Entry 0 is unused (-1).  Serves as the independent oracle for the
    closed-form distance.
    """
    g.check_vertex(source)
    dist = [-1] * (g.vertex_count + 1)
    dist[source] = 0
    queue = deque([source])
    sk = [0] + g.skeleton_array().tolist()
    while queue:
        u = queue.popleft()
        su = sk[u]
        du = dist[u]
        for v in g.vertex_ids():
            if dist[v] < 0 and v != u and (su & sk[v]):
                dist[v] = du + 1
                queue.append(v)
    return dist


def _id_text(g: ComponentGraph) -> np.ndarray:
    """Object array whose entry v is str(v), for v in 0..N."""
    return np.array([str(v) for v in range(g.vertex_count + 1)], dtype=object)


def dot_chunks(g: ComponentGraph) -> Iterator[str]:
    """The DOT export as consecutive pieces, one per vertex line and one
    per row of edge lines, so a writer never holds the whole file.

    Vertex lines by id, then edge lines `u -- v` by u and then v.  Each
    row of later neighbours is written with one join over the id table.
    """
    ids = _id_text(g)
    yield "graph gv {"
    for u in g.vertex_ids():
        yield f'\n  {u} [label="{g.label(u)}"];'
    for u, later in _later_neighbors(g):
        if len(later):
            head = f"\n  {u} -- "
            yield head + f";{head}".join(ids[later].tolist()) + ";"
    yield "\n}\n"


def to_dot(g: ComponentGraph) -> str:
    """Graphviz DOT export with vertex labels in the text form."""
    return "".join(dot_chunks(g))


def edge_list_chunks(g: ComponentGraph) -> Iterator[str]:
    """The edge-list export as consecutive pieces, one per row of lines.

    A space sorts before every digit, so the order of the line "u v" is
    the order of the pair (str(u), str(v)).  The rows are therefore
    visited with u in string order and each row's neighbours put in
    string order by rank, and the lines need no sort of their own.
    """
    n = g.vertex_count
    ids = _id_text(g)
    sources = sorted(range(1, n + 1), key=str)
    rank = np.empty(n + 1, dtype=np.intp)
    rank[sources] = np.arange(n)
    for u, later in _later_neighbors(g, sources):
        if len(later):
            later = later[np.argsort(rank[later])]
            yield f"{u} " + f"\n{u} ".join(ids[later].tolist()) + "\n"


def to_edge_list(g: ComponentGraph) -> str:
    """Edge-list export: one `<id> <id>` line per edge, ids ascending in
    the line, lines sorted lexicographically as strings."""
    return "".join(edge_list_chunks(g))
