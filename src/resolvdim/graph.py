"""The nonzero component graph of GF(q)^n.

Vertices are the nonzero vectors, identified by their base-q ids; two
vertices are adjacent when their coefficient expansions share a position
with nonzero coefficient, i.e. when their skeleton masks intersect.  The
graph is kept implicit: adjacency and distance are computed from the
precomputed skeleton table, never from a materialized edge list.

The distance closed form (0 for equal vertices, 1 for intersecting
skeletons, else 2) is backed by the breadth-first-search oracle
`bfs_distances`, which the test suite compares against it pair by pair.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import field, vectorspace
from .errors import BadParameters, InstanceTooLarge, OutOfRange
from .vectorspace import DEFAULT_VERTEX_CAP

# Hard guard for O(N^2) dense structures (distance/adjacency matrices).
MATRIX_CAP = 4096

# Rows per block where a dense product is built a block at a time.
ROW_BLOCK = 256


class ComponentGraph:
    """Implicit nonzero component graph on q^n - 1 vertices.

    Immutable after construction; all queries are pure and thread-safe.
    The lazily built dense matrices are idempotent caches.
    """

    def __init__(self, q: int, n: int, vertex_cap: int = DEFAULT_VERTEX_CAP):
        field.validate_order(q)
        if n < 1:
            raise BadParameters(f"dimension n={n} must be >= 1")
        count = vectorspace.vertex_count(q, n)
        if count > vertex_cap:
            raise InstanceTooLarge(
                f"q^n-1 = {count} exceeds the vertex cap {vertex_cap}"
            )
        self.q = q
        self.n = n
        self.vertex_count = count
        skeletons = [0] * (count + 1)
        full = (1 << n) - 1
        for vid in range(1, count + 1):
            skeletons[vid] = vectorspace.skeleton_of_id(vid, q, n)
        self._skeletons = skeletons
        self._full_mask = full
        self._dist: np.ndarray | None = None
        self._adj: np.ndarray | None = None

    # -- basic queries --

    def check_vertex(self, u: int) -> None:
        if not (1 <= u <= self.vertex_count):
            raise OutOfRange(f"vertex id {u} outside 1..{self.vertex_count}")

    def skeleton(self, u: int) -> int:
        self.check_vertex(u)
        return self._skeletons[u]

    def adjacent(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return u != v and (self._skeletons[u] & self._skeletons[v]) != 0

    def distance(self, u: int, v: int) -> int:
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            return 0
        if self._skeletons[u] & self._skeletons[v]:
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
        return np.asarray(self._skeletons[1:], dtype=np.int64)

    def distance_block(self, w: Sequence[int]) -> np.ndarray:
        """int16 N x k block: row v-1, column j holds the distance from v to w[j].

        Built from the skeleton table, so it needs no N x N matrix.
        """
        for x in w:
            self.check_vertex(x)
        cols = np.asarray(w, dtype=np.intp) - 1
        sk = self.skeleton_array()
        block = np.where((sk[:, None] & sk[cols]) != 0, np.int16(1), np.int16(2))
        block[cols, np.arange(len(cols))] = 0
        return block

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix indexed 0..N-1 (vertex id minus 1).

        Filled ROW_BLOCK rows at a time, so the int64 mask product never
        exceeds ROW_BLOCK x N.
        """
        if self._adj is None:
            n = self.vertex_count
            if n > MATRIX_CAP:
                raise InstanceTooLarge(
                    f"dense adjacency needs N <= {MATRIX_CAP}, got {n}"
                )
            masks = self.skeleton_array()
            adj = np.empty((n, n), dtype=bool)
            for lo in range(0, n, ROW_BLOCK):
                rows = masks[lo:lo + ROW_BLOCK, None] & masks
                np.not_equal(rows, 0, out=adj[lo:lo + ROW_BLOCK])
            np.fill_diagonal(adj, False)
            self._adj = adj
        return self._adj

    def distance_matrix(self) -> np.ndarray:
        """int16 distance matrix indexed 0..N-1 (vertex id minus 1)."""
        if self._dist is None:
            adj = self.adjacency_matrix()
            dist = np.where(adj, np.int16(1), np.int16(2))
            np.fill_diagonal(dist, 0)
            self._dist = dist
        return self._dist

    def __repr__(self) -> str:
        return f"ComponentGraph(q={self.q}, n={self.n}, vertices={self.vertex_count})"


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
    sk = g._skeletons
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


def to_dot(g: ComponentGraph) -> str:
    """Graphviz DOT export with vertex labels in the text form.

    Vertex lines by id, then edge lines `u -- v` by u and then v.  Each
    row of later neighbours is written with one join over the id table.
    """
    ids = _id_text(g)
    chunks = ["graph gv {"]
    chunks += [f'\n  {u} [label="{g.label(u)}"];' for u in g.vertex_ids()]
    for u, later in _later_neighbors(g):
        if len(later):
            head = f"\n  {u} -- "
            chunks.append(head + f";{head}".join(ids[later].tolist()) + ";")
    chunks.append("\n}\n")
    return "".join(chunks)


def to_edge_list(g: ComponentGraph) -> str:
    """Edge-list export: one `<id> <id>` line per edge, ids ascending in
    the line, lines sorted lexicographically as strings.

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
    chunks = []
    for u, later in _later_neighbors(g, sources):
        if len(later):
            later = later[np.argsort(rank[later])]
            chunks.append(f"{u} " + f"\n{u} ".join(ids[later].tolist()) + "\n")
    return "".join(chunks)
