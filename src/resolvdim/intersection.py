"""Intersection graphs of finite set families.

An intersection graph has one vertex per family member and an edge where
two members share an element.  For q=2 the component graph of GF(2)^n is
exactly the intersection graph of the nonempty subsets of {1..n}: the
vector with support {i1..ik} maps to the subset {i1..ik}, and sharing a
nonzero coordinate is sharing an element.  `powerset_matches_component_graph`
checks that identification edge by edge.

`as_intersection_family` realizes an arbitrary simple graph as an
intersection graph: each vertex becomes the set of its incident edge
tokens plus one private token, so adjacency is exactly set intersection.
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import resolving
from .errors import BadParameters, EmptyMember, InstanceTooLarge, OutOfRange
from .graph import (MATRIX_CAP, ROW_BLOCK, ComponentGraph, MatrixColumns,
                    twin_classes_from_packed_rows)
from .resolving import DEFAULT_BUDGET


class SetFamily:
    """An indexed family of non-empty sets over an ordered ground set."""

    def __init__(self, members: Iterable[Iterable], ground: Sequence | None = None):
        mem = tuple(frozenset(m) for m in members)
        for i, m in enumerate(mem):
            if not m:
                raise EmptyMember(f"member {i} is empty")
        if ground is None:
            tokens = set().union(*mem)
            try:
                ground = sorted(tokens)
            except TypeError:
                kinds = ", ".join(sorted({type(t).__name__ for t in tokens}))
                raise BadParameters(f"tokens of types {kinds} have no common order; "
                                    f"pass the ground set") from None
        ground_set = set(ground)
        for i, m in enumerate(mem):
            if not m <= ground_set:
                raise BadParameters(f"member {i} uses tokens outside the ground set")
        self.ground = tuple(ground)
        self.members = mem

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SetFamily)
                and self.members == other.members
                and self.ground == other.ground)

    def __repr__(self) -> str:
        return f"SetFamily({len(self.members)} members over {len(self.ground)} tokens)"


class PlainGraph:
    """A simple undirected graph on vertices 0..vertex_count-1, held as its
    symmetric boolean adjacency matrix; every other view is read from it.
    `edges` is (u, v) pairs or that bool matrix, each checked."""

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if vertex_count < 0:
            raise BadParameters("vertex count must be non-negative")
        if vertex_count > MATRIX_CAP:  # refused before the N x N matrix is built
            raise InstanceTooLarge(
                f"plain graph needs at most {MATRIX_CAP} vertices, got {vertex_count}")
        self._dist: np.ndarray | None = None
        if getattr(edges, "dtype", None) == bool and edges.shape == (vertex_count,) * 2:
            if edges.diagonal().any() or not np.array_equal(edges, edges.T):
                raise BadParameters("adjacency matrix must be symmetric with a False diagonal")
            self._adj = edges
            return
        try:
            pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        except ValueError:  # pairs of unequal lengths
            raise BadParameters("edges must be pairs of integers") from None
        if pairs.shape == (0,):  # no edges at all
            pairs = np.empty((0, 2), dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise BadParameters("edges must be pairs of integers")
        u, v = pairs.T
        bad = (u == v) | (pairs < 0).any(axis=1) | (pairs >= vertex_count).any(axis=1)
        if bad.any():
            a, b = pairs[np.argmax(bad)].tolist()
            if a == b:
                raise BadParameters(f"self-loop at vertex {a}")
            raise OutOfRange(f"edge ({a},{b}) outside 0..{vertex_count - 1}")
        self._adj = np.zeros((vertex_count, vertex_count), dtype=bool)
        self._adj[u, v] = self._adj[v, u] = True

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    def adjacency_matrix(self) -> np.ndarray:
        return self._adj

    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """Twin classes by `twin_classes_from_packed_rows` from the
        adjacency matrix packed with `np.packbits`."""
        return twin_classes_from_packed_rows(np.packbits(self._adj, axis=1))

    def later_neighbors(self) -> Iterator[tuple[int, np.ndarray]]:
        """(u, its neighbours v > u ascending) from the upper part of each row u."""
        for u, row in enumerate(self._adj):
            yield u, u + 1 + np.flatnonzero(row[u + 1:])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, ascending."""
        return [(u, v) for u, later in self.later_neighbors() for v in later.tolist()]

    def neighbors(self) -> list[list[int]]:
        """Each vertex's neighbours, ascending."""
        return [np.flatnonzero(row).tolist() for row in self._adj]

    def vertex_ids(self) -> range:
        return range(self.vertex_count)

    def check_vertex(self, u: int) -> None:
        if not (0 <= u < self.vertex_count):
            raise OutOfRange(f"vertex id {u} outside 0..{self.vertex_count - 1}")

    def distance_columns(self) -> MatrixColumns:
        """The distance matrix as the column source that the walks, the
        kernel and `is_twin_class` read."""
        return MatrixColumns(self.distance_matrix())

    def distance_matrix(self) -> np.ndarray:
        """BFS distances; unreachable pairs get vertex_count + 1."""
        if self._dist is None:
            n = self.vertex_count
            sentinel = n + 1
            dist = np.full((n, n), sentinel, dtype=np.int16)
            nbrs = self.neighbors()
            for s in range(n):
                dist[s, s] = 0
                queue = deque([s])
                while queue:
                    u = queue.popleft()
                    for v in nbrs[u]:
                        if dist[s, v] == sentinel:
                            dist[s, v] = dist[s, u] + 1
                            queue.append(v)
            self._dist = dist
        return self._dist

    def __eq__(self, other) -> bool:
        return isinstance(other, PlainGraph) and np.array_equal(self._adj, other._adj)

    def __repr__(self) -> str:
        edges = np.count_nonzero(self._adj) // 2
        return f"PlainGraph({self.vertex_count} vertices, {edges} edges)"


# Most index pairs one fancy-index assignment in `intersection_graph` sets.
PAIR_CHUNK = 1 << 16


def _holder_chunks(fam: SetFamily) -> Iterator[np.ndarray]:
    """Every token's holders (the members that hold it), from one pass over the
    members, as (b, h) arrays of b tokens with h holders: b h^2 <= PAIR_CHUNK or b = 1."""
    holders: dict = {}
    for i, m in enumerate(fam.members):
        for t in m:
            holders.setdefault(t, []).append(i)
    for count, same in groupby(sorted(holders.values(), key=len), key=len):
        group, step = list(same), max(1, PAIR_CHUNK // count ** 2)
        for lo in range(0, len(group), step):
            yield np.array(group[lo:lo + step], dtype=np.intp)


def intersection_graph(fam: SetFamily) -> PlainGraph:
    """Graph on member indices with edges between intersecting members: each
    `_holder_chunks` chunk sets its holder pairs in a K x K bool matrix, K^2
    bytes at any token count; more than MATRIX_CAP members are refused first."""
    if len(fam) > MATRIX_CAP:
        raise InstanceTooLarge(
            f"intersection graph needs at most {MATRIX_CAP} members, got {len(fam)}")
    adj = np.zeros((len(fam), len(fam)), dtype=bool)
    for rows in _holder_chunks(fam):
        adj[rows[:, :, None], rows[:, None, :]] = True
    np.fill_diagonal(adj, False)
    return PlainGraph(len(fam), adj)


def powerset_family(n: int) -> SetFamily:
    """All nonempty subsets of {1..n}, in ascending mask order."""
    if not (1 <= n <= 16):
        raise BadParameters(f"need 1 <= n <= 16, got n={n}")
    members = ({i + 1 for i in range(n) if (mask >> i) & 1} for mask in range(1, 1 << n))
    return SetFamily(members, ground=range(1, n + 1))


def incidence_matrix(fam: SetFamily) -> np.ndarray:
    """Boolean member-by-token matrix, tokens in ground-set order."""
    column = {t: j for j, t in enumerate(fam.ground)}
    inc = np.zeros((len(fam), len(fam.ground)), dtype=bool)
    for i, m in enumerate(fam.members):
        inc[i, [column[t] for t in m]] = True
    return inc


def powerset_matches_component_graph(n: int) -> bool:
    """Edge-for-edge check of the support identification at q=2.

    Vertex id m of the component graph corresponds to family member m
    (1-based), since both are indexed by the same support mask.  The
    family side comes from the members' tokens alone: two members meet
    when their incidence rows share a token, (M M^T) > 0 off the diagonal.
    It is compared with the graph's adjacency (distance 1) one block of
    columns at a time, so no N x N matrix is built.
    """
    g = ComponentGraph(2, n)
    # float32 takes the BLAS product; counts up to 2^24 are exact
    inc = incidence_matrix(powerset_family(n)).astype(np.float32)
    if len(inc) != g.vertex_count:
        return False
    for lo in range(0, len(inc), ROW_BLOCK):
        cols = np.arange(lo, min(lo + ROW_BLOCK, len(inc)))
        meets = (inc @ inc[cols].T) > 0
        meets[cols, np.arange(len(cols))] = False
        if not np.array_equal(meets, g.distance_columns().column(cols) == 1):
            return False
    return True


def as_intersection_family(pg: PlainGraph) -> SetFamily:
    """Realize a simple graph as an intersection family.

    Member for vertex v: its incident edge tokens plus a private token,
    so two members intersect exactly when the vertices are adjacent.  The
    construction is verified internally before returning.
    """
    edges = pg.edges()
    tokens = [f"e{u}-{v}" for u, v in edges]
    members = [{f"p{v}"} for v in pg.vertex_ids()]
    for token, (u, v) in zip(tokens, edges):
        members[u].add(token)
        members[v].add(token)
    ground = tokens + [f"p{v}" for v in pg.vertex_ids()]
    fam = SetFamily(members, ground=ground)
    if intersection_graph(fam) != pg:
        raise AssertionError("realization failed to round-trip")
    return fam


def powerset_intersection_dimension(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Metric dimension of the powerset intersection graph, by search."""
    if n < 2:
        raise BadParameters(f"need n >= 2, got n={n}")
    pg = intersection_graph(powerset_family(n))
    return resolving.metric_dimension_search(pg, budget)[0]


def family_to_text(fam: SetFamily) -> str:
    """One member per line, tokens comma-separated, deterministic order."""
    return "".join(",".join(sorted(map(str, m))) + "\n" for m in fam.members)


def parse_family(text: str) -> SetFamily:
    """Parse the member-per-line format; `#` starts a comment line."""
    members = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip() for t in line.split(",")]
        if any(not t for t in tokens):
            raise EmptyMember(f"line {lineno}: empty token")
        members.append(set(tokens))
    return SetFamily(members)
