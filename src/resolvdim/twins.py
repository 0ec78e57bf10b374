"""Twin vertices: equal-neighborhood and equal-skeleton partitions.

Two vertices are twins when N[u] = N[v] or N(u) = N(v).  The package
computes that partition directly from neighborhoods and, separately, the
partition by equal skeleton mask; `partitions_coincide` compares the two
as set families.  On the component graphs the two coincide everywhere
except q=2, n=2, where the two unit vectors e1, e2 share the open
neighborhood {e1+e2} but have different skeletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AlreadyMember, NotMember, NotTwins
from .graph import ComponentGraph


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex ids into classes.

    Classes are ordered by minimum member id, members ascending.  Each
    class carries the skeleton mask of its smallest member.
    """

    classes: tuple[tuple[int, ...], ...]
    skeletons: tuple[int, ...]


def twin_classes_from_packed_rows(rows: np.ndarray) -> list[list[int]]:
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
    return list(groups.values())


def twin_classes_from_adjacency(adj: np.ndarray) -> list[list[int]]:
    """0-based twin classes of a boolean adjacency matrix, as
    `twin_classes_from_packed_rows`; the matrix is left unchanged."""
    return twin_classes_from_packed_rows(np.packbits(adj, axis=1))


def partition_by_neighborhood(g: ComponentGraph) -> TwinPartition:
    """Classes of the twin relation N[u]=N[v] or N(u)=N(v), read from the
    graph's packed adjacency rows (N^2/8 bytes), never from its skeleton
    classes: `partitions_coincide` compares the two."""
    sk = g.skeleton_array()
    classes0 = twin_classes_from_packed_rows(g.packed_adjacency())
    classes = tuple(tuple(i + 1 for i in c) for c in classes0)
    skeletons = tuple(int(sk[c[0]]) for c in classes0)
    return TwinPartition(classes=classes, skeletons=skeletons)


def partition_by_skeleton(g: ComponentGraph) -> TwinPartition:
    """Classes of the equal-skeleton relation, keyed by mask.

    The vertices arrive in ascending order, so each class is sorted and
    the classes come in order of least member.
    """
    by_mask: dict[int, list[int]] = {}
    for v, mask in enumerate(g.skeleton_array().tolist(), start=1):
        by_mask.setdefault(mask, []).append(v)
    return TwinPartition(classes=tuple(map(tuple, by_mask.values())),
                         skeletons=tuple(by_mask))


def partitions_coincide(g: ComponentGraph) -> bool:
    """True iff the neighborhood and skeleton partitions are identical."""
    a = {frozenset(c) for c in partition_by_neighborhood(g).classes}
    b = {frozenset(c) for c in partition_by_skeleton(g).classes}
    return a == b


def are_twins(g: ComponentGraph, u: int, v: int) -> bool:
    """True iff u and v are twins, which in a graph of diameter at most 2
    means at equal distance from every other vertex."""
    block = g.distance_block((u, v))
    others = np.ones(g.vertex_count, dtype=bool)
    others[[u - 1, v - 1]] = False
    return bool(np.array_equal(block[others, 0], block[others, 1]))


def is_twin_class(g: ComponentGraph, members: Sequence[int]) -> bool:
    """True iff the members are pairwise twins, read from their one
    N x k distance block: the columns agree on every row outside the
    members, and the distances between distinct members are all equal.

    That holds exactly when each consecutive pair passes `are_twins`.
    Twinness is an equivalence, so twin consecutive pairs make every pair
    twins, and then d(x, z) = d(y, z) for distinct members x, y, z: all
    distances between distinct members are equal.  Conversely the two
    conditions put any two members at equal distance from every other
    vertex.
    """
    block = g.distance_block(members)
    rows = np.asarray(members, dtype=np.intp) - 1
    inside = block[rows][~np.eye(len(rows), dtype=bool)]
    others = np.ones(g.vertex_count, dtype=bool)
    others[rows] = False
    outside = block[others]
    return bool((outside == outside[:, :1]).all() and (inside == inside[:1]).all())


def twin_swap(g: ComponentGraph, w: Iterable[int], u: int, v: int) -> tuple[int, ...]:
    """Replace member u of w by its twin v; returns the swapped set sorted.

    Whenever w resolves the graph the swapped set does too, because twins
    are at equal distance from every other vertex.
    """
    wset = set(w)
    for x in wset | {u, v}:
        g.check_vertex(x)
    if u not in wset:
        raise NotMember(f"vertex {u} is not in the set")
    if v in wset:
        raise AlreadyMember(f"vertex {v} is already in the set")
    if not are_twins(g, u, v):
        raise NotTwins(f"vertices {u} and {v} are not twins")
    wset.discard(u)
    wset.add(v)
    return tuple(sorted(wset))


def twin_lower_bound(classes: Sequence[Sequence[int]]) -> int:
    """Every resolving set needs all but one member of each twin class."""
    return sum(len(c) - 1 for c in classes)
