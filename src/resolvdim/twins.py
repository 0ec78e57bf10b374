"""Twin vertices: equal-neighborhood and equal-skeleton partitions.

Two vertices are twins when N[u] = N[v] or N(u) = N(v).  The package
computes that partition directly from neighborhoods and, separately, the
partition by equal skeleton mask; `partitions_coincide` compares the two
by each vertex's least class member.  On the component graphs the two
coincide everywhere except q=2, n=2, where the two unit vectors e1, e2
share the open neighborhood {e1+e2} but have different skeletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AlreadyMember, BadParameters, NotMember, NotTwins
from .graph import ComponentGraph, slabs


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex ids into classes.

    Classes are ordered by minimum member id, members ascending.  Each
    class carries the skeleton mask of its smallest member.
    """

    classes: tuple[tuple[int, ...], ...]
    skeletons: tuple[int, ...]


def partition_by_neighborhood(g: ComponentGraph) -> TwinPartition:
    """Classes of the twin relation N[u]=N[v] or N(u)=N(v), read from
    `g.twin_classes()`, which comes from the adjacency rows and never
    from the skeleton classes: `partitions_coincide` compares the
    two."""
    sk = g.skeleton_array()
    classes0 = g.twin_classes()
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
    """True iff the neighborhood and skeleton partitions are identical:
    each maps every vertex to its class's least member, one list of N
    ids, and two partitions are equal exactly when those maps are."""
    return (_least_members(partition_by_neighborhood(g), g.vertex_count)
            == _least_members(partition_by_skeleton(g), g.vertex_count))


def _least_members(part: TwinPartition, count: int) -> list[int]:
    """Entry v - 1 is the least member of vertex v's class."""
    least = [0] * count
    for c in part.classes:
        for v in c:
            least[v - 1] = c[0]
    return least


def are_twins(g: ComponentGraph, u: int, v: int) -> bool:
    """True iff u and v are twins: `is_twin_class` of the pair, so u == v
    is refused (BadParameters)."""
    return is_twin_class(g, (u, v))


def is_twin_class(g: ComponentGraph, members: Sequence[int]) -> bool:
    """True iff the members are pairwise twins, read from
    `g.distance_columns()`: the column of each member agrees with the
    first member's column everywhere except at the rows of those two
    members.  The members are compared a slab at a time (`slabs`), so no
    N x k block is built.  A repeated id is refused first
    (BadParameters), then ids outside the graph's (OutOfRange), as the
    single-set checks refuse them.

    In any graph, u and v are twins exactly when they are at equal
    distance from every other vertex: the vertices at distance 1 are
    then the same.  That is the test of each member x against the first,
    x0.  It suffices: if x0 is a twin of every other member, then for
    members x and y other than x0, d(x, z) = d(x0, z) = d(y, z) for
    every z outside {x, y, x0}, and d(x, x0) = d(y, x) = d(x0, y), so x
    and y are twins too.
    """
    if len(set(members)) != len(members):
        raise BadParameters("twin class contains duplicate vertices")
    for x in sorted(members):
        g.check_vertex(x)
    cols = np.asarray(members, dtype=np.intp) - g.vertex_ids().start
    columns = g.distance_columns()
    first = columns.column(cols[:1])  # N x 1, or N x 0 for no member
    for s in slabs(len(cols), len(first)):
        block = columns.column(cols[s])
        # the rows of the first member and of each member itself agree
        block[cols[:1]] = first[cols[:1]]
        block[cols[s], np.arange(block.shape[1])] = first[cols[s], 0]
        if not (block == first).all():
            return False
    return True


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
