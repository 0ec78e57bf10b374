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

from .errors import AlreadyMember, BadParameters, NotMember, NotTwins
from .graph import ROW_BLOCK
from .graph import ComponentGraph, twin_classes_from_packed_rows  # re-exported


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
    `g.twin_classes()`, which comes from the packed adjacency rows and
    never from the skeleton classes: `partitions_coincide` compares the
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
    """True iff the neighborhood and skeleton partitions are identical."""
    a = {frozenset(c) for c in partition_by_neighborhood(g).classes}
    b = {frozenset(c) for c in partition_by_skeleton(g).classes}
    return a == b


def are_twins(g: ComponentGraph, u: int, v: int) -> bool:
    """True iff u and v are twins: `is_twin_class` of the pair, so u == v
    is refused (BadParameters)."""
    return is_twin_class(g, (u, v))


def is_twin_class(g: ComponentGraph, members: Sequence[int]) -> bool:
    """True iff the members are pairwise twins, read from their N x k
    block of `g.distance_columns()`: with d(x0, x1), the distance between
    the first two members, written in place over each member's own zero,
    every row of the block is constant.  The rows are compared with their
    first entry a slab at a time, so no N x k bool block is built.  A
    repeated id is refused first (BadParameters), then ids outside the
    graph's (OutOfRange), as the single-set checks refuse them.

    In any graph, u and v are twins exactly when they are at equal
    distance from every other vertex: the vertices at distance 1 are
    then the same.  If the members are pairwise twins, every outside row
    is constant along the block's columns, and d(x, z) = d(y, z) for
    distinct members x, y, z, so all distances between distinct members
    are equal.  Conversely the two conditions put any two members at
    equal distance from every other vertex.  The diagonal rule is those
    two conditions: an outside row holds no member's zero, and member
    x's row is constant exactly when d(x, y) equals the written d(x0, x1)
    for every other member y.
    """
    if len(set(members)) != len(members):
        raise BadParameters("twin class contains duplicate vertices")
    for x in sorted(members):
        g.check_vertex(x)
    rows = np.asarray(members, dtype=np.intp) - g.vertex_ids().start
    block = g.distance_columns().column(rows)
    if len(rows) > 1:
        block[rows, np.arange(len(rows))] = block[rows[0], 1]
    # a slab of rows at a time, ROW_BLOCK^2 cells at most, into one bool
    # buffer; the first slab that holds a non-constant row decides
    step = max(1, ROW_BLOCK ** 2 // max(block.shape[1], 1))
    same = np.empty((min(step, len(block)), block.shape[1]), dtype=bool)
    for lo in range(0, len(block), step):
        slab = block[lo:lo + step]
        if not np.equal(slab, slab[:, :1], out=same[:len(slab)]).all():
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
