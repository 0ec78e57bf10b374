import random
import tracemalloc

import numpy as np
import pytest

from conftest import (desk_instances, mixed_triple_graph, twin_classes_by_union_find,
                      twins_graph)
from test_routes import TWINS, folded, qn, seeded
from resolvdim import graph, resolving, twins
from resolvdim.errors import AlreadyMember, BadParameters, InstanceTooLarge, NotMember, NotTwins
from resolvdim.graph import ComponentGraph
from resolvdim.intersection import PlainGraph


def test_neighborhood_partition_q2(g23):
    part = twins.partition_by_neighborhood(g23)
    assert part.classes == tuple((v,) for v in range(1, 8))


def test_neighborhood_partition_q2_n2_exception(g22):
    # e1 and e2 share the open neighborhood {e1+e2}: they are twins even
    # though their skeletons differ, the one case where the two
    # partitions disagree.
    part = twins.partition_by_neighborhood(g22)
    assert part.classes == ((1, 2), (3,))
    assert not twins.partitions_coincide(g22)
    assert twins.partition_by_skeleton(g22).classes == ((1,), (2,), (3,))


def test_neighborhood_partition_q3(g32):
    part = twins.partition_by_neighborhood(g32)
    assert sorted(len(c) for c in part.classes) == [2, 2, 4]
    assert part.classes == ((1, 2), (3, 6), (4, 5, 7, 8))


def test_single_class_on_complete_graph():
    g = ComponentGraph(3, 1)
    part = twins.partition_by_neighborhood(g)
    assert part.classes == ((1, 2),)


def test_skeleton_partition(g23, g32, g42):
    assert len(twins.partition_by_skeleton(g23).classes) == 7
    assert len(twins.partition_by_skeleton(g32).classes) == 3
    assert sorted(len(c) for c in twins.partition_by_skeleton(g42).classes) == [3, 3, 9]


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 3)])
def test_partitions_coincide_examples(q, n):
    assert twins.partitions_coincide(ComponentGraph(q, n))


@pytest.mark.parametrize("q,n", desk_instances(400))
def test_partitions_coincide_map(q, n):
    # coincidence holds on every desk instance except q=2, n=2
    expected = not (q == 2 and n == 2)
    assert twins.partitions_coincide(ComponentGraph(q, n)) == expected


@pytest.mark.parametrize("q,n", desk_instances(400))
def test_class_sizes_match_skeleton_counts(q, n):
    g = ComponentGraph(q, n)
    part = twins.partition_by_skeleton(g)
    for cls, mask in zip(part.classes, part.skeletons):
        assert len(cls) == (q - 1) ** bin(mask).count("1")
        assert all(g.skeleton(v) == mask for v in cls)


def test_twin_swap_preserves_resolving(g32):
    w = (1, 3, 4, 5, 7)
    assert resolving.is_resolving(g32, w).is_resolving
    swapped = twins.twin_swap(g32, w, 1, 2)
    assert swapped == (2, 3, 4, 5, 7)
    assert resolving.is_resolving(g32, swapped).is_resolving


def test_twin_swap_rejects_degenerate_and_non_members(g32):
    with pytest.raises(AlreadyMember):
        twins.twin_swap(g32, (1, 3, 4, 5, 7), 1, 1)
    with pytest.raises(NotMember):
        twins.twin_swap(g32, (1, 3, 4, 5, 7), 2, 6)
    with pytest.raises(AlreadyMember):
        twins.twin_swap(g32, (1, 3, 4, 5, 7), 1, 5)


# the pairwise tests that the route matrix folded (see `folded`)
_ARE_TWINS = ["are_twins on consecutive members", "one class of twin_classes"]
test_are_twins_matches_partition = folded(
    {TWINS: _ARE_TWINS}, qn((2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (3, 3)))
test_is_twin_class_matches_consecutive_pairs = folded(
    {TWINS: ["is_twin_class", *_ARE_TWINS]}, qn((2, 2), (2, 3), (3, 2), (4, 2), (3, 3)))
test_is_twin_class_on_plain_graphs = folded(
    {TWINS: ["is_twin_class", "N(u) - v == N(v) - u on consecutive members",
             "one class of twin_classes"]}, seeded("plaintwins:{}", range(5)))


def test_repeated_id_is_refused(g32):
    # a vertex is not its own twin: a repeated id is refused, before any
    # id is checked against 1..N, as the single-set checks refuse it
    for check in (lambda w: twins.is_twin_class(g32, w), lambda w: twins.are_twins(g32, *w)):
        for w in ((3, 3), (0, 0), (9, 9)):
            with pytest.raises(BadParameters, match="^twin class contains duplicate vertices$"):
                check(w)
    with pytest.raises(BadParameters):
        twins.is_twin_class(g32, (2, 3, 6, 3))


def test_is_twin_class_reads_the_distances_between_members():
    # every row outside {x, y, z} is constant on it, so only the distances
    # between its members, d(x, y) = 1 and d(x, z) = 2, refuse it
    g = mixed_triple_graph()
    assert not twins.is_twin_class(g, (1, 2, 3))
    assert twins.is_twin_class(g, (1, 2))
    assert not twins.is_twin_class(g, (1, 3))


def test_is_twin_class_of_the_largest_16_3_class_is_small():
    # 3,375 members at N = 4095, each column compared with the first
    # member's a slab of 16 columns at a time: measured 0.36 MiB.  The
    # whole int16 block of the class's columns, tested in place, was
    # 26.5 MiB
    g = ComponentGraph(16, 3)
    members = tuple(x + 1 for x in max(g.twin_classes(), key=len))
    tracemalloc.start()
    try:
        ok = twins.is_twin_class(g, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 3375 and ok
    assert peak <= 2 * 2 ** 20


def test_no_twin_swap_available_at_q2_n3(g23):
    for u in g23.vertex_ids():
        for v in g23.vertex_ids():
            if u != v:
                assert not twins.are_twins(g23, u, v)
    with pytest.raises(NotTwins):
        twins.twin_swap(g23, (1, 2, 4), 1, 3)


@pytest.mark.parametrize("q,n,trials", [(3, 2, 100), (4, 2, 100), (2, 2, 30), (3, 3, 30)])
def test_twin_swap_randomized_trials(q, n, trials):
    g = ComponentGraph(q, n)
    part = twins.partition_by_neighborhood(g)
    rng = random.Random(f"twinswap:{q}:{n}")
    base = resolving.canonical_metric_basis(q, n)
    ids = list(g.vertex_ids())
    done = 0
    # bounded: with no swappable class the test fails instead of hanging
    for _ in range(50 * trials):
        if done == trials:
            break
        w = set(base)
        for _ in range(rng.randrange(0, 3)):
            w.add(rng.choice(ids))
        swappable = [c for c in part.classes
                     if any(x in w for x in c) and any(x not in w for x in c)]
        if not swappable:
            continue
        cls = rng.choice(swappable)
        u = rng.choice([x for x in cls if x in w])
        v = rng.choice([x for x in cls if x not in w])
        assert resolving.is_resolving(g, sorted(w)).is_resolving
        swapped = twins.twin_swap(g, w, u, v)
        assert resolving.is_resolving(g, swapped).is_resolving
        done += 1
    assert done == trials, f"{done} of {50 * trials} draws had a swappable class"


@pytest.mark.parametrize("q,n", [(3, 2), (4, 2)])
def test_resolving_sets_cover_twin_classes(q, n):
    # every minimum resolving set misses at most one member per class
    g = ComponentGraph(q, n)
    part = twins.partition_by_neighborhood(g)
    for w in resolving.enumerate_minimum_resolving_sets(g):
        members = set(w)
        for cls in part.classes:
            assert len([x for x in cls if x not in members]) <= 1


@pytest.mark.parametrize("q,n", desk_instances(400) + [(2, 12), (3, 7), (7, 4)])
def test_twin_classes_match_union_find_on_component_graphs(q, n):
    g = ComponentGraph(q, n)
    assert g.twin_classes() == twin_classes_by_union_find(g.adjacency_matrix())


def _random_adjacency(rng, n, kind):
    if kind == "empty":
        return np.zeros((n, n), dtype=bool)
    if kind == "complete":
        return ~np.eye(n, dtype=bool)
    p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
    upper = np.triu(np.array([[rng.random() < p for _ in range(n)]
                              for _ in range(n)], dtype=bool), 1)
    adj = upper | upper.T
    if kind == "isolated" and n:
        lonely = rng.sample(range(n), rng.randint(1, n))
        adj[lonely, :] = adj[:, lonely] = False
    return adj


def test_twin_classes_match_union_find_on_random_graphs():
    # both kinds of twins, isolated vertices (open twins of each other),
    # empty and complete graphs (one class each), and 0 or 1 vertices
    kinds = ["empty", "complete", "isolated", "random", "random"]
    for seed in range(300):
        rng = random.Random(f"twins:{seed}")
        adj = _random_adjacency(rng, rng.randint(0, 13), kinds[seed % len(kinds)])
        pg = PlainGraph(len(adj), np.argwhere(np.triu(adj, 1)))
        assert pg.twin_classes() == twin_classes_by_union_find(adj), f"seed {seed}"


def test_twin_classes_leave_the_adjacency_unchanged(g32):
    # the closed-row pass sets each vertex's own bit in its packed copy of
    # the rows; a plain graph hands the routine rows of its matrix
    pg = PlainGraph(g32.vertex_count, [(u - 1, v - 1) for u, v in g32.edges()])
    adj = pg.adjacency_matrix()
    before = adj.copy()
    pg.twin_classes()
    assert np.array_equal(adj, before)


@pytest.mark.parametrize("q,n", desk_instances(1023))
def test_packed_row_classes_match_adjacency_classes(q, n):
    # the rows are built from the skeletons, the oracles read the matrix;
    # union-find shares no code with the two row passes
    g = ComponentGraph(q, n)
    adj = g.adjacency_matrix()
    packed = tuple(tuple(v - 1 for v in c) for c in twins.partition_by_neighborhood(g).classes)
    assert packed == graph.twin_classes_by_row_digest(
        lambda v: np.packbits(adj[v], axis=1), len(adj))
    assert packed == twin_classes_by_union_find(adj)


def test_twin_classes_survive_a_constant_digest(monkeypatch):
    # every row of a pass shares one key: its vertices are grouped by
    # their exact rows, so a shared key is never a merge
    monkeypatch.setattr(graph, "_row_key", lambda row: 0)
    for q, n in ((2, 2), (2, 3), (3, 2), (4, 2), (3, 3)):
        g = ComponentGraph(q, n)
        assert g.twin_classes() == twin_classes_by_union_find(g.adjacency_matrix()), (q, n)
    for seed in range(5):
        pg = twins_graph(seed)
        assert pg.twin_classes() == twin_classes_by_union_find(pg.adjacency_matrix()), seed


@pytest.mark.parametrize("q, n", [(2, 12), (16, 3)])
def test_twin_classes_hold_one_block_of_rows(q, n):
    # N = 4095: O(N) keys and labels and one slab of packed rows, where
    # all N packed rows took N^2/8 = 2 MB and the byte keys of both
    # passes as much again
    g = ComponentGraph(q, n)
    tracemalloc.start()
    try:
        classes = g.twin_classes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, classes)) == 4095
    assert peak < 3 * 2 ** 20, peak / 2 ** 20


def test_row_classes_past_the_matrix_cap():
    # N = 6,560 at (3,8): `twin_classes()` refuses the cell, but the
    # routine holds one block of rows and gives the skeleton classes
    g = ComponentGraph(3, 8)
    tracemalloc.start()
    try:
        classes = graph.twin_classes_by_row_digest(g._packed_adjacency_rows, g.vertex_count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    skeleton = twins.partition_by_skeleton(g).classes
    assert classes == tuple(tuple(v - 1 for v in c) for c in skeleton)
    assert len(classes) == 255
    assert peak < 3 * 2 ** 20, peak / 2 ** 20
    with pytest.raises(InstanceTooLarge, match="dense adjacency needs N <= 4096"):
        g.twin_classes()


def test_neighborhood_partition_peak_memory():
    # the classes hold one block of rows at N = 4095, where the bool
    # adjacency matrix would take 16 MB
    g = ComponentGraph(2, 12)
    tracemalloc.start()
    try:
        part = twins.partition_by_neighborhood(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(part.classes) == 4095
    assert peak <= 12 * 2 ** 20


def test_skeleton_partition_reads_the_skeleton_array(g42, monkeypatch):
    expected = ((1, 2, 3), (4, 8, 12), (5, 6, 7, 9, 10, 11, 13, 14, 15))
    monkeypatch.setattr(ComponentGraph, "skeleton", None)
    part = twins.partition_by_skeleton(g42)
    assert part.classes == expected
    assert part.skeletons == (1, 2, 3)
