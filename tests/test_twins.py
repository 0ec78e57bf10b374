import random

import numpy as np
import pytest

from conftest import twin_classes_by_union_find
from resolvdim import resolving, twins
from resolvdim.errors import AlreadyMember, NotMember, NotTwins
from resolvdim.field import SUPPORTED_ORDERS
from resolvdim.graph import ComponentGraph


def desk_instances(limit):
    out = []
    for q in SUPPORTED_ORDERS:
        n = 1
        while q ** n - 1 <= limit:
            out.append((q, n))
            n += 1
    return out


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


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (3, 3)])
def test_are_twins_matches_partition(q, n):
    g = ComponentGraph(q, n)
    cls = {v: i for i, c in enumerate(twins.partition_by_neighborhood(g).classes)
           for v in c}
    for u in g.vertex_ids():
        for v in g.vertex_ids():
            assert twins.are_twins(g, u, v) == (cls[u] == cls[v])


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
    adj = ComponentGraph(q, n).adjacency_matrix()
    assert twins.twin_classes_from_adjacency(adj) == twin_classes_by_union_find(adj)


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
        assert twins.twin_classes_from_adjacency(adj) == \
            twin_classes_by_union_find(adj), f"seed {seed}"


def test_twin_classes_leave_the_adjacency_unchanged(g32):
    adj = g32.adjacency_matrix()
    before = adj.copy()
    twins.twin_classes_from_adjacency(adj)
    assert np.array_equal(adj, before)
