import random
from itertools import combinations, islice
from math import comb, prod

import numpy as np
import pytest

from conftest import (int64_digits, least_equal_rows_by_dict, plain_first_hit,
                      representation, resolves_by_definition, status_by_rows)
from resolvdim import intersection, resolving, twins
from resolvdim.errors import (BadParameters, BudgetExceeded, EmptySet,
                              NotResolving)
from resolvdim.graph import ComponentGraph, bfs_distances
from resolvdim.intersection import PlainGraph


def test_representation_examples(g23):
    w = (1, 4, 5)  # e1, e3, e1+e3
    assert representation(g23, 2, w) == (2, 2, 2)
    assert representation(g23, 7, w) == (1, 1, 1)
    assert representation(g23, 4, w) == (2, 0, 1)


def test_representation_matches_bfs(g23):
    w = (1, 4, 5)
    for v in g23.vertex_ids():
        oracle = tuple(bfs_distances(g23, v)[x] for x in w)
        assert representation(g23, v, w) == oracle


def test_representation_rejects_empty(g23):
    with pytest.raises(EmptySet):
        representation(g23, 1, ())


def test_is_resolving_examples(g22, g23):
    assert resolving.is_resolving(g22, (1,)).is_resolving
    assert resolving.is_resolving(g23, (1, 2, 4)).is_resolving
    rep = resolving.is_resolving(g23, (1, 2))
    assert not rep.is_resolving
    assert rep.colliding_pair == (3, 7)


def test_is_resolving_report_invariants(g23):
    rep = resolving.is_resolving(g23, (1, 2, 4))
    assert rep.colliding_pair is None and rep.redundant_vertex is None
    rep = resolving.is_resolving(g23, (1, 2))
    assert rep.colliding_pair is not None and not rep.is_minimal


def test_empty_set_resolves_only_the_single_vertex():
    assert resolving.is_resolving(ComponentGraph(2, 1), ()).is_resolving
    rep = resolving.is_resolving(ComponentGraph(2, 2), ())
    assert not rep.is_resolving and rep.colliding_pair == (1, 2)


def test_duplicates_rejected(g23):
    with pytest.raises(BadParameters):
        resolving.is_resolving(g23, (1, 1, 2))


@pytest.mark.parametrize("check", [resolving.is_resolving, resolving.resolves,
                                   resolving.is_minimal])
def test_every_single_set_check_rejects_duplicates(g23, check):
    with pytest.raises(BadParameters, match="^candidate set contains duplicate vertices$"):
        check(g23, (1, 1, 2, 4))


def test_is_minimal_examples(g23):
    assert resolving.is_minimal(g23, (1, 3, 6, 7))
    assert resolving.is_minimal(g23, (1, 4, 5))
    assert not resolving.is_minimal(g23, tuple(range(1, 8)))
    rep = resolving.is_resolving(g23, tuple(range(1, 8)))
    assert rep.is_resolving and not rep.is_minimal
    assert rep.redundant_vertex == 1


def test_is_minimal_requires_resolving(g23):
    with pytest.raises(NotResolving):
        resolving.is_minimal(g23, (1, 2))


def test_formula_values():
    assert resolving.metric_dimension_formula(2, 1) == 0
    assert resolving.metric_dimension_formula(2, 2) == 1
    assert resolving.metric_dimension_formula(2, 3) == 3
    assert resolving.metric_dimension_formula(2, 7) == 7
    assert resolving.metric_dimension_formula(3, 2) == 5
    assert resolving.metric_dimension_formula(3, 3) == 19
    assert resolving.metric_dimension_formula(4, 2) == 12
    # dimension one: complete graph on q-1 vertices
    assert resolving.metric_dimension_formula(5, 1) == 3
    with pytest.raises(BadParameters):
        resolving.metric_dimension_formula(1, 1)


def test_search_small_instances(g22, g32):
    assert resolving.metric_dimension_search(g22) == (1, (1,))
    assert resolving.metric_dimension_search(g32) == (5, (1, 3, 4, 5, 7))
    assert resolving.metric_dimension_search(ComponentGraph(2, 1)) == (0, ())
    assert resolving.metric_dimension_search(ComponentGraph(3, 1)) == (1, (1,))


def test_search_q2_n4(g24):
    k, witness = resolving.metric_dimension_search(g24)
    assert k == 4
    assert witness == (1, 2, 4, 8)
    # independent confirmation that no smaller set resolves
    assert resolves_by_definition(g24, witness)
    for size in (1, 2, 3):
        for subset in combinations(g24.vertex_ids(), size):
            assert not resolving.is_resolving(g24, subset).is_resolving
            assert not resolves_by_definition(g24, subset)


def test_search_is_deterministic(g32):
    assert resolving.metric_dimension_search(g32) == \
        resolving.metric_dimension_search(g32)


def test_search_budget_exceeded(g33):
    with pytest.raises(BudgetExceeded) as err:
        resolving.metric_dimension_search(g33, budget=10)
    assert err.value.lower_bound == 19
    assert err.value.upper_bound == 26


def test_canonical_basis_examples():
    assert resolving.canonical_metric_basis(2, 2) == (1,)
    assert resolving.canonical_metric_basis(2, 3) == (1, 2, 4)
    assert resolving.canonical_metric_basis(2, 1) == ()
    assert resolving.canonical_metric_basis(3, 2) == (1, 3, 4, 5, 7)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2),
                                 (7, 1)])
def test_canonical_basis_resolves_minimally(q, n):
    g = ComponentGraph(q, n)
    basis = resolving.canonical_metric_basis(q, n)
    assert len(basis) == resolving.metric_dimension_formula(q, n)
    rep = resolving.is_resolving(g, basis)
    assert rep.is_resolving and rep.is_minimal


def test_enumerate_minimal_examples(g22, g23):
    assert resolving.enumerate_minimal_resolving_sets(g22) == [(1,), (2,)]
    capped = resolving.enumerate_minimal_resolving_sets(g23, size_cap=4)
    sizes = {len(w) for w in capped}
    assert sizes == {3, 4}
    assert resolving.enumerate_minimal_resolving_sets(g23, size_cap=2) == []
    assert capped == sorted(capped)


def test_enumerate_minimal_all_verify(g23):
    for w in resolving.enumerate_minimal_resolving_sets(g23):
        assert resolving.is_minimal(g23, w)


def test_enumerate_minimal_over_the_table_budget_raises(g23):
    # the 2^N table is the only route: a budget below 2^7 is refused
    with pytest.raises(BudgetExceeded, match=r"^full subset table needs 2\^7 "
                                             r"evaluations, over the budget 120$"):
        resolving.enumerate_minimal_resolving_sets(g23, size_cap=3, budget=120)


def test_enumerate_minimal_rejects_negative_cap(g23):
    with pytest.raises(BadParameters):
        resolving.enumerate_minimal_resolving_sets(g23, size_cap=-1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_front_ends_agree_on_powerset_graph(n):
    # the powerset intersection graph is the (2,n) component graph with
    # every id lowered by one
    pg = intersection.intersection_graph(intersection.powerset_family(n))
    g = ComponentGraph(2, n)

    def lowered(sets):
        return [tuple(v - 1 for v in w) for w in sets]

    k, witness = resolving.metric_dimension_search(g)
    assert resolving.metric_dimension_search(pg) == (k, lowered([witness])[0])
    assert resolving.enumerate_minimum_resolving_sets(pg) == \
        lowered(resolving.enumerate_minimum_resolving_sets(g))
    assert resolving.enumerate_minimal_resolving_sets(pg) == \
        lowered(resolving.enumerate_minimal_resolving_sets(g))


@pytest.mark.parametrize("n", [0, 1])
def test_front_ends_on_graphs_with_at_most_one_vertex(n):
    # the empty set resolves both: dimension 0, witness ()
    pg = PlainGraph(n, [])
    assert resolving.metric_dimension_search(pg) == (0, ())
    assert resolving.find_min_resolving_for_matrix(pg.distance_matrix(), []) == (0, ())
    assert resolving.all_resolving_k_subsets(pg.distance_matrix(), 0) == [()]
    assert resolving.enumerate_minimum_resolving_sets(pg) == [()]
    assert resolving.enumerate_minimal_resolving_sets(pg) == [()]


def test_minimum_sets(g32):
    mins = resolving.enumerate_minimum_resolving_sets(g32)
    assert len(mins) == 16
    assert all(len(w) == 5 for w in mins)
    assert mins[0] == (1, 3, 4, 5, 7)


def test_monotonicity_random_supersets(g32):
    rng = random.Random("monotone")
    ids = list(g32.vertex_ids())
    for _ in range(50):
        w = set(resolving.canonical_metric_basis(3, 2))
        for _ in range(rng.randrange(0, 4)):
            w.add(rng.choice(ids))
        assert resolving.is_resolving(g32, sorted(w)).is_resolving


def test_mask_table_consistency(g23):
    # the vectorized full-subset table agrees with the direct checker
    status = resolving.resolving_status_by_mask(g23.distance_matrix())
    for mask in range(1 << 7):
        members = tuple(i + 1 for i in range(7) if (mask >> i) & 1)
        assert status[mask] == resolving.is_resolving(g23, members).is_resolving
        assert status[mask] == resolves_by_definition(g23, members)


def test_wide_path_matches_definition():
    # A path on 15 vertices plus 5 isolated ones: the unreachable distance
    # 21 makes the code base 22, so sets of 14 or more columns no longer fit
    # one int64 code and take more than one column group of the kernel.
    pg = PlainGraph(20, [(i, i + 1) for i in range(14)])
    dist = pg.distance_matrix()
    for k in (5, 17):
        expected = [cols for cols in combinations(range(20), k)
                    if len({tuple(dist[v, list(cols)]) for v in range(20)}) == 20]
        found = resolving.all_resolving_k_subsets(dist, k)
        assert found == expected
        assert 0 < len(found) < len(list(combinations(range(20), k)))


# ---------------------------------------------------------------------------
# the pruned walk and the twin-swap orbit against the plain scan
# ---------------------------------------------------------------------------

def _twin_classes0(g):
    return [[v - 1 for v in c] for c in twins.partition_by_neighborhood(g).classes]


def _assert_walk_matches_plain_scan(dist, classes):
    k, witness = resolving.find_min_resolving_for_matrix(dist, classes)
    assert witness == plain_first_hit(dist, k)
    # the level below, where scanning it is cheap; above that the twin
    # bound pins it (criterion 2 checks the value against the formula)
    if k > 0 and comb(dist.shape[0], k - 1) <= 20_000:
        assert plain_first_hit(dist, k - 1) is None
    return k


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1),
                                 (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)])
def test_walk_matches_plain_scan(q, n):
    g = ComponentGraph(q, n)
    k = _assert_walk_matches_plain_scan(g.distance_matrix(), _twin_classes0(g))
    assert k == resolving.metric_dimension_formula(q, n)


@pytest.mark.parametrize("n", [3, 4])
def test_walk_matches_plain_scan_on_powerset_graph(n):
    pg = intersection.intersection_graph(intersection.powerset_family(n))
    classes = twins.twin_classes_from_adjacency(pg.adjacency_matrix())
    k = _assert_walk_matches_plain_scan(pg.distance_matrix(), classes)
    assert k == intersection.powerset_intersection_dimension(n)


@pytest.mark.parametrize("seed", range(40))
def test_walk_matches_plain_scan_on_random_graphs(seed):
    # small graphs with backtracking, twin classes of both kinds, and
    # disconnected pairs at the unreachable distance
    rng = random.Random(f"walk:{seed}")
    n = rng.randint(2, 10)
    p = rng.choice([0.2, 0.4, 0.6, 0.8])
    pg = PlainGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < p])
    classes = twins.twin_classes_from_adjacency(pg.adjacency_matrix())
    _assert_walk_matches_plain_scan(pg.distance_matrix(), classes)


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (5, 3), (3, 4)])
def test_walk_starts_at_the_dimension(q, n):
    # the twin bound is attained: the walk goes straight down one branch
    g = ComponentGraph(q, n)
    engine = resolving._Engine(g.distance_matrix())
    k = resolving.metric_dimension_formula(q, n)
    witness, complete = engine.walk(k, _twin_classes0(g))
    assert complete
    assert tuple(c + 1 for c in witness) == resolving.canonical_metric_basis(q, n)
    # one node per pick, the witness the first leaf tried
    assert engine.evaluated == k


def test_landmark_bound():
    # N <= 2^k + k: 7 vertices need 3 landmarks, 4095 need 12
    assert resolving._Engine(ComponentGraph(2, 3).distance_matrix()).landmark_bound() == 3
    assert resolving._Engine(ComponentGraph(2, 12).distance_matrix()).landmark_bound() == 12
    # a complete graph has the single distance 1: K_4 needs 3
    assert resolving._Engine(ComponentGraph(5, 1).distance_matrix()).landmark_bound() == 3


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)])
def test_orbit_matches_plain_scan(q, n):
    g = ComponentGraph(q, n)
    dist, classes = g.distance_matrix(), _twin_classes0(g)
    k = resolving.metric_dimension_formula(q, n)
    orbit = list(resolving.minimum_resolving_sets_for_matrix(dist, classes, k))
    assert orbit == resolving.all_resolving_k_subsets(dist, k)
    assert len(orbit) == prod(len(c) for c in classes)


def test_orbit_over_budget_raises_before_listing(g33):
    classes = _twin_classes0(g33)
    sets = resolving.minimum_resolving_sets_for_matrix(
        g33.distance_matrix(), classes, 19, budget=4095)
    with pytest.raises(BudgetExceeded, match="orbit has 4096 sets") as err:
        next(sets)
    assert err.value.evaluated == 0


def test_resolves_matches_is_resolving(g23):
    for size in (1, 2, 3, 4):
        for w in combinations(g23.vertex_ids(), size):
            assert resolving.resolves(g23, w) == resolving.is_resolving(g23, w).is_resolving
    with pytest.raises(BadParameters):
        resolving.resolves(g23, (1, 1))


# ---------------------------------------------------------------------------
# the column-group kernel against the detectors it replaced
# ---------------------------------------------------------------------------

def test_kernel_matches_rows_on_orbit_batches():
    # (4,3): the orbit's sets have 56 columns, more than one packed pass holds
    g = ComponentGraph(4, 3)
    dist = g.distance_matrix()
    engine = resolving._Engine(dist)
    assert int64_digits(engine.base) < 56
    for cols, hits in islice(engine.orbit(_twin_classes0(g)), 3):
        assert np.array_equal(hits, status_by_rows(dist, cols))


@pytest.mark.parametrize("q,n", [(7, 2), (3, 4)])
def test_kernel_matches_rows_around_one_packed_pass(q, n):
    dist = ComponentGraph(q, n).distance_matrix()
    engine = resolving._Engine(dist)
    group = int64_digits(engine.base)
    rng = random.Random(f"kernel:{q}:{n}")
    for k in (group - 1, group, group + 1, 2 * group + 1):
        if k > len(dist):
            continue
        cols = np.array([rng.sample(range(len(dist)), k) for _ in range(64)])
        assert np.array_equal(engine.status(cols), status_by_rows(dist, cols))


def test_kernel_matches_rows_on_the_first_two_group_sets():
    # the path-plus-isolated graph of `test_wide_path_matches_definition`:
    # code base 22, so 13 columns are one packed pass and 14 need two groups
    dist = PlainGraph(20, [(i, i + 1) for i in range(14)]).distance_matrix()
    engine = resolving._Engine(dist)
    assert int64_digits(engine.base) == 13
    for k in (13, 14):
        cols = np.array(list(combinations(range(20), k)))
        hits = engine.status(cols)
        assert 0 < hits.sum() < len(hits)
        assert np.array_equal(hits, status_by_rows(dist, cols))


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
def test_colliding_pair_matches_rows(q, n):
    g = ComponentGraph(q, n)
    for size in range(4):
        for w in combinations(g.vertex_ids(), size):
            rep = resolving.is_resolving(g, w)
            if not rep.is_resolving:
                u, v = least_equal_rows_by_dict(g.distance_block(w))
                assert rep.colliding_pair == (u + 1, v + 1)


def test_colliding_pair_matches_rows_on_wide_sets():
    # (7,3): each set has 334 columns, ten groups of the kernel
    g = ComponentGraph(7, 3)
    basis = resolving.canonical_metric_basis(7, 3)
    for x in basis:
        w = [v for v in basis if v != x]
        u, v = least_equal_rows_by_dict(g.distance_block(w))
        assert resolving.is_resolving(g, w).colliding_pair == (u + 1, v + 1)
