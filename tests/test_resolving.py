import random
import tracemalloc
from itertools import combinations, islice
from math import comb, prod

import numpy as np
import pytest

from conftest import (int64_digits, least_equal_rows_by_dict, plain_first_hit,
                      representation, resolves_by_definition, status_by_rows)
from resolvdim import intersection, resolving
from resolvdim.errors import (BadParameters, BudgetExceeded, EmptySet,
                              NotResolving, UnsupportedOrder)
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


def test_is_minimal_examples(g23, g24):
    assert resolving.is_minimal(g23, (1, 3, 6, 7))
    assert resolving.is_minimal(g23, (1, 4, 5))
    assert not resolving.is_minimal(g23, tuple(range(1, 8)))
    rep = resolving.is_resolving(g23, tuple(range(1, 8)))
    assert rep.is_resolving and not rep.is_minimal
    assert rep.redundant_vertex == 1
    # the canonical basis plus e1+e4 resolves; only the last removal, of
    # e1+e4 itself, still resolves
    w = resolving.canonical_metric_basis(2, 4) + (9,)
    assert not resolving.is_minimal(g24, w)
    assert resolving.is_resolving(g24, w).redundant_vertex == 9


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


@pytest.mark.parametrize("q, n, error", [(6, 1, UnsupportedOrder),
                                         (32, 1, UnsupportedOrder),
                                         (2, 0, BadParameters),
                                         (3, -1, BadParameters)])
def test_canonical_basis_rejects_what_the_graph_rejects(q, n, error):
    with pytest.raises(error) as from_graph:
        ComponentGraph(q, n)
    with pytest.raises(error) as from_basis:
        resolving.canonical_metric_basis(q, n)
    assert str(from_basis.value) == str(from_graph.value)


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
    minimal = resolving.enumerate_minimal_resolving_sets(g23)
    assert {len(w) for w in minimal} == {3, 4}
    assert [w for w in minimal if len(w) <= 2] == []
    assert minimal == sorted(minimal)


def test_enumerate_minimal_all_verify(g23):
    for w in resolving.enumerate_minimal_resolving_sets(g23):
        assert resolving.is_minimal(g23, w)


def test_enumerate_minimal_over_the_table_budget_raises(g23):
    # the 2^N table is the only route: a budget below 2^7 is refused
    with pytest.raises(BudgetExceeded, match=r"^full subset table needs 2\^7 "
                                             r"evaluations, over the budget 120$"):
        resolving.enumerate_minimal_resolving_sets(g23, budget=120)


def test_table_guard_has_its_own_message(g33):
    # 2^26 fits a budget of 10^8, so the refusal comes from the guard and
    # names it rather than the budget; a budget below 2^N keeps the budget
    # text (`test_enumerate_minimal_over_the_table_budget_raises`)
    with pytest.raises(BudgetExceeded,
                       match=r"^full subset table needs N <= 20, got N = 26$") as err:
        resolving.enumerate_minimal_resolving_sets(g33, budget=10 ** 8)
    assert (err.value.evaluated, err.value.budget) == (0, 10 ** 8)


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
    assert resolving.enumerate_minimum_resolving_sets(pg) == [()]
    assert resolving.enumerate_minimal_resolving_sets(pg) == [()]


@pytest.mark.parametrize("n, edges, expected", [
    (0, [], [()]), (1, [], [()]), (2, [], []), (2, [(0, 1)], [])])
def test_empty_set_resolves_at_most_one_vertex(n, edges, expected):
    # the plain scan at k = 0 lists the empty set, which resolves N <= 1 only
    dist = PlainGraph(n, edges).distance_matrix()
    assert resolving.all_resolving_k_subsets(dist, 0) == expected


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


def test_mask_table_consistency(g23, g24):
    # the vectorized full-subset table and its minimal table agree with the
    # direct checker
    status = resolving.resolving_status_by_mask(g23.distance_matrix())
    minimal = resolving.minimal_status_by_mask(status)
    for mask in range(1 << 7):
        members = tuple(i + 1 for i in range(7) if (mask >> i) & 1)
        report = resolving.is_resolving(g23, members)
        assert status[mask] == report.is_resolving
        assert status[mask] == resolves_by_definition(g23, members)
        assert minimal[mask] == report.is_minimal
    # N = 15: the minimal table's views for bits 8 and up, on every minimal
    # mask and a seeded sample of the others
    minimal = resolving.minimal_status_by_mask(
        resolving.resolving_status_by_mask(g24.distance_matrix()))
    hits = np.flatnonzero(minimal).tolist()
    rng = random.Random("mask-table:g24")
    others = rng.sample(np.flatnonzero(~minimal).tolist(), 256)
    assert hits and max(hits) >= 1 << 8
    for mask in hits + others:
        members = tuple(i + 1 for i in range(15) if (mask >> i) & 1)
        assert minimal[mask] == resolving.is_resolving(g24, members).is_minimal


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
    k = _assert_walk_matches_plain_scan(g.distance_matrix(), g.twin_classes())
    assert k == resolving.metric_dimension_formula(q, n)


@pytest.mark.parametrize("n", [3, 4])
def test_walk_matches_plain_scan_on_powerset_graph(n):
    pg = intersection.intersection_graph(intersection.powerset_family(n))
    k = _assert_walk_matches_plain_scan(pg.distance_matrix(), pg.twin_classes())
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
    _assert_walk_matches_plain_scan(pg.distance_matrix(), pg.twin_classes())


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (5, 3), (3, 4)])
def test_walk_starts_at_the_dimension(q, n):
    # the twin bound is attained: the walk goes straight down one branch
    g = ComponentGraph(q, n)
    engine = resolving._Engine(g.distance_matrix())
    k = resolving.metric_dimension_formula(q, n)
    witness, complete = engine.walk(k, g.twin_classes())
    assert complete
    assert tuple(c + 1 for c in witness) == resolving.canonical_metric_basis(q, n)
    # one node per pick, the witness the first leaf tried
    assert engine.evaluated == k


def test_walk_decides_leaves_without_the_kernel(monkeypatch):
    # the walk and the plain scan are independent routes: no leaf of the
    # walk goes through the column-group kernel
    graphs = [ComponentGraph(q, n) for q, n in [(2, 2), (2, 4), (2, 6), (3, 3), (7, 2)]]
    inputs = [(g.distance_matrix(), g.twin_classes()) for g in graphs]
    rng = random.Random("walk:kernel-free")
    pg = PlainGraph(24, [(u, v) for u in range(24) for v in range(u + 1, 24)
                         if rng.random() < 0.2])
    inputs.append((pg.distance_matrix(), pg.twin_classes()))
    expected = [resolving.find_min_resolving_for_matrix(d, c) for d, c in inputs]

    def kernel(*args):
        raise AssertionError("the walk called the kernel")

    monkeypatch.setattr(resolving._Engine, "keys", kernel)
    monkeypatch.setattr(resolving._Engine, "status", kernel)
    assert [resolving.find_min_resolving_for_matrix(d, c) for d, c in inputs] == expected


@pytest.mark.parametrize("q,n,least", [(2, 4, 20), (2, 6, 32), (3, 3, 19), (7, 2, 45)])
def test_walk_budget_counts_every_leaf(q, n, least):
    # one unit per leaf, charged in order up to the witness: `least` is the
    # smallest budget that decides (at (2,4), 15 leaves fail first)
    g = ComponentGraph(q, n)
    dist, classes = g.distance_matrix(), g.twin_classes()
    k, witness = resolving.find_min_resolving_for_matrix(dist, classes)
    assert resolving.find_min_resolving_for_matrix(dist, classes, least) == (k, witness)
    with pytest.raises(BudgetExceeded,
                       match=f"^search stopped after {least - 1} subset evaluations$") as err:
        resolving.find_min_resolving_for_matrix(dist, classes, least - 1)
    assert (err.value.lower_bound, err.value.upper_bound) == (k, len(dist))
    assert err.value.evaluated == least - 1


def test_walk_frames_hold_int32_ranks():
    # (4,5): the walk is k = 992 frames deep over N = 1023 rows; int64
    # frames alone would take k * N * 8 bytes
    g = ComponentGraph(4, 5)
    dist, classes = g.distance_matrix(), g.twin_classes()
    tracemalloc.start()
    try:
        k, _ = resolving.find_min_resolving_for_matrix(dist, classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 992 and peak < k * len(dist) * 6


def test_walk_key_is_int64_for_any_entry():
    # the int32 frame ranks are widened before the refinement key is
    # formed, so an entry past int32 is read exactly; column 1 resolves
    big = 1 << 40
    dist = np.array([[0, 1, 1, 2],
                     [1, 0, 2, 3],
                     [1, 2, 0, big],
                     [2, 3, big, 0]], dtype=np.int64)
    singletons = [[v] for v in range(4)]
    assert resolving.find_min_resolving_for_matrix(dist, singletons) == (1, (1,))


def test_landmark_bound():
    # N <= 2^k + k: 7 vertices need 3 landmarks, 4095 need 12
    assert resolving._Engine(ComponentGraph(2, 3).distance_matrix()).landmark_bound() == 3
    assert resolving._Engine(ComponentGraph(2, 12).distance_matrix()).landmark_bound() == 12
    # a complete graph has the single distance 1: K_4 needs 3
    assert resolving._Engine(ComponentGraph(5, 1).distance_matrix()).landmark_bound() == 3


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)])
def test_orbit_matches_plain_scan(q, n):
    g = ComponentGraph(q, n)
    dist, classes = g.distance_matrix(), g.twin_classes()
    k = resolving.metric_dimension_formula(q, n)
    blocks = list(resolving.minimum_resolving_sets(g, k))
    assert all(block.ndim == 2 and block.shape[1] == k for block in blocks)
    orbit = [tuple(row) for block in blocks for row in block.tolist()]
    assert orbit == resolving.all_resolving_k_subsets(dist, k)
    assert len(orbit) == prod(len(c) for c in classes)


def test_orbit_over_budget_raises_before_listing(monkeypatch):
    # refused from the class sizes, before the matrix is read
    g = ComponentGraph(3, 3)

    def refuse(self):
        raise AssertionError("the matrix was read before the orbit was admitted")

    monkeypatch.setattr(ComponentGraph, "distance_matrix", refuse)
    sets = resolving.minimum_resolving_sets(g, 19, budget=4095)
    with pytest.raises(BudgetExceeded, match="orbit has 4096 sets") as err:
        next(sets)
    assert err.value.evaluated == 0


def test_scan_over_budget_raises_before_the_matrix(monkeypatch):
    # (2,4) has dimension 4 above its twin bound 0: the plain scan of
    # C(15, 4) = 1365 sets is refused from its count
    g = ComponentGraph(2, 4)

    def refuse(self):
        raise AssertionError("the matrix was read before the scan was admitted")

    monkeypatch.setattr(ComponentGraph, "distance_matrix", refuse)
    with pytest.raises(BudgetExceeded,
                       match=r"^scanning C\(15,4\) = 1365 subsets exceeds the budget 1364$"):
        next(resolving.minimum_resolving_sets(g, 4, budget=1364))


def test_enumerate_minimum_refuses_the_orbit_before_the_matrix(monkeypatch):
    # (3,3): the walk decides k = 19 in 19 nodes, within the budget of
    # 4095, but the orbit has 4096 sets; no N x N view is built
    g = ComponentGraph(3, 3)

    def refuse(self):
        raise AssertionError("an N x N view was built")

    monkeypatch.setattr(ComponentGraph, "distance_matrix", refuse)
    monkeypatch.setattr(ComponentGraph, "adjacency_matrix", refuse)
    assert resolving.metric_dimension_search(g, 4095)[0] == 19
    with pytest.raises(BudgetExceeded,
                       match="^twin-swap orbit has 4096 sets, over the budget 4095$"):
        resolving.enumerate_minimum_resolving_sets(g, 4095)


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
    for cols, hits in islice(engine.orbit(g.twin_classes()), 3):
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


def test_kernel_ranks_before_an_overflowing_digit():
    # base 2^40 + 1: after column 0 the labels' bound times the base passes
    # 2^62, so the labels are dense-ranked before column 1 is appended.  A
    # kernel that never re-ranks wraps modulo 2^64: 2^24 * (2^40 + 1) is
    # 2^24, rows 0 and 1 collide and the status reads [False].
    dist = np.array([[2 ** 24, 0, 2 ** 40],
                     [0, 2 ** 24, 0],
                     [1, 1, 0]], dtype=np.int64)
    cols = np.array([[0, 1]])
    engine = resolving._Engine(dist)
    assert engine.base == 2 ** 40 + 1
    assert engine.status(cols).tolist() == [True]
    assert status_by_rows(dist, cols).tolist() == [True]


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


def _desk_cells(limit):
    from resolvdim.field import SUPPORTED_ORDERS
    return [(q, n) for q in SUPPORTED_ORDERS for n in range(1, 12) if q ** n - 1 <= limit]


def _walk_outcome(dist, classes, budget):
    try:
        return resolving.find_min_resolving_for_matrix(dist, classes, budget)
    except BudgetExceeded as exc:
        return str(exc), exc.evaluated, exc.lower_bound, exc.upper_bound


@pytest.mark.parametrize("q,n", _desk_cells(1023))
def test_column_walk_matches_matrix_walk(q, n):
    # the default budget decides every cell with N <= 1023; a budget of 30
    # stops most of them mid-walk, which pins the evaluated counts
    g = ComponentGraph(q, n)
    classes = g.twin_classes()
    for budget in (30, resolving.DEFAULT_BUDGET):
        outcome = _walk_outcome(g.distance_matrix(), classes, budget)
        assert _walk_outcome(g.distance_columns(), classes, budget) == outcome
    k, witness = outcome
    assert resolving.metric_dimension_search(g) == (k, tuple(c + 1 for c in witness))
    engine = resolving._Engine(g.distance_columns())
    assert engine.landmark_bound() == resolving._Engine(g.distance_matrix()).landmark_bound()


def test_column_walk_over_budget_matches_matrix_walk():
    g = ComponentGraph(2, 12)
    classes = g.twin_classes()
    by_columns = _walk_outcome(g.distance_columns(), classes, 1000)
    assert by_columns == _walk_outcome(g.distance_matrix(), classes, 1000)
    assert by_columns[1:] == (1000, 12, 4095)
    with pytest.raises(BudgetExceeded) as err:
        resolving.metric_dimension_search(g, 1000)
    assert (err.value.evaluated, err.value.lower_bound, err.value.upper_bound) == \
        (1000, 12, 4095)
