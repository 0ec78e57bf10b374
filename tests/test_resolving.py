import random
import time
import tracemalloc
from itertools import combinations, islice
from math import prod

import numpy as np
import pytest

from conftest import (desk_instances, int64_digits, kernel_status, least_equal_rows_by_dict,
                      minimality_by_definition, orbit_by_mixed_radix, orbit_pairs,
                      overflowing_digit_matrix, partition_with_a_wide_class, random_graph,
                      random_partition, representation, resolves_by_definition, status_by_rows,
                      walk_outcome)
from test_routes import (ALL_HITS_CELLS, DIM, K_SUBSETS, MINIMAL, MINIMUM, ORBIT, ORBIT_CELLS,
                         SINGLE, TABLE, folded, qn, seeded)
from resolvdim import exchange, resolving, twins
from resolvdim.errors import (BadParameters, BudgetExceeded, EmptySet,
                              NotResolving, OutOfRange, UnsupportedOrder)
from resolvdim.graph import BLOCK_CELLS, ComponentGraph, bfs_distances
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


def test_search_budget_spent_after_a_level():
    # random_graph(0): N = 6 and dim 3, and the walk starts at k = 2.  At
    # budget 11 the budget runs out as level 2 ends with no hit, so the
    # refusal names k = 3 as the lower bound
    g = random_graph(0)
    with pytest.raises(BudgetExceeded, match="^budget spent after finishing level k=2$") as err:
        resolving.find_min_resolving_for_matrix(g.distance_matrix(), g.twin_classes(), 11)
    assert (err.value.evaluated, err.value.lower_bound, err.value.upper_bound) == (11, 3, 6)


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


# the pairwise tests that the route matrix folded (see `folded`)
_MINIMAL_TABLE = "enumerate_minimal_resolving_sets and has_exchange_property"
_TABLES = {TABLE: ["resolving_status_by_mask", "status_by_mask_by_scan"]}
_ALL_HITS = {K_SUBSETS: ["all_resolving_k_subsets", "resolving_sets_by_scan"]}
test_front_ends_agree_on_powerset_graph = folded(
    {DIM: ["metric_dimension_search", "metric_dimension_search on the powerset graph"],
     MINIMUM: ["minimum_resolving_sets", "enumerate_minimum_resolving_sets on the powerset graph"],
     MINIMAL: [_MINIMAL_TABLE, "enumerate_minimal_resolving_sets on the powerset graph"]},
    {str(n): [f"2-{n}"] for n in (2, 3, 4)})
test_mask_table_consistency = folded(
    {**_TABLES, MINIMAL: [_MINIMAL_TABLE, "exchange_by_definition"]}, ["2-3", "2-4"])
test_wide_path_matches_definition = folded(_ALL_HITS, ["path"])
test_walk_matches_plain_scan = folded(
    {DIM: ["find_min_resolving_for_matrix", "plain_first_hit", "metric_dimension_formula"]},
    qn((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)))
test_walk_matches_plain_scan_on_powerset_graph = folded(
    {DIM: ["metric_dimension_search on the powerset graph", "plain_first_hit",
           "powerset_intersection_dimension"]}, {str(n): [f"2-{n}"] for n in (3, 4)})
test_walk_matches_plain_scan_on_random_graphs = folded(
    {DIM: ["find_min_resolving_for_matrix", "plain_first_hit"]}, seeded("walk:{}", range(40)))
test_all_hits_walk_matches_plain_scan = folded(
    _ALL_HITS, {f"{q}-{n}-{k}": [f"{q}-{n}"] for q, n, k in ALL_HITS_CELLS})
test_all_hits_walk_matches_plain_scan_on_random_graphs = folded(
    _ALL_HITS, {f"{s}-{t}": [f"all-hits:{s}:{t}"] for t in (True, False) for s in range(6)})
test_mask_table_matches_plain_scan = folded(_TABLES, qn((2, 3), (3, 2), (2, 4), (4, 2)))
test_mask_table_matches_plain_scan_on_random_graphs = folded(
    _TABLES, seeded("mask-table:{}", range(12, 17)))
test_orbit_matches_plain_scan = folded(
    {MINIMUM: ["minimum_resolving_sets", "resolving_sets_by_scan at k = dim",
               "enumerate_minimum_resolving_sets"]},
    qn((2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)))
test_orbit_walk_matches_mixed_radix_orbit = folded(
    {ORBIT: ["_orbit", "orbit_by_mixed_radix", "prod |c| over the twin classes"]},
    qn(*ORBIT_CELLS))
test_resolves_matches_is_resolving = folded({SINGLE: ["is_resolving", "resolves"]}, ["2-3"])
test_kernel_matches_rows_around_one_packed_pass = folded(
    {SINGLE: ["_collision", "status_by_rows"]}, qn((7, 2), (3, 4)))
test_kernel_matches_rows_on_the_first_two_group_sets = folded(
    {SINGLE: ["_collision", "status_by_rows"]}, ["path"])
test_colliding_pair_matches_rows = folded(
    {SINGLE: ["is_resolving", "least_equal_rows_by_dict"]}, qn((2, 3), (3, 2)))
test_column_walk_matches_matrix_walk = folded(
    {DIM: ["find_min_resolving_for_matrix", "find_min_resolving_for_matrix on columns",
           "metric_dimension_search"]}, qn(*desk_instances(1023)))
test_single_removals_match_definition = folded(
    {SINGLE: ["is_resolving", "resolves_by_definition", "minimality_by_definition"]},
    qn((2, 3), (2, 4), (3, 2), (3, 3), (4, 2)))


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
    # the walk at k = 0 yields the empty set, which resolves N <= 1 only
    dist = PlainGraph(n, edges).distance_matrix()
    assert resolving.all_resolving_k_subsets(dist, 0) == expected


def test_minimum_sets(g32):
    # the orbit comes in class-product order; the list is sorted
    mins = resolving.enumerate_minimum_resolving_sets(g32)
    assert len(mins) == 16
    assert mins == sorted(set(mins))
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


# ---------------------------------------------------------------------------
# the pruned walk and the product walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (5, 3), (3, 4)])
def test_walk_starts_at_the_dimension(q, n):
    # the twin bound is attained: the walk goes straight down one branch
    g = ComponentGraph(q, n)
    engine = resolving._Engine(g.distance_matrix())
    k = resolving.metric_dimension_formula(q, n)
    witness = next(engine.walk(k, g.twin_classes()))
    assert tuple(c + 1 for c in witness) == resolving.canonical_metric_basis(q, n)
    # one node per pick, the witness the first leaf tried
    assert engine.evaluated == k


def test_walk_decides_leaves_without_the_kernel(monkeypatch):
    # the walk and the kernel are independent routes: no leaf of the
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

    monkeypatch.setattr(resolving, "_collision", kernel)
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


def test_walk_frames_hold_uint16_ranks():
    # (4,5): the walk is k = 992 frames deep over N = 1023 rows.  Its
    # labels take the narrowest type that holds N, so the frames take
    # k * N * 2 bytes; with int32 labels the peak was k * N * 4.6 bytes
    g = ComponentGraph(4, 5)
    dist, classes = g.distance_matrix(), g.twin_classes()
    tracemalloc.start()
    try:
        k, _ = resolving.find_min_resolving_for_matrix(dist, classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 992 and peak < k * len(dist) * 3


def test_walk_frames_stop_where_the_budget_does():
    # (16,3): the walk starts at k = 4088 over N = 4095 rows, 33 MB of
    # frames for the whole depth; a budget of 10 reaches 11 depths at most
    g = ComponentGraph(16, 3)
    source, classes = g.distance_columns(), g.twin_classes()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="after 10 subset"):
            resolving.find_min_resolving_for_matrix(source, classes, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_walk_key_is_int64_for_any_entry():
    # the frame ranks are widened before the refinement key is formed,
    # so an entry past int32 is read exactly; column 1 resolves
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


def _assert_orbit_matches_oracle(dist, classes):
    """The walk's (set, status) pairs are the mixed-radix orbit's, one
    budget unit each; returns the statuses seen."""
    walk = resolving._Engine(dist)
    got = orbit_pairs(resolving._orbit(walk, classes))
    assert got == orbit_pairs(orbit_by_mixed_radix(dist, classes))
    assert walk.evaluated == len(got) == prod(len(c) for c in classes)
    return {hit for _, hit in got}


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (4, 2), (5, 2), (2, 4)])
def test_orbit_walk_matches_on_random_partitions(q, n):
    # classes that are not twins: the sets of one orbit need not resolve
    # together, so each status is checked on its own
    dist = ComponentGraph(q, n).distance_matrix()
    rng = random.Random(f"orbit:{q}:{n}")
    seen = set()
    tried = 0
    while tried < 12:
        classes = random_partition(len(dist), rng)
        if prod(len(c) for c in classes) > 20_000:
            continue
        tried += 1
        seen |= _assert_orbit_matches_oracle(dist, classes)
    assert seen == {False, True}


@pytest.mark.parametrize("q,n", [(3, 3), (7, 2), (16, 2)])
def test_orbit_traced_peak(q, n):
    # the walk holds one slice of at most `BLOCK_CELLS` labels per level
    # it visits; the mixed-radix orbit peaked at 2.7 and 3.2 MB here
    g = ComponentGraph(q, n)
    k = resolving.metric_dimension_formula(q, n)
    tracemalloc.start()
    try:
        shapes = [block.shape for block in resolving.minimum_resolving_sets(g, k)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {width for _, width in shapes} == {k}
    assert sum(b for b, _ in shapes) == prod(len(c) for c in g.twin_classes())
    assert peak <= 1.5 * 2 ** 20


def test_orbit_walk_splits_a_node_with_more_children_than_a_batch():
    # (27,2): 728 rows, so a batch holds 90 sets, fewer than the 676
    # members of the last class; the first node above it, which omits
    # the least member of both classes of 26, is split into eight runs
    # whose sets each omit one member of the last class, and each set's
    # status is the kernel's
    g = ComponentGraph(27, 2)
    dist, classes = g.distance_matrix(), g.twin_classes()
    walk = resolving._Engine(dist, budget=1 << 20)
    assert walk.batch == 90
    assert sorted(map(len, classes)) == [26, 26, 676]
    got = list(islice(resolving._orbit(walk, classes), 8))
    assert [len(cols) for cols, _ in got] == [90] * 7 + [46]
    small = [c[0] for c in classes if len(c) == 26]
    wide = next(c for c in classes if len(c) == 676)
    want = np.array([[c for c in range(len(dist)) if c not in {*small, x}] for x in wide])
    assert orbit_pairs(got) == orbit_pairs([(want, status_by_rows(dist, want))])
    assert walk.evaluated == 676


def test_orbit_walk_splits_a_class_wider_than_a_batch():
    # (2,9): 511 rows, so a batch holds 128 sets, fewer than the members
    # of the wide class: its node is split into runs of its children,
    # and the whole orbit matches the oracle's
    dist = ComponentGraph(2, 9).distance_matrix()
    classes = partition_with_a_wide_class(len(dist), random.Random("orbit:2:9"))
    assert resolving._Engine(dist).batch == 128
    assert max(map(len, classes)) >= 200
    _assert_orbit_matches_oracle(dist, classes)


def test_orbit_over_budget_raises_before_listing(monkeypatch):
    # refused from the class sizes, before any distance is read
    g = ComponentGraph(3, 3)

    def refuse(self):
        raise AssertionError("a distance was read before the orbit was admitted")

    monkeypatch.setattr(ComponentGraph, "distance_columns", refuse)
    sets = resolving.minimum_resolving_sets(g, 19, budget=4095)
    with pytest.raises(BudgetExceeded, match="orbit has 4096 sets") as err:
        next(sets)
    assert err.value.evaluated == 0


def test_orbit_reads_no_distance_matrix(monkeypatch):
    # the orbit reads `g.distance_columns()`, computed from the skeletons
    g = ComponentGraph(3, 3)

    def refuse(self):
        raise AssertionError("the orbit read the N x N matrix")

    monkeypatch.setattr(ComponentGraph, "distance_matrix", refuse)
    sets = [w for block in resolving.minimum_resolving_sets(g, 19) for w in block.tolist()]
    assert len(set(map(tuple, sets))) == prod(len(c) for c in g.twin_classes()) == 4096


def test_minimum_sets_above_the_twin_bound_raise_the_walks_budget_error():
    # (2,4) has dimension 4 above its twin bound 0: the sets come from the
    # pruned walk, which lists all of them in 467 nodes and stops after
    # as many as the budget allows
    g = ComponentGraph(2, 4)
    assert [b.tolist() for b in resolving.minimum_resolving_sets(g, 4, budget=467)] == \
        [[[0, 1, 3, 7]]]
    with pytest.raises(BudgetExceeded,
                       match="^search stopped after 466 subset evaluations$") as err:
        next(resolving.minimum_resolving_sets(g, 4, budget=466))
    assert (err.value.evaluated, err.value.budget) == (466, 466)
    assert (err.value.lower_bound, err.value.upper_bound) == (4, 15)


def test_enumerate_minimum_refuses_the_orbit_before_the_matrix(monkeypatch):
    # (3,3): the walk decides k = 19 in 19 nodes, within the budget of
    # 4095, but the orbit has 4096 sets; no N x N view is built, and the
    # only distance columns read are the walk's
    g = ComponentGraph(3, 3)
    real, read = ComponentGraph.distance_columns, []

    def refuse(self):
        raise AssertionError("an N x N view was built")

    def counted(self):
        read.append(self)
        return real(self)

    monkeypatch.setattr(ComponentGraph, "distance_matrix", refuse)
    monkeypatch.setattr(ComponentGraph, "adjacency_matrix", refuse)
    monkeypatch.setattr(ComponentGraph, "distance_columns", counted)
    assert resolving.metric_dimension_search(g, 4095)[0] == 19
    assert len(read) == 1
    with pytest.raises(BudgetExceeded,
                       match="^twin-swap orbit has 4096 sets, over the budget 4095$"):
        resolving.enumerate_minimum_resolving_sets(g, 4095)
    assert len(read) == 2


def test_single_set_checks_refuse_ids_outside_the_graph(g23):
    # id 0 would read column -1, the last vertex, were it not refused
    for check in (resolving.resolves, resolving.is_resolving, twins.is_twin_class):
        for w, bad in (([0, 1], 0), ([1, 8], 8)):
            with pytest.raises(OutOfRange, match=f"^vertex id {bad} outside 1..7$"):
                check(g23, w)


def test_resolves_on_a_wide_basis_reads_columns_in_place():
    # the (8,4) canonical basis, 4,080 of 4,095 vertices: keying a copied
    # N x k block of its distances peaked at 34.9 MiB traced
    g = ComponentGraph(8, 4)
    basis = resolving.canonical_metric_basis(8, 4)
    tracemalloc.start()
    try:
        assert resolving.resolves(g, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# the column-group kernel against the detectors it replaced
# ---------------------------------------------------------------------------

def test_kernel_matches_rows_on_orbit_batches():
    # (4,3): the orbit's sets have 56 columns, more than one packed pass holds
    g = ComponentGraph(4, 3)
    dist = g.distance_matrix()
    engine = resolving._Engine(dist)
    assert int64_digits(engine.base) < 56
    for cols, _ in islice(orbit_by_mixed_radix(dist, g.twin_classes(), engine.batch), 3):
        assert np.array_equal(kernel_status(engine, cols), status_by_rows(dist, cols))


def test_kernel_ranks_before_an_overflowing_digit():
    # a kernel that never re-ranks reads [False] here (see the matrix's
    # docstring and the `kernel-never-re-ranks` mutant)
    dist = overflowing_digit_matrix()
    cols = np.array([[0, 1]])
    engine = resolving._Engine(dist)
    assert engine.base == 2 ** 40 + 1
    assert kernel_status(engine, cols).tolist() == [True]
    assert status_by_rows(dist, cols).tolist() == [True]


def test_colliding_pair_matches_rows_on_wide_sets():
    # (7,3): each set has 334 columns, ten groups of the kernel
    g = ComponentGraph(7, 3)
    basis = resolving.canonical_metric_basis(7, 3)
    dist = g.distance_matrix()
    for x in basis:
        w = [v for v in basis if v != x]
        u, v = least_equal_rows_by_dict(dist[:, np.array(w) - 1])
        assert resolving.is_resolving(g, w).colliding_pair == (u + 1, v + 1)


def test_kernel_reads_blocks_within_the_batch_cells():
    # (7,3): N = 342, so a batch is 191 columns.  A set of 200 columns is
    # read 191 columns, then 9, and each read stays within `BLOCK_CELLS`
    dist = ComponentGraph(7, 3).distance_matrix()
    engine = resolving._Engine(dist)
    assert engine.batch == 191
    reads, column = [], engine.column
    engine.column = lambda c: reads.append(len(c)) or column(c)
    cols = np.array([random.Random("blocks:1").sample(range(len(dist)), 200)])
    assert np.array_equal(kernel_status(engine, cols), status_by_rows(dist, cols))
    assert reads == [191, 9]
    assert max(reads) * len(dist) <= BLOCK_CELLS


def test_column_walk_over_budget_matches_matrix_walk():
    g = ComponentGraph(2, 12)
    classes = g.twin_classes()
    by_columns = walk_outcome(g.distance_columns(), classes, 1000)
    assert by_columns == walk_outcome(g.distance_matrix(), classes, 1000)
    assert by_columns[1:] == (1000, 12, 4095)
    with pytest.raises(BudgetExceeded) as err:
        resolving.metric_dimension_search(g, 1000)
    assert (err.value.evaluated, err.value.lower_bound, err.value.upper_bound) == \
        (1000, 12, 4095)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_single_removals_of_sets_of_at_most_two_members(q, n):
    # k = 0 has no removal, k = 1 one removal to the empty set, which
    # resolves only N = 1; every such set of each graph, against the
    # definition: the status, and when it resolves, minimality and the
    # least redundant member from each single removal
    g = ComponentGraph(q, n)
    for k in range(3):
        for w in combinations(g.vertex_ids(), k):
            rep = resolving.is_resolving(g, w)
            assert rep.is_resolving == resolves_by_definition(g, w)
            assert (rep.is_minimal, rep.redundant_vertex) == (
                minimality_by_definition(g, w) if rep.is_resolving else (False, None))


def test_single_removals_of_a_set_wider_than_a_batch():
    # (2,9): 511 rows, so a batch holds 128 sets and the 256 removals of
    # the minimal coordinate-avoiding set plus e1+...+e9 come in two
    # runs; its least redundant member, e1+...+e7+e9, is the 255th (the
    # route matrix holds the set against the definition)
    g = ComponentGraph(2, 9)
    w = exchange.coordinate_avoiding_set(2, 9) + (511,)
    assert resolving._Engine(g.distance_columns()).batch == 128
    rep = resolving.is_resolving(g, w)
    assert rep.is_resolving and not rep.is_minimal
    assert sorted(w).index(rep.redundant_vertex) == 254


def test_minimality_of_the_2_12_coordinate_avoiding_set_is_small():
    # 2,047 members at N = 4095: the kept table is sorted 16 rows at a
    # time, 128 batches.  The table itself, 16.8 MB, is nearly the whole
    # peak; with a copied N x k block of the set's distances beside it
    # the peak was 32.3 MiB
    g = ComponentGraph(2, 12)
    w = exchange.coordinate_avoiding_set(2, 12)
    tracemalloc.start()
    try:
        rep = resolving.is_resolving(g, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.is_resolving and rep.is_minimal
    assert peak < 24 * 2 ** 20


def test_minimality_of_a_wide_basis_is_fast_and_small():
    # (4,5) canonical basis, 992 members, whose removals are one orbit
    # class; keying each removal on its k - 1 columns took 3.5-4.3 s and
    # 12.6 MB traced here
    g = ComponentGraph(4, 5)
    basis = resolving.canonical_metric_basis(4, 5)
    start = time.perf_counter()
    assert resolving.is_minimal(g, basis)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        assert resolving.is_minimal(g, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
