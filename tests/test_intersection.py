import random
import tracemalloc

import numpy as np
import pytest

from conftest import intersection_graph_by_pairs
from resolvdim import exchange, intersection, resolving
from resolvdim.errors import BadParameters, EmptyMember, InstanceTooLarge, OutOfRange
from resolvdim.graph import MATRIX_CAP, ComponentGraph
from resolvdim.intersection import PlainGraph, SetFamily


def test_intersection_graph_examples():
    pg = intersection.intersection_graph(SetFamily([{1}, {2}, {1, 2}]))
    assert pg.edges() == [(0, 2), (1, 2)]
    assert intersection.intersection_graph(SetFamily([{1}])).edges() == []
    k3 = intersection.intersection_graph(SetFamily([{1}, {1}, {1}]))
    assert k3.edges() == [(0, 1), (0, 2), (1, 2)]


def _seeded_family(kind):
    rng = random.Random(f"intersection-graph:{kind}")
    tokens = [f"t{i}" for i in range(60)]
    rng.shuffle(tokens)
    if kind == "no members":
        return SetFamily([])
    if kind == "one member":
        return SetFamily([set(rng.sample(tokens, 3))])
    if kind == "all disjoint":
        return SetFamily([{tokens[2 * i], tokens[2 * i + 1]} for i in range(30)])
    if kind == "one shared token":
        return SetFamily([{"shared", tokens[i]} for i in range(40)])
    if kind == "integer tokens":
        return SetFamily([set(rng.sample(range(40), rng.randint(1, 5)))
                          for _ in range(80)])
    if kind == "tokens over 256 holders":
        # 300^2 and 200^2 holder pairs pass PAIR_CHUNK: one token per chunk
        return SetFamily([{"hub"} | ({"rim"} if i % 3 else set())
                          | set(rng.sample(tokens, rng.randint(0, 2))) for i in range(300)])
    if kind == "equal holder counts":
        # 130 tokens of 40 holders: chunks of 40, 40, 40 and 10 tokens
        members = [{f"own{i}"} for i in range(300)]
        for j in range(130):
            for i in rng.sample(range(300), 40):
                members[i].add(f"s{j}")
        return SetFamily(members)
    if kind == "duplicate members":
        base = [set(rng.sample(tokens, rng.randint(1, 3))) for _ in range(40)]
        members = [m for m in base for _ in range(rng.randint(1, 3))]
        rng.shuffle(members)
        return SetFamily(members)
    if kind == "one-holder tokens":
        # a token of its own for every member; a third also share one of 10
        return SetFamily([{f"own{i}"} | ({f"s{rng.randrange(10)}"} if rng.random() < 0.33
                                         else set()) for i in range(90)])
    if kind == "edge tokens":
        # a realization of G(30, 0.2): every edge token has exactly two holders
        members = [{f"p{v}"} for v in range(30)]
        for u in range(30):
            for v in range(u + 1, 30):
                if rng.random() < 0.2:
                    members[u].add(f"e{u}-{v}")
                    members[v].add(f"e{u}-{v}")
        return SetFamily(members)
    return SetFamily([set(rng.sample(tokens, rng.randint(1, 4))) for _ in range(120)])


FAMILY_KINDS = ["no members", "one member", "all disjoint", "one shared token",
                "integer tokens", "strings", "tokens over 256 holders",
                "equal holder counts", "duplicate members", "one-holder tokens",
                "edge tokens"]


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_intersection_graph_matches_pair_loop(kind):
    fam = _seeded_family(kind)
    assert intersection.intersection_graph(fam) == intersection_graph_by_pairs(fam)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_holder_chunks_list_every_token_once_within_the_pair_cap(kind):
    fam = _seeded_family(kind)
    chunks = list(intersection._holder_chunks(fam))
    for rows in chunks:
        assert len(rows) == 1 or rows.size * rows.shape[1] <= intersection.PAIR_CHUNK
    got = sorted(holders for rows in chunks for holders in map(tuple, rows.tolist()))
    want = sorted(tuple(i for i, m in enumerate(fam.members) if t in m)
                  for t in set().union(*fam.members))
    assert got == want


def test_holder_chunk_shapes():
    shapes = [rows.shape for rows in intersection._holder_chunks(
        _seeded_family("tokens over 256 holders"))]
    assert (1, 300) in shapes and (1, 200) in shapes
    shapes = [rows.shape for rows in intersection._holder_chunks(
        _seeded_family("equal holder counts"))]
    assert [s for s in shapes if s[1] == 40] == [(40, 40)] * 3 + [(10, 40)]
    assert (300, 1) in shapes


_REAL_HOLDER_CHUNKS = intersection._holder_chunks
# (name, family kind it must fail on, patch), each patch a fault in
# `intersection_graph` that the pair check must catch
_MUTANTS = [
    ("diagonal not cleared", "strings",
     lambda mp: mp.setattr(np, "fill_diagonal", lambda a, val: None)),
    ("last partial chunk of a group dropped", "equal holder counts",
     lambda mp: mp.setattr(intersection, "_holder_chunks", lambda fam: (
         rows for rows in _REAL_HOLDER_CHUNKS(fam)
         if len(rows) == max(1, intersection.PAIR_CHUNK // rows.shape[1] ** 2)))),
    ("two-holder groups skipped", "edge tokens",
     lambda mp: mp.setattr(intersection, "_holder_chunks", lambda fam: (
         rows for rows in _REAL_HOLDER_CHUNKS(fam) if rows.shape[1] != 2))),
]


@pytest.mark.parametrize("name, kind, patch", _MUTANTS, ids=[m[0] for m in _MUTANTS])
def test_intersection_graph_mutants_fail_the_pair_check(monkeypatch, name, kind, patch):
    fam = _seeded_family(kind)
    assert intersection.intersection_graph(fam) == intersection_graph_by_pairs(fam)
    patch(monkeypatch)
    if name == "diagonal not cleared":
        # `PlainGraph` refuses a True diagonal before any pair is compared
        with pytest.raises(BadParameters, match="with a False diagonal$"):
            intersection.intersection_graph(fam)
        return
    assert intersection.intersection_graph(fam) != intersection_graph_by_pairs(fam)


def test_intersection_graph_refuses_families_over_the_cap(monkeypatch):
    # the guard sits before the holder pass and the K x K matrix
    def building(fam):
        raise RuntimeError("built")

    over = SetFamily([{i} for i in range(MATRIX_CAP + 1)])
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge, match=f"at most {MATRIX_CAP} members, got 4097"):
            intersection.intersection_graph(over)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the 4097 x 4097 matrix alone would be 16 MB
    monkeypatch.setattr(intersection, "_holder_chunks", building)
    with pytest.raises(InstanceTooLarge, match=f"at most {MATRIX_CAP} members, got 4097"):
        intersection.intersection_graph(over)
    with pytest.raises(RuntimeError, match="built"):
        intersection.intersection_graph(SetFamily([{i} for i in range(MATRIX_CAP)]))


def test_empty_member_rejected():
    with pytest.raises(EmptyMember):
        SetFamily([{1}, set()])


def test_member_outside_ground_rejected():
    with pytest.raises(BadParameters):
        SetFamily([{1, 9}], ground=[1, 2])


def test_mixed_token_types_rejected():
    # no default order on ints and strings: a usage error naming the types,
    # not a bare TypeError; an explicit ground set still works
    with pytest.raises(BadParameters, match=r"^tokens of types int, str have no common order"):
        SetFamily([{1}, {"a"}])
    assert SetFamily([{1}, {"a"}], ground=["a", 1]).ground == ("a", 1)


def test_powerset_family():
    fam = intersection.powerset_family(2)
    assert [set(m) for m in fam.members] == [{1}, {2}, {1, 2}]
    assert len(intersection.powerset_family(3)) == 7
    assert [set(m) for m in intersection.powerset_family(1).members] == [{1}]
    with pytest.raises(BadParameters):
        intersection.powerset_family(0)
    with pytest.raises(BadParameters):
        intersection.powerset_family(17)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_powerset_correspondence(n):
    assert intersection.powerset_matches_component_graph(n)


def _mutant_powerset(change):
    real = intersection.powerset_family

    def family(n):
        fam = real(n)
        members = [set(m) for m in fam.members]
        change(members)
        return SetFamily(members, ground=fam.ground)
    return family


@pytest.mark.parametrize("change", [
    lambda members: members[-1].discard(1),    # {1,2,3} loses token 1
    lambda members: members[0].add(2),         # {1} gains token 2
    lambda members: members.reverse(),         # members out of mask order
])
def test_correspondence_rejects_mutant_family(monkeypatch, change):
    monkeypatch.setattr(intersection, "powerset_family", _mutant_powerset(change))
    assert not intersection.powerset_matches_component_graph(3)


def test_incidence_matrix():
    fam = SetFamily([{"a"}, {"b", "c"}], ground=["c", "b", "a"])
    assert intersection.incidence_matrix(fam).tolist() == [[False, False, True],
                                                           [True, True, False]]


def test_realize_single_edge():
    pg = PlainGraph(2, [(0, 1)])
    fam = intersection.as_intersection_family(pg)
    assert fam.members[0] & fam.members[1]
    assert intersection.intersection_graph(fam) == pg


def test_realize_empty_graph():
    pg = PlainGraph(3, [])
    fam = intersection.as_intersection_family(pg)
    assert all(not (a & b) for i, a in enumerate(fam.members)
               for b in fam.members[i + 1:])
    assert intersection.intersection_graph(fam) == pg


def test_realize_component_graph_roundtrip(g23):
    pg = PlainGraph(g23.vertex_count, [(u - 1, v - 1) for u, v in g23.edges()])
    assert len(pg.edges()) == 15
    assert pg.edges() == [(u - 1, v - 1) for u, v in g23.edges()]
    fam = intersection.as_intersection_family(pg)
    assert intersection.intersection_graph(fam).edges() == pg.edges()


def test_realize_random_graphs_roundtrip():
    rng = random.Random("roundtrip")
    for _ in range(100):
        n = rng.randrange(1, 13)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        pg = PlainGraph(n, edges)
        fam = intersection.as_intersection_family(pg)
        assert intersection.intersection_graph(fam).edges() == edges
        assert list(fam.members) == [
            {f"e{a}-{b}" for a, b in edges if v in (a, b)} | {f"p{v}"}
            for v in range(n)]


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 3), (4, 4)])
def test_powerset_intersection_dimension(n, expected):
    assert intersection.powerset_intersection_dimension(n) == expected


def test_powerset_dimension_rejects_small_n():
    with pytest.raises(BadParameters):
        intersection.powerset_intersection_dimension(1)


@pytest.mark.parametrize("n", [2, 3])
def test_exchange_verdict_matches_component_graph(n):
    pg = intersection.intersection_graph(intersection.powerset_family(n))
    on_family = exchange.has_exchange_property(pg)
    on_graph = exchange.has_exchange_property(ComponentGraph(2, n))
    assert on_family.holds == on_graph.holds
    assert sorted(on_family.minimal_set_sizes) == sorted(on_graph.minimal_set_sizes)


def test_family_text_roundtrip():
    fam = intersection.powerset_family(3)
    text = intersection.family_to_text(fam)
    again = intersection.parse_family(text)
    assert [set(map(str, m)) for m in fam.members] == [set(m) for m in again.members]


def test_parse_family_with_comments():
    fam = intersection.parse_family("# heading\n1,2\n\nx\n# tail\n")
    assert [set(m) for m in fam.members] == [{"1", "2"}, {"x"}]
    with pytest.raises(EmptyMember):
        intersection.parse_family("1,,2\n")


def test_plain_graph_distance_matrix():
    pg = PlainGraph(4, [(0, 1), (1, 2)])
    dist = pg.distance_matrix()
    assert dist[0, 2] == 2
    assert dist[0, 3] == 5  # sentinel: vertex_count + 1 marks unreachable
    assert dist[3, 3] == 0


def test_plain_graph_rejects_a_negative_vertex_count():
    with pytest.raises(BadParameters, match="vertex count must be non-negative"):
        PlainGraph(-1, [])


def test_plain_graph_rejects_the_first_bad_edge_in_input_order():
    with pytest.raises(BadParameters, match="^self-loop at vertex 1$"):
        PlainGraph(3, [(0, 2), (1, 1), (0, 5)])
    with pytest.raises(OutOfRange, match=r"^edge \(0,5\) outside 0..2$"):
        PlainGraph(3, [(0, 2), (0, 5), (1, 1)])
    with pytest.raises(OutOfRange, match=r"^edge \(-1,0\) outside 0..2$"):
        PlainGraph(3, [(-1, 0)])
    # the self-loop test comes before the range test
    with pytest.raises(BadParameters, match="^self-loop at vertex 7$"):
        PlainGraph(3, [(7, 7)])


def test_plain_graph_rejects_a_matrix_that_is_not_an_adjacency_matrix():
    # the path 0-1-2 as its upper triangle plus a True diagonal entry: held
    # as is, it gave asymmetric distances and the dimension witness (1,)
    T, F = True, False
    path = np.array([[F, T, F], [T, F, T], [F, T, F]])
    one_sided = np.triu(path)
    looped = path.copy()
    looped[0, 0] = T
    for bad in (one_sided, looped, one_sided | looped):
        with pytest.raises(BadParameters, match="^adjacency matrix must be symmetric "
                                                "with a False diagonal$"):
            PlainGraph(3, bad)
    assert resolving.metric_dimension_search(PlainGraph(3, path)) == (1, (0,))


@pytest.mark.parametrize("pair", [(1, 2, 3), (0,), ("a", 1), (0.5, 1), ()])
def test_plain_graph_rejects_pairs_that_are_not_two_integers(pair):
    with pytest.raises(BadParameters, match="edges must be pairs of integers"):
        PlainGraph(4, [pair])
    with pytest.raises(BadParameters, match="edges must be pairs of integers"):
        PlainGraph(4, [(0, 1), pair])


def test_plain_graph_refuses_more_than_the_matrix_cap():
    def unread():
        raise RuntimeError("edges read")
        yield

    # refused before the edges are read or the N x N matrix is allocated
    with pytest.raises(InstanceTooLarge, match=f"at most {MATRIX_CAP} vertices, got 40000"):
        PlainGraph(40000, unread())
    with pytest.raises(InstanceTooLarge, match=f"got {MATRIX_CAP + 1}$"):
        PlainGraph(MATRIX_CAP + 1, [])
    assert PlainGraph(MATRIX_CAP, [(0, MATRIX_CAP - 1)]).distance_matrix()[0, 1] == MATRIX_CAP + 1


def test_plain_graph_views_read_the_matrix():
    pg = PlainGraph(4, iter([(2, 1), (0, 1), (1, 2)]))
    assert pg.vertex_count == 4
    assert pg.edges() == [(0, 1), (1, 2)]
    assert pg.neighbors() == [[1], [0, 2], [1], []]
    assert pg.adjacency_matrix().tolist() == [[False, True, False, False],
                                              [True, False, True, False],
                                              [False, True, False, False],
                                              [False, False, False, False]]
    assert pg == PlainGraph(4, [(0, 1), (1, 2)])
    assert pg != PlainGraph(5, [(0, 1), (1, 2)])
    assert repr(pg) == "PlainGraph(4 vertices, 2 edges)"
    assert [(u, later.tolist()) for u, later in pg.later_neighbors()] == [
        (0, [1]), (1, [2]), (2, []), (3, [])]


def test_plain_graph_repr_counts_without_listing_edges(monkeypatch):
    def listing(self):
        raise RuntimeError("edges listed")

    pg = PlainGraph(5, [(0, 4), (1, 2), (2, 4)])
    monkeypatch.setattr(PlainGraph, "edges", listing)
    assert repr(pg) == "PlainGraph(5 vertices, 3 edges)"


def test_plain_graph_holds_a_bool_matrix_as_is():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 2] = adj[2, 0] = True
    pg = PlainGraph(3, adj)
    assert pg.adjacency_matrix() is adj
    assert pg == PlainGraph(3, [(0, 2)])
    assert pg.edges() == [(0, 2)]
    # a bool array of any other shape is read as edges, and refused as before
    with pytest.raises(BadParameters, match="edges must be pairs of integers"):
        PlainGraph(4, adj)
    with pytest.raises(BadParameters, match="edges must be pairs of integers"):
        PlainGraph(2, np.ones((2, 3), dtype=bool))


def test_plain_graph_edges_come_row_by_row_in_ascending_order():
    rng = random.Random("edges-order")
    for _ in range(20):
        n = rng.randrange(1, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        rng.shuffle(pairs)
        pg = PlainGraph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
        assert pg.edges() == sorted(pairs)
        assert repr(pg) == f"PlainGraph({n} vertices, {len(pairs)} edges)"
