import random

import pytest

from conftest import intersection_graph_by_pairs
from resolvdim import exchange, intersection
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
    return SetFamily([set(rng.sample(tokens, rng.randint(1, 4))) for _ in range(120)])


@pytest.mark.parametrize("kind", ["no members", "one member", "all disjoint",
                                  "one shared token", "integer tokens", "strings"])
def test_intersection_graph_matches_pair_loop(kind):
    fam = _seeded_family(kind)
    assert intersection.intersection_graph(fam) == intersection_graph_by_pairs(fam)


def test_intersection_graph_refuses_families_over_the_cap(monkeypatch):
    # the guard sits before the incidence matrix and its K x K product
    def building(fam):
        raise RuntimeError("built")

    monkeypatch.setattr(intersection, "incidence_matrix", building)
    with pytest.raises(InstanceTooLarge, match=f"at most {MATRIX_CAP} members, got 4097"):
        intersection.intersection_graph(SetFamily([{i} for i in range(MATRIX_CAP + 1)]))
    with pytest.raises(RuntimeError, match="built"):
        intersection.intersection_graph(SetFamily([{i} for i in range(MATRIX_CAP)]))


def test_empty_member_rejected():
    with pytest.raises(EmptyMember):
        SetFamily([{1}, set()])


def test_member_outside_ground_rejected():
    with pytest.raises(BadParameters):
        SetFamily([{1, 9}], ground=[1, 2])


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
