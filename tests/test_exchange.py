import random
from itertools import product
from math import prod

import pytest

from conftest import exchange_by_definition, orbit_by_mixed_radix
from resolvdim import exchange, resolving, twins, verify
from resolvdim.errors import BadParameters, BudgetExceeded
from resolvdim.graph import ComponentGraph
from resolvdim.intersection import PlainGraph
from resolvdim.vectorspace import DEFAULT_VERTEX_CAP


def _as_oracle(report):
    witness = report.witness
    return (report.holds, report.minimal_set_sizes,
            None if witness is None else (witness.w1, witness.r, witness.w2))


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
def test_matches_the_definition_on_component_graphs(q, n):
    g = ComponentGraph(q, n)
    assert _as_oracle(exchange.has_exchange_property(g)) == exchange_by_definition(g)


def _random_graph(seed):
    rng = random.Random(f"exchange:{seed}")
    n = rng.randint(0, 10)
    p = rng.choice([0.2, 0.4, 0.6, 0.8])
    return PlainGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


@pytest.mark.parametrize("seed", range(20))
def test_matches_the_definition_on_random_graphs(seed):
    # disconnected pairs, twins of both kinds and the empty graph included
    g = _random_graph(seed)
    assert _as_oracle(exchange.has_exchange_property(g)) == exchange_by_definition(g)


@pytest.mark.parametrize("seed", range(20))
def test_single_set_checks_on_random_graphs(seed):
    # the certificate's premises on a plain graph (ids 0..N-1): the least
    # colliding pair and least redundant member by the definition, and
    # the twin-class test against the twin classes
    g = _random_graph(seed)
    n, rows = g.vertex_count, g.distance_matrix().tolist()
    rng = random.Random(f"single:{seed}")
    for _ in range(6):
        w = sorted(rng.sample(range(n), rng.randint(0, n)))
        reps = [tuple(row[c] for c in w) for row in rows]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if reps[u] == reps[v]]
        report = resolving.is_resolving(g, w)
        assert report.colliding_pair == (pairs[0] if pairs else None)
        assert resolving.resolves(g, w) == (not pairs)
        if not pairs:
            redundant = next((x for i, x in enumerate(w)
                              if len({r[:i] + r[i + 1:] for r in reps}) == n), None)
            assert report.redundant_vertex == redundant
    classes = g.twin_classes()
    assert all(twins.is_twin_class(g, c) for c in classes if len(c) > 1)
    for a, b in zip(classes, classes[1:]):
        assert not twins.are_twins(g, a[0], b[0])


def test_random_graphs_include_both_verdicts():
    # the witness comparison above is exercised, not only `holds`
    verdicts = {exchange_by_definition(_random_graph(seed))[0] for seed in range(20)}
    assert verdicts == {True, False}


def test_holds_q2_n2(g22):
    report = exchange.has_exchange_property(g22)
    assert report.holds and report.method == "definition-check"
    assert report.minimal_set_sizes == (1, 1)
    assert report.witness is None


def test_fails_q2_n3(g23):
    report = exchange.has_exchange_property(g23)
    assert not report.holds and report.method == "definition-check"
    assert set(report.minimal_set_sizes) == {3, 4}
    assert report.witness is not None


def test_holds_q3_n2(g32):
    report = exchange.has_exchange_property(g32)
    assert report.holds
    assert report.minimal_set_sizes == (5,) * 16


def test_fails_q2_n4(g24):
    report = exchange.has_exchange_property(g24)
    assert not report.holds
    assert 4 in report.minimal_set_sizes and 7 in report.minimal_set_sizes


def test_witness_revalidates(g23):
    report = exchange.has_exchange_property(g23)
    w = report.witness
    assert resolving.is_minimal(g23, w.w1)
    assert resolving.is_minimal(g23, w.w2)
    assert w.r in w.w1 and w.r not in w.w2
    for s in w.w2:
        swapped = tuple(sorted(set(w.w2) - {s} | {w.r}))
        rep = resolving.is_resolving(g23, swapped)
        assert not (rep.is_resolving and rep.is_minimal)


def test_certificate_family_over_the_budget_is_refused(g33):
    # the 2^26 table is refused, and so is the certificate's family of
    # 4,096 sets at budget 1000, from the class sizes alone
    with pytest.raises(BudgetExceeded, match="^minimal-set family has 4096 sets, "
                                             "over the budget 1000$") as err:
        exchange.has_exchange_property(g33, budget=1000)
    assert err.value.evaluated == 0
    report = exchange.has_exchange_property(g33, budget=4096)
    assert report.holds and report.method == "twin-core-certificate"
    assert report.size_counts == ((19, 4096),)
    assert report.minimal_set_sizes == (19,) * 4096


def _orbit(cert):
    """The certificate's family as sorted column tuples: every set that
    omits one member of each class."""
    every = set().union(*cert.classes)
    return sorted(tuple(sorted(every - set(omitted))) for omitted in product(*cert.classes))


def _certified_against_the_table(g):
    """The certificate's family, verdict and sizes against the 2^N table's;
    None when the certificate refuses.  The exchange check's own route to
    the certificate is forced by a budget one below 2^N (on no vertices
    that budget refuses the certificate's one set too)."""
    cert = resolving.twin_core_certificate(g)
    if cert is None:
        return None
    table = exchange.has_exchange_property(g)
    assert table.method == "definition-check"
    ids = g.vertex_ids()
    assert ([tuple(ids[c] for c in w) for w in _orbit(cert)]
            == resolving.enumerate_minimal_resolving_sets(g))
    claimed = (True, (len(cert.core),) * cert.family_size)
    assert claimed == (table.holds, table.minimal_set_sizes)
    if g.vertex_count:
        certified = exchange.has_exchange_property(g, budget=(1 << g.vertex_count) - 1)
        assert certified.method == "twin-core-certificate"
        assert (certified.holds, certified.minimal_set_sizes) == claimed
    return cert


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (7, 1), (8, 1),
                                 (9, 1), (11, 1), (13, 1), (16, 1)])
def test_certificate_matches_the_table_on_component_graphs(q, n):
    assert _certified_against_the_table(ComponentGraph(q, n)) is not None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_refuses_at_q2(n):
    # (2,2) has the singleton class {e1+e2}; at n >= 3 every class is one
    assert resolving.twin_core_certificate(ComponentGraph(2, n)) is None


def _doubled_graph(seed):
    """A seeded G(m, p) with every vertex v doubled by v + m, a true twin
    (adjacent to v) or a false twin, so every twin class has two members
    or more; m <= 8, so N <= 16."""
    rng = random.Random(f"doubled:{seed}")
    m = rng.randint(1, 8)
    p = rng.choice([0.2, 0.4, 0.6, 0.8])
    base = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < p]
    edges = [(a + da, b + db) for a, b in base for da in (0, m) for db in (0, m)]
    edges += [(v, v + m) for v in range(m) if rng.random() < 0.5]
    return PlainGraph(2 * m, edges)


@pytest.mark.parametrize("seed", range(20))
def test_certificate_matches_the_table_on_doubled_random_graphs(seed):
    # with every class of two or more, the core of the true twin classes
    # always resolves, so the certificate decides every one of these
    assert _certified_against_the_table(_doubled_graph(seed)) is not None


@pytest.mark.parametrize("seed", range(20))
def test_certificate_refuses_random_graphs_with_a_singleton_class(seed):
    g = _random_graph(seed)
    singleton = min(map(len, g.twin_classes()), default=2) == 1
    assert (_certified_against_the_table(g) is None) == singleton


def test_random_graphs_include_both_certificate_outcomes():
    outcomes = {resolving.twin_core_certificate(_random_graph(seed)) is None
                for seed in range(20)}
    assert outcomes == {True, False}


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (4, 2), (5, 2), (7, 2)])
def test_certified_corollary_matches_the_orbit_oracle(q, n):
    # one budget unit below the orbit's prod |c| sets the certificate
    # decides the corollary; the oracle lists the orbit and tests each set
    g = ComponentGraph(q, n)
    classes = g.twin_classes()
    total = prod(len(c) for c in classes)
    record, _ = verify.verify_cell(q, n, total - 1, DEFAULT_VERTEX_CAP, False)
    sets = [cols for block, hits in orbit_by_mixed_radix(g.distance_matrix(), classes)
            for cols, hit in zip(block.tolist(), hits.tolist()) if hit]
    spans = all(verify.contains_v_basis(g, [c + 1 for c in w]) for w in sets)
    assert record["corollary"] == {"status": "verified", "minimum_sets": len(sets),
                                   "all_contain_v_basis": spans,
                                   "method": "twin-core-certificate"}
    assert len(sets) == total and spans and record["pass"]


def test_certified_corollary_keeps_the_refusal_when_the_axes_premise_fails(monkeypatch):
    # premise (iv) is sufficient for spanning but not necessary, so when
    # it fails nothing was checked and the orbit's refusal stands
    monkeypatch.setattr(verify, "_axes_in_classes", lambda g, classes: False)
    record, _ = verify.verify_cell(4, 3, 20000, DEFAULT_VERTEX_CAP, False)
    assert record["corollary"] == {"status": "skipped", "reason": "twin-swap orbit has "
                                   "531441 sets, over the budget 20000"}


def test_certified_exchange_counts_its_family_in_the_report():
    # the certificate's family is counted, not listed: `sizes` holds each
    # size once and `size_counts` its number of minimal sets
    section, witness = verify.exchange_section(ComponentGraph(4, 2), 20000)
    assert section.body == {"holds": True, "method": "twin-core-certificate",
                            "sizes": [12], "size_counts": {"12": 81},
                            "expected": True, "match": True}
    assert witness is None


def test_distinct_sizes_shortcut(g22, g23, g24, g32):
    # two minimal sizes, read from the one table of the exchange check
    assert set(exchange.has_exchange_property(g23).minimal_set_sizes) == {3, 4}
    assert len(set(exchange.has_exchange_property(g24).minimal_set_sizes)) >= 2
    assert len(set(exchange.has_exchange_property(g22).minimal_set_sizes)) == 1
    assert len(set(exchange.has_exchange_property(g32).minimal_set_sizes)) == 1
    minimal = resolving.enumerate_minimal_resolving_sets(g23)
    assert min(w for w in minimal if len(w) == 3) == (1, 2, 3)
    assert min(w for w in minimal if len(w) == 4) == (1, 3, 6, 7)


def test_shortcut_pair_implies_failure(g22, g23, g24, g32):
    for g in (g22, g23, g24, g32):
        report = exchange.has_exchange_property(g)
        if len(set(report.minimal_set_sizes)) >= 2:
            assert not report.holds


def test_coordinate_avoiding_set_values(g23):
    assert exchange.coordinate_avoiding_set(2, 3) == (1, 4, 5)
    assert len(exchange.coordinate_avoiding_set(2, 4)) == 7
    assert len(exchange.coordinate_avoiding_set(2, 5)) == 15


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coordinate_avoiding_set_is_minimal(n):
    g = ComponentGraph(2, n)
    w = exchange.coordinate_avoiding_set(2, n)
    assert len(w) == 2 ** (n - 1) - 1
    assert resolving.is_minimal(g, w)


def test_coordinate_avoiding_set_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        exchange.coordinate_avoiding_set(3, 4)
    with pytest.raises(BadParameters):
        exchange.coordinate_avoiding_set(2, 2)


def test_oversized_minimal_set(g23, g24):
    w3 = exchange.oversized_minimal_resolving_set(2, 3)
    assert w3 == (1, 3, 6, 7)
    assert resolving.is_minimal(g23, w3)
    assert len(w3) == 4 > resolving.metric_dimension_formula(2, 3)
    w4 = exchange.oversized_minimal_resolving_set(2, 4)
    assert len(w4) == 7 > resolving.metric_dimension_formula(2, 4)
    assert resolving.is_minimal(g24, w4)
    with pytest.raises(BadParameters):
        exchange.oversized_minimal_resolving_set(2, 2)


def test_trivial_graph_holds():
    report = exchange.has_exchange_property(ComponentGraph(2, 1))
    assert report.holds
    assert report.minimal_set_sizes == (0,)
