import random

import pytest

from conftest import exchange_by_definition
from resolvdim import exchange, resolving
from resolvdim.errors import BadParameters, BudgetExceeded
from resolvdim.graph import ComponentGraph
from resolvdim.intersection import PlainGraph


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


def test_budget_exceeded_without_theorem_flag(g33):
    with pytest.raises(BudgetExceeded):
        exchange.has_exchange_property(g33, budget=1000)


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
