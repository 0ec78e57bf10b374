from itertools import islice

import pytest

from conftest import random_graph
from test_routes import MINIMAL, MINIMUM, SINGLE, TWINS, answers, folded, qn, seeded
from resolvdim import exchange, resolving, verify
from resolvdim.errors import BadParameters, BudgetExceeded
from resolvdim.graph import ComponentGraph
from resolvdim.vectorspace import DEFAULT_VERTEX_CAP


# the pairwise tests that the route matrix folded (see `folded`)
_BY_DEFINITION = {MINIMAL: ["enumerate_minimal_resolving_sets and has_exchange_property",
                            "exchange_by_definition"]}
_CERTIFIED = {MINIMAL: ["enumerate_minimal_resolving_sets and has_exchange_property",
                        "twin_core_certificate", "has_exchange_property by the certificate"]}
test_matches_the_definition_on_component_graphs = folded(
    _BY_DEFINITION, qn((2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)))
test_matches_the_definition_on_random_graphs = folded(
    _BY_DEFINITION, seeded("exchange:{}", range(20)))
test_single_set_checks_on_random_graphs = folded(
    {SINGLE: ["is_resolving", "resolves", "least_equal_rows_by_dict", "resolves_by_definition",
              "minimality_by_definition"],
     TWINS: ["is_twin_class", "are_twins on consecutive members", "one class of twin_classes"]},
    seeded("exchange:{}", range(20)))
test_certificate_matches_the_table_on_component_graphs = folded(
    _CERTIFIED, qn((3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (7, 1), (8, 1), (9, 1), (11, 1),
                   (13, 1), (16, 1)))
test_certificate_matches_the_table_on_doubled_random_graphs = folded(
    _CERTIFIED, seeded("doubled:{}", range(20)))
test_certified_corollary_matches_the_orbit_oracle = folded(
    {MINIMUM: ["orbit_by_mixed_radix hits", "verify_cell's certified corollary",
               "prod (q-1)^|S| over the supports S"]},
    qn((3, 2), (3, 3), (4, 2), (5, 2), (7, 2)))


def test_random_graphs_include_both_verdicts():
    # the route matrix compares witnesses on these graphs, not only `holds`
    verdicts = {answers(MINIMAL, f"exchange:{seed}")["exchange_by_definition"]["holds"]
                for seed in range(20)}
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


def test_certificate_over_its_charge_is_refused(g33):
    # the 2^26 table is refused; the certificate is charged for what it
    # evaluates, 1 + 7 at (3,3): one unit per class test and one for the
    # core.  Below that it is refused, whatever its family's size
    for budget in (0, 7):
        with pytest.raises(BudgetExceeded, match="^twin-core certificate needs 8 evaluations, "
                                                 f"over the budget {budget}$") as err:
            exchange.has_exchange_property(g33, budget=budget)
        assert err.value.evaluated == 0
        with pytest.raises(BudgetExceeded):
            resolving.twin_core_certificate(g33, budget)
    report = exchange.has_exchange_property(g33, budget=8)
    assert report.holds and report.method == "twin-core-certificate"
    assert report.size_counts == ((19, 4096),)
    assert report.minimal_set_sizes == (19,) * 4096


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_refuses_at_q2(n):
    # (2,2) has the singleton class {e1+e2}; at n >= 3 every class is one
    assert resolving.twin_core_certificate(ComponentGraph(2, n)) is None


@pytest.mark.parametrize("seed", range(20))
def test_certificate_refuses_random_graphs_with_a_singleton_class(seed):
    # where it decides, the route matrix holds its family against the table
    singleton = min(map(len, random_graph(seed).twin_classes()), default=2) == 1
    certified = "twin_core_certificate" in answers(MINIMAL, f"exchange:{seed}")
    assert certified != singleton


def test_random_graphs_include_both_certificate_outcomes():
    outcomes = {"twin_core_certificate" in answers(MINIMAL, f"exchange:{seed}")
                for seed in range(20)}
    assert outcomes == {True, False}


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


def test_certified_sizes_are_counted_not_listed():
    # (5,3): 4^12 minimal sets of 117 members each, read from one run
    sizes = exchange.has_exchange_property(ComponentGraph(5, 3), 20_000).minimal_set_sizes
    assert len(sizes) == 4 ** 12 and list(islice(sizes, 2)) == [117, 117]
    assert sizes != (117,) * 2
    assert exchange.SizeRuns(((3, 1), (4, 1))) == (3, 4) != exchange.SizeRuns(((3, 2),))


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
