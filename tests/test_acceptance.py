"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json
import random
import subprocess
import sys
import time
from itertools import combinations

from conftest import child_env, desk_instances, resolving_sets_by_scan
from resolvdim import exchange, field, intersection, resolving, twins, vectorspace
from resolvdim.graph import (ComponentGraph, bfs_distances, is_complete,
                             size_bruteforce, size_formula)


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_order_and_size_formulas():
    start = time.perf_counter()
    for q, n in desk_instances(700, orders=(2, 3, 4, 5)):
        g = ComponentGraph(q, n)
        assert g.vertex_count == q ** n - 1
        assert size_formula(q, n) == size_bruteforce(g), (q, n)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    assert report(1, "order/size formulas", ok), f"took {elapsed:.2f}s"


def test_criterion_2_metric_dimension_formula_vs_search():
    # the (3,2), (3,3) and (4,2) values come from the exhaustive search
    # oracle; (4,2) additionally gets a direct proof that nothing smaller
    # than 12 resolves: the plain scan decides all C(15, 11) = 1,365
    # 11-subsets, with no twin bound and no engine code.
    expected = {(2, 2): 1, (2, 3): 3, (2, 4): 4, (3, 2): 5, (3, 3): 19, (4, 2): 12}
    start = time.perf_counter()
    for (q, n), dim in expected.items():
        g = ComponentGraph(q, n)
        formula = resolving.metric_dimension_formula(q, n)
        search, witness = resolving.metric_dimension_search(g)
        assert formula == search == dim, (q, n, formula, search)
        assert resolving.is_resolving(g, witness).is_resolving
    elapsed = time.perf_counter() - start
    g42 = ComponentGraph(4, 2)
    assert resolving_sets_by_scan(g42.distance_matrix(), 11) == []
    ok = elapsed < 60.0
    assert report(2, "metric dimension, formula = search", ok), f"took {elapsed:.2f}s"


def test_criterion_3_twin_partitions_coincide():
    # At q=2, n=2 the graph is the path e1 - e1+e2 - e2: e1 and e2 share
    # the open neighborhood {e1+e2} but have the skeletons 01 and 10.
    # Every other desk instance must coincide, and that one must not.
    failures = []
    for q, n in desk_instances(400):
        if not twins.partitions_coincide(ComponentGraph(q, n)):
            failures.append((q, n))
    ok = failures == [(2, 2)]
    report(3, "twin partitions coincide except q=2, n=2", ok)
    assert ok, f"neighborhood and skeleton partitions differ at {failures}"


def test_criterion_4_completeness_iff_dimension_one():
    for q, n in desk_instances(400):
        assert is_complete(ComponentGraph(q, n)) == (n == 1), (q, n)
    assert report(4, "complete iff n=1", True)


def test_criterion_5_minimum_sets_contain_space_basis():
    for q, n in [(3, 2), (4, 2)]:
        g = ComponentGraph(q, n)
        f = field.field_new(q)
        minimum_sets = resolving.enumerate_minimum_resolving_sets(g)
        assert minimum_sets, (q, n)
        for w in minimum_sets:
            vectors = [vectorspace.decode(v, q, n) for v in w]
            assert field.has_full_rank(f, n, vectors), (q, n, w)
    # q=2 counterexample: {e1, e1+e3, e3} is minimum-resolving yet dependent
    g23 = ComponentGraph(2, 3)
    w = [vectorspace.parse_vertex(t, 2, 3) for t in ("e1", "e1+e3", "e3")]
    assert resolving.is_resolving(g23, w).is_resolving
    assert len(w) == resolving.metric_dimension_formula(2, 3)
    f2 = field.field_new(2)
    assert not field.has_full_rank(f2, 3, [vectorspace.decode(v, 2, 3) for v in w])
    assert report(5, "minimum sets contain a space basis (q>=3)", True)


def test_criterion_6_exchange_verdicts():
    start = time.perf_counter()
    verdicts = {}
    for q, n in [(2, 2), (3, 2), (2, 3), (2, 4)]:
        r = exchange.has_exchange_property(ComponentGraph(q, n))
        assert r.method == "definition-check"
        verdicts[(q, n)] = r.holds
    assert verdicts == {(2, 2): True, (3, 2): True, (2, 3): False, (2, 4): False}
    g23 = ComponentGraph(2, 3)
    witness = [vectorspace.parse_vertex(t, 2, 3)
               for t in ("e1", "e1+e2", "e2+e3", "e1+e2+e3")]
    assert sorted(witness) == [1, 3, 6, 7]
    assert resolving.is_minimal(g23, witness)
    assert len(witness) == 4 > resolving.metric_dimension_formula(2, 3)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    assert report(6, "exchange property verdicts", ok), f"took {elapsed:.2f}s"


def test_criterion_7_coordinate_avoiding_minimal_sets():
    for n in (3, 4):
        g = ComponentGraph(2, n)
        w = exchange.coordinate_avoiding_set(2, n)
        assert len(w) == 2 ** (n - 1) - 1
        assert resolving.is_minimal(g, w)
    assert report(7, "coordinate-avoiding sets are minimal", True)


def test_criterion_8_powerset_correspondence_and_dimension():
    for n in (1, 2, 3, 4):
        assert intersection.powerset_matches_component_graph(n), n
    assert intersection.powerset_intersection_dimension(2) == 1
    assert intersection.powerset_intersection_dimension(3) == 3
    assert intersection.powerset_intersection_dimension(4) == 4
    assert report(8, "powerset intersection correspondence", True)


def test_criterion_9a_distance_closed_form_equals_bfs():
    for q, n in desk_instances(200):
        g = ComponentGraph(q, n)
        for u in g.vertex_ids():
            oracle = bfs_distances(g, u)
            for v in g.vertex_ids():
                assert g.distance(u, v) == oracle[v], (q, n, u, v)
    assert report("9a", "distance closed form = BFS", True)


def test_criterion_9b_twin_swap_preserves_resolving():
    trials_done = 0
    for q, n, trials in [(3, 2, 80), (4, 2, 80), (2, 2, 30), (3, 3, 30)]:
        g = ComponentGraph(q, n)
        part = twins.partition_by_neighborhood(g)
        rng = random.Random(f"acceptance:{q}:{n}")
        ids = list(g.vertex_ids())
        base = resolving.canonical_metric_basis(q, n)
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
            assert resolving.is_resolving(g, swapped).is_resolving, (q, n, w, u, v)
            done += 1
        assert done == trials, (q, n, f"{done} of {50 * trials} draws had a swappable class")
        trials_done += done
    assert trials_done >= 200
    assert report("9b", f"twin swaps preserve resolving ({trials_done} trials)", True)


def test_criterion_9c_intersection_family_roundtrip():
    rng = random.Random("acceptance:roundtrip")
    for _ in range(100):
        n = rng.randrange(1, 13)
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if rng.random() < 0.4]
        pg = intersection.PlainGraph(n, edges)
        fam = intersection.as_intersection_family(pg)
        assert intersection.intersection_graph(fam).edges() == edges
    assert report("9c", "intersection-family realization round-trips", True)


def test_criterion_9d_deterministic_reports(tmp_path):
    args = [sys.executable, "-m", "resolvdim", "verify",
            "--q-range", "2..3", "--n-range", "1..2",
            "--format", "json", "--seed", "3"]
    paths = [tmp_path / "w1.json", tmp_path / "w2.json"]
    codes = []
    for path, workers in zip(paths, ("1", "4")):
        proc = subprocess.run(args + ["--workers", workers, "--out", str(path)],
                              capture_output=True, text=True, env=child_env())
        codes.append(proc.returncode)
    assert codes[0] == codes[1]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report_obj = json.loads(paths[0].read_text())
    assert report_obj["schema_version"] == 1
    assert report(
        "9d", "reports byte-identical across worker counts", True)
