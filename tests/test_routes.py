"""One route matrix: each question that several routes answer, every route
checked against the others on every cell it applies to.

A route is (question, name, applies(cell, memo), answer(memo, cell)); no
`applies` means every cell.  An answer is a dict in 0-based columns, and
routes are compared key by key, so a route that gives only part of an
answer gives only those keys.  The one test runs over every (question,
cell) that a cell asks: at least two routes apply, every key comes from
two or more, and all agree.  `SESSION` computes each answer, and each
graph, matrix and plain scan it reads, once per session; `agree` computes
a (question, cell) afresh, for the mutant registry (`test_mutants.py`).
The pairwise tests that the matrix folded keep their names and ids in
their files, each made by `folded` from the routes it compared and its
cells: a case requires those routes to apply and runs the cells' rows.
"""

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Callable

import numpy as np
import pytest

from conftest import (DistanceTable, all_hits_graph, desk_instances, doubled_graph,
                      exchange_by_definition, int64_digits, least_equal_rows_by_dict,
                      mask_table_graph, minimality_by_definition, orbit_by_mixed_radix,
                      orbit_pairs, plain_first_hit, random_graph, resolves_by_definition,
                      resolving_sets_by_scan, status_by_mask_by_scan, status_by_rows,
                      twins_graph, walk_outcome)
from resolvdim import exchange, field, intersection, resolving, twins, verify, vectorspace
from resolvdim.graph import ComponentGraph
from resolvdim.intersection import PlainGraph
from resolvdim.vectorspace import DEFAULT_VERTEX_CAP

DIM, K_SUBSETS, MINIMUM, TABLE = "dim", "k-subsets", "minimum sets", "2^N table"
MINIMAL, SINGLE, TWINS, ORBIT = "minimal sets", "single sets", "twin pairs", "twin-swap orbit"


class Memo(dict):
    """Each value computed once per (function, cell, arguments)."""

    def __call__(self, fn, cell, *args):
        if (fn, cell, args) not in self:
            self[fn, cell, args] = fn(self, cell, *args)
        return self[fn, cell, args]


SESSION = Memo()


@dataclass(frozen=True, eq=False)
class Cell:
    """A graph and what is asked of it: the questions, the k-subsets' sizes,
    and the single sets and twin candidates, 0-based, read from the graph."""

    name: str
    build: Callable[[], object]
    questions: frozenset
    vertices: int
    q: int | None = None
    n: int | None = None
    dim: int | None = None  # the formula's, on a component graph
    ks: tuple[int, ...] = ()
    sets: Callable[[object], list] = lambda g: []
    candidates: Callable[[object], list] = lambda g: []


def _cols(g, ids):
    return tuple(v - g.vertex_ids().start for v in ids)


def _ids(g, cols):
    return tuple(c + g.vertex_ids().start for c in cols)


def _removal_sets(g, q, n):
    """40 seeded sets of any size from the dimension up, and the canonical basis."""
    rng = random.Random(f"removals:{q}:{n}")
    low = resolving.metric_dimension_formula(q, n)
    drawn = [rng.sample(g.vertex_ids(), rng.randint(low, g.vertex_count)) for _ in range(40)]
    return [_cols(g, w) for w in drawn + [resolving.canonical_metric_basis(q, n)]]


def _packed_pass_sets(g, q, n):
    """64 seeded sets at each size around one packed pass of the kernel:
    a digit short of it, at it, a digit past it and two passes and one."""
    rng = random.Random(f"kernel:{q}:{n}")
    group = int64_digits(resolving._Engine(g.distance_columns()).base)
    return [tuple(rng.sample(range(g.vertex_count), k))
            for k in (group - 1, group, group + 1, 2 * group + 1) if k <= g.vertex_count
            for _ in range(64)]


def _every_set(g, largest):
    return [w for k in range(largest + 1) for w in combinations(range(g.vertex_count), k)]


def _class_unions(g):
    classes = list(g.twin_classes())
    return classes + [tuple(sorted(a + b)) for a, b in combinations(classes, 2)]


def _twin_candidates(g, q, n):
    """Every ordered pair, the classes, their unions and 20 seeded sets of each
    size 2..4; at (2,2) a union is V, which only inside distances refuse."""
    rng = random.Random(f"twinclass:{q}:{n}")
    ids = list(g.vertex_ids())
    pairs = [(u, v) for u in range(len(ids)) for v in range(len(ids)) if u != v]
    return pairs + _class_unions(g) + [_cols(g, sorted(rng.sample(ids, k))) for k in (2, 3, 4)
                                       if k <= len(ids) for _ in range(20)]


def _random_graph_sets(g, seed):
    rng = random.Random(f"single:{seed}")
    n = g.vertex_count
    return [tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(6)]


def _random_graph_candidates(g):
    """The classes of two or more, and the least members of consecutive
    classes, which are not twins."""
    classes = g.twin_classes()
    return [c for c in classes if len(c) > 1] + [(a[0], b[0]) for a, b in zip(classes, classes[1:])]


def _path_graph():
    """A path on 15 vertices and 5 isolated ones, open twins, at distance 21:
    base 22, so 13 columns are one packed pass of `status_by_rows`, and the
    kernel ranks its keys before the 14th digit of every 14-column set."""
    return PlainGraph(20, [(i, i + 1) for i in range(14)])


def _path_sets(g):
    """2,000 seeded sets each of 13 and 14 columns."""
    rng = random.Random("kernel:path")
    return [tuple(sorted(rng.sample(range(20), k))) for k in (13, 14) for _ in range(2000)]


def _merged_graph():
    """(3,2) with the twin classes of e1 and e2 reported as one class of
    four, which is not a twin class: the certificate must refuse it."""
    g = ComponentGraph(3, 2)
    ids = {vectorspace.parse_vertex(t, 3, 2) - 1 for t in ("e1", "e2")}
    real = g.twin_classes()
    merged = tuple(sorted(x for c in real if ids & set(c) for x in c))
    g.twin_classes = lambda: tuple(sorted([c for c in real if not ids & set(c)] + [merged]))
    return g


_SETS = {
    (2, 3): lambda g: _every_set(g, 4) + _removal_sets(g, 2, 3),
    (3, 2): lambda g: _every_set(g, 3) + _removal_sets(g, 3, 2),
    **{c: lambda g, c=c: _removal_sets(g, *c) for c in ((2, 4), (3, 3), (4, 2))},
    **{c: lambda g, c=c: _packed_pass_sets(g, *c) for c in ((7, 2), (3, 4))},
    # 256 removals, two batches of 128; the least redundant is the 255th
    (2, 9): lambda g: [_cols(g, exchange.coordinate_avoiding_set(2, 9) + (511,))],
}
_CANDIDATES = {c: lambda g, c=c: _twin_candidates(g, *c)
               for c in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2), (3, 3))}
# every component graph of at most 48 vertices, at k = dim and at
# k = dim + 1, where C(N, k) is at most 200,000; above 48 vertices the
# all-hits walk of a (q,2) cell at k = N - 2 takes seconds to minutes
ALL_HITS_CELLS = [(q, n, k) for q in field.SUPPORTED_ORDERS for n in range(1, 6)
                  if q ** n - 1 <= 48
                  for dim in [resolving.metric_dimension_formula(q, n)]
                  for k in (dim, dim + 1) if k <= q ** n - 1 and comb(q ** n - 1, k) <= 200_000]
# every q >= 3 cell whose orbit, (q-1)^(n 2^(n-1)) sets, has at most 20,000
# members, and the q = 2 cells up to n = 4
ORBIT_CELLS = [(q, n) for q in field.SUPPORTED_ORDERS if q >= 3 for n in (1, 2, 3)
               if (q - 1) ** (n << (n - 1)) <= 20_000] + [(2, 2), (2, 3), (2, 4)]


def _component_cell(q, n):
    """The dimension everywhere; the k-subsets on `ALL_HITS_CELLS`; the
    minimum sets on at most 48 vertices and at q >= 3; the 2^N table and
    the minimal sets on at most 16; the twin-swap orbit on `ORBIT_CELLS`."""
    count, dim = q ** n - 1, resolving.metric_dimension_formula(q, n)
    ks = tuple(k for q_, n_, k in ALL_HITS_CELLS if (q_, n_) == (q, n))
    asked = ({DIM} | ({K_SUBSETS} if ks else set())
             | ({MINIMUM} if count <= 48 or q >= 3 else set())
             | ({TABLE, MINIMAL} if count <= 16 else set())
             | ({SINGLE} if (q, n) in _SETS else set())
             | ({TWINS} if (q, n) in _CANDIDATES else set())
             | ({ORBIT} if (q, n) in ORBIT_CELLS else set()))
    return Cell(f"{q}-{n}", lambda: ComponentGraph(q, n), frozenset(asked), count, q, n, dim,
                ks, _SETS.get((q, n), Cell.sets), _CANDIDATES.get((q, n), Cell.candidates))


def _plain_cells(name, build, seeds, questions, **extra):
    """A cell per seed (a tuple for several) of a builder; `extra` fields from the seed."""
    args = [seed if isinstance(seed, tuple) else (seed,) for seed in seeds]
    return [Cell(name.format(*a), lambda a=a: build(*a), frozenset(questions),
                 build(*a).vertex_count, **{k: v(*a) for k, v in extra.items()})
            for a in args]


CELLS = [_component_cell(q, n) for q, n in desk_instances(1023)] + [
    *_plain_cells("walk:{}", lambda seed: random_graph(seed, "walk"), range(40), [DIM]),
    *_plain_cells("all-hits:{}:{}", all_hits_graph,
                  [(seed, twins_) for twins_ in (True, False) for seed in range(6)],
                  [K_SUBSETS], ks=lambda *a: (0, 3, 5)),
    *_plain_cells("mask-table:{}", mask_table_graph, range(12, 17), [TABLE]),
    *_plain_cells("exchange:{}", random_graph, range(20), [MINIMAL, SINGLE, TWINS],
                  sets=lambda s: lambda g: _random_graph_sets(g, s),
                  candidates=lambda s: _random_graph_candidates),
    *_plain_cells("doubled:{}", doubled_graph, range(20), [MINIMAL]),
    *_plain_cells("plaintwins:{}", twins_graph, range(5), [TWINS],
                  candidates=lambda s: _class_unions),
    Cell("path", _path_graph, frozenset([K_SUBSETS, SINGLE]), 20, ks=(5, 17), sets=_path_sets),
    Cell("3-2:merged", _merged_graph, frozenset([MINIMAL]), 8)]
CELL = {cell.name: cell for cell in CELLS}


def _graph(memo, cell):
    return cell.build()


def _dist(memo, cell):
    return memo(_graph, cell).distance_matrix()


def _scan(memo, cell, k):
    return resolving_sets_by_scan(memo(_dist, cell), k)


def _certificate(memo, cell):
    return resolving.twin_core_certificate(memo(_graph, cell))


def _powerset(memo, cell):
    # the (2,n) graph with every id lowered by one: its ids are the columns
    return intersection.intersection_graph(intersection.powerset_family(cell.n))


def _sets(memo, cell):
    return cell.sets(memo(_graph, cell))


def _certified(cell, memo):
    return memo(_certificate, cell) is not None


def _on_powerset(cell, memo):
    return cell.q == 2 and 2 <= cell.n <= 4


def _at_the_twin_bound(cell, memo):
    classes = memo(_graph, cell).twin_classes()
    return cell.dim == twins.twin_lower_bound(classes) and prod(map(len, classes)) <= 20_000


def _scan_is_cheap(cell, memo):
    # the levels up to the dimension (N on a plain graph): 250,000 sets
    top = cell.vertices if cell.dim is None else cell.dim
    return sum(comb(cell.vertices, j) for j in range(top + 1)) <= 250_000


def _first_hit_applies(cell, memo):
    # past the cheap levels, the formula's level alone on at most 48 vertices
    return _scan_is_cheap(cell, memo) or cell.dim is not None and cell.vertices <= 48


def _corollary_cell(cell, memo):
    return cell.q >= 3 and cell.n >= 2 and cell.vertices <= 48


def _walk(source, classes):
    """The pruned walk's dimension, witness and landmark bound, and where a
    budget of 30 stops it (most cells mid-walk: that pins its count)."""
    k, witness = resolving.find_min_resolving_for_matrix(source, classes)
    return {"k": k, "witness": witness, "at budget 30": walk_outcome(source, classes, 30),
            "landmark bound": resolving._Engine(source).landmark_bound()}


def dim_by_search(memo, cell, graph=_graph):
    g = memo(graph, cell)
    k, witness = resolving.metric_dimension_search(g)
    return {"k": k, "witness": _cols(g, witness)}


def dim_by_plain_scan(memo, cell):
    """The first hit from k = 0 where the levels up to the dimension are
    cheap; else the first hit at the formula's k, and k where the level
    below is at most 20,000 sets and holds no hit (k - 1 if it holds one)."""
    dist = memo(_dist, cell)
    if not _scan_is_cheap(cell, memo):
        k = cell.dim
        answer = {"witness": plain_first_hit(dist, k)}
        if comb(cell.vertices, k - 1) <= 20_000:
            answer["k"] = k if plain_first_hit(dist, k - 1) is None else k - 1
        return answer
    k = 0
    while (witness := plain_first_hit(dist, k)) is None:
        k += 1
    return {"k": k, "witness": witness}


def dim_by_formula(memo, cell):
    # at q >= 3 the least set of the twin bound's size is the canonical basis
    basis = tuple(v - 1 for v in resolving.canonical_metric_basis(cell.q, cell.n))
    return {"k": cell.dim, **({"witness": basis} if cell.q > 2 else {})}


def _family(sets, k):
    return {"sets": sets, "count": len(sets), "size": k}


def _mixed_radix(memo, cell):
    """The mixed-radix orbit's sorted (set, status) pairs."""
    return orbit_pairs(orbit_by_mixed_radix(memo(_dist, cell), memo(_graph, cell).twin_classes()))


def orbit_by_walk(memo, cell):
    engine = resolving._Engine(memo(_dist, cell))
    pairs = orbit_pairs(resolving._orbit(engine, memo(_graph, cell).twin_classes()))
    return {"pairs": pairs, "evaluated": engine.evaluated}


def minimum_by_mixed_radix_orbit(memo, cell):
    g = memo(_graph, cell)
    sets = [w for w, hit in memo(_mixed_radix, cell) if hit]
    answer = _family(sets, cell.dim)
    if _corollary_cell(cell, memo):
        answer["spans"] = all(verify.contains_v_basis(g, _ids(g, w)) for w in sets)
    return answer


def minimum_on_powerset(memo, cell):
    sets = resolving.enumerate_minimum_resolving_sets(memo(_powerset, cell))
    return _family(sets, len(sets[0]))


def minimum_by_certified_corollary(memo, cell):
    # a budget one below the orbit's prod |c| sets: the certificate decides
    total = prod(map(len, memo(_graph, cell).twin_classes()))
    record, _ = verify.verify_cell(cell.q, cell.n, total - 1, DEFAULT_VERTEX_CAP, False)
    body = record["corollary"]
    assert body.get("method") == "twin-core-certificate" and record["pass"], record
    return {"count": body["minimum_sets"], "spans": body["all_contain_v_basis"]}


def minimal_by_table(memo, cell):
    g = memo(_graph, cell)
    report = exchange.has_exchange_property(g)
    assert report.method == "definition-check"
    w = report.witness and (_cols(g, report.witness.w1), _cols(g, [report.witness.r])[0],
                            _cols(g, report.witness.w2))
    return {"sets": [_cols(g, s) for s in resolving.enumerate_minimal_resolving_sets(g)],
            "sizes": report.minimal_set_sizes, "holds": report.holds, "witness": w}


def minimal_by_certificate(memo, cell):
    # the orbit: every set that omits one member of each class
    cert = memo(_certificate, cell)
    every = set().union(*cert.classes)
    sets = sorted(tuple(sorted(every - set(omitted))) for omitted in product(*cert.classes))
    return {"sets": sets, "sizes": (len(cert.core),) * cert.family_size, "holds": True,
            "witness": None}


def minimal_by_certified_exchange(memo, cell):
    # the exchange check's own route to the certificate, at a budget of 2^N - 1
    report = exchange.has_exchange_property(memo(_graph, cell), (1 << cell.vertices) - 1)
    assert report.method == "twin-core-certificate"
    return {"sizes": report.minimal_set_sizes, "holds": report.holds, "witness": report.witness}


def _per_set(memo, cell, check):
    """`check(g, ids)` on each of the cell's single sets."""
    g = memo(_graph, cell)
    return [check(g, _ids(g, w)) for w in memo(_sets, cell)]


def _table(memo, cell):
    return DistanceTable(memo(_graph, cell))


def single_by_is_resolving(memo, cell):
    g = memo(_graph, cell)
    reports = _per_set(memo, cell, resolving.is_resolving)
    return {"status": [r.is_resolving for r in reports],
            "pair": [r.colliding_pair and _cols(g, r.colliding_pair) for r in reports],
            "redundant": [None if r.redundant_vertex is None
                          else _cols(g, [r.redundant_vertex])[0] for r in reports]}


def single_by_kernel(memo, cell):
    engine = resolving._Engine(memo(_graph, cell).distance_columns())
    pairs = [resolving._collision(engine, np.array(w, dtype=np.intp)) for w in memo(_sets, cell)]
    return {"status": [p is None for p in pairs], "pair": pairs}


def single_by_definition(memo, cell):
    return {"status": _per_set(memo, cell, lambda g, w: resolves_by_definition(
        memo(_table, cell), w))}


def single_by_minimality_definition(memo, cell):
    g, table = memo(_graph, cell), memo(_table, cell)
    status = memo(single_by_definition, cell)["status"]
    redundant = [minimality_by_definition(table, _ids(g, w))[1] if ok else None
                 for w, ok in zip(memo(_sets, cell), status)]
    return {"redundant": [None if x is None else _cols(g, [x])[0] for x in redundant]}


def _twins_by(test_on):
    """A twin-pairs route from `test_on(g)`, a test of one candidate."""
    def answer(memo, cell):
        g = memo(_graph, cell)
        return {"twins": list(map(test_on(g), cell.candidates(g)))}
    return answer


def _open_neighbourhoods_agree(g):
    nbrs = [set(x) for x in g.neighbors()]
    return lambda c: all(nbrs[u] - {v} == nbrs[v] - {u} for u, v in zip(c, c[1:]))


def _in_one_class(g):
    cls = {v: i for i, members in enumerate(g.twin_classes()) for v in members}
    return lambda c: len({cls[v] for v in c}) == 1


ROUTES = [
    (DIM, "find_min_resolving_for_matrix", None,
     lambda m, c: _walk(m(_dist, c), m(_graph, c).twin_classes())),
    (DIM, "find_min_resolving_for_matrix on columns", None,
     lambda m, c: _walk(m(_graph, c).distance_columns(), m(_graph, c).twin_classes())),
    (DIM, "metric_dimension_search", None, dim_by_search),
    (DIM, "plain_first_hit", _first_hit_applies, dim_by_plain_scan),
    (DIM, "metric_dimension_formula", lambda c, m: c.q is not None, dim_by_formula),
    (DIM, "metric_dimension_search on the powerset graph", _on_powerset,
     lambda m, c: dim_by_search(m, c, _powerset)),
    (DIM, "powerset_intersection_dimension", _on_powerset,
     lambda m, c: {"k": intersection.powerset_intersection_dimension(c.n)}),
    (K_SUBSETS, "all_resolving_k_subsets", None,
     lambda m, c: {k: resolving.all_resolving_k_subsets(m(_dist, c), k) for k in c.ks}),
    (K_SUBSETS, "resolving_sets_by_scan", None, lambda m, c: {k: m(_scan, c, k) for k in c.ks}),
    (MINIMUM, "minimum_resolving_sets", lambda c, m: _at_the_twin_bound(c, m) or c.vertices <= 48,
     lambda m, c: _family(sorted(tuple(w) for b in resolving.minimum_resolving_sets(
         m(_graph, c), c.dim) for w in b.tolist()), c.dim)),
    # past 48 vertices a set of dim columns is over three packed passes,
    # and `status_by_rows` reads it one row set at a time
    (MINIMUM, "resolving_sets_by_scan at k = dim",
     lambda c, m: c.vertices <= 48 and comb(c.vertices, c.dim) <= 700_000,
     lambda m, c: _family(m(_scan, c, c.dim), c.dim)),
    # in the scan's lexicographic order
    (MINIMUM, "enumerate_minimum_resolving_sets", lambda c, m: c.vertices <= 48,
     lambda m, c: _family([_cols(m(_graph, c), w) for w in
                           resolving.enumerate_minimum_resolving_sets(m(_graph, c))], c.dim)),
    (MINIMUM, "orbit_by_mixed_radix hits", _at_the_twin_bound, minimum_by_mixed_radix_orbit),
    (MINIMUM, "twin_core_certificate", _certified,
     lambda m, c: {"count": m(_certificate, c).family_size, "size": len(m(_certificate, c).core)}),
    # a class of (q-1)^|S| members per nonempty support S; a minimum set
    # omits one member of each
    (MINIMUM, "prod (q-1)^|S| over the supports S", lambda c, m: c.q >= 3,
     lambda m, c: {"count": prod((c.q - 1) ** (s * comb(c.n, s)) for s in range(1, c.n + 1)),
                   "size": c.dim}),
    (MINIMUM, "verify_cell's certified corollary", _corollary_cell,
     minimum_by_certified_corollary),
    (MINIMUM, "enumerate_minimum_resolving_sets on the powerset graph", _on_powerset,
     minimum_on_powerset),
    (TABLE, "resolving_status_by_mask", None,
     lambda m, c: {"masks": np.flatnonzero(resolving.resolving_status_by_mask(
         m(_dist, c))).tolist()}),
    (TABLE, "status_by_mask_by_scan", None,
     lambda m, c: {"masks": np.flatnonzero(status_by_mask_by_scan(m(_dist, c))).tolist()}),
    (MINIMAL, "enumerate_minimal_resolving_sets and has_exchange_property", None,
     minimal_by_table),
    # 2^15 subsets of Python tuples take about 0.7 s: past 12 vertices the
    # definition runs on (2,4) and (4,2), and where no certificate is a
    # second route
    (MINIMAL, "exchange_by_definition",
     lambda c, m: c.vertices <= 12 or c.vertices <= 15 and (
         (c.n or 0) >= 2 or not _certified(c, m)),
     lambda m, c: exchange_by_definition(m(_graph, c))),
    (MINIMAL, "twin_core_certificate", _certified, minimal_by_certificate),
    (MINIMAL, "has_exchange_property by the certificate",
     lambda c, m: c.vertices > 0 and _certified(c, m), minimal_by_certified_exchange),
    (MINIMAL, "enumerate_minimal_resolving_sets on the powerset graph", _on_powerset,
     lambda m, c: {"sets": resolving.enumerate_minimal_resolving_sets(m(_powerset, c))}),
    (SINGLE, "is_resolving", None, single_by_is_resolving),
    (SINGLE, "resolves", None, lambda m, c: {"status": _per_set(m, c, resolving.resolves)}),
    (SINGLE, "_collision", None, single_by_kernel),
    (SINGLE, "status_by_rows", None,
     lambda m, c: {"status": [bool(status_by_rows(m(_dist, c), np.array(
         [w], dtype=np.intp).reshape(1, len(w)))[0]) for w in m(_sets, c)]}),
    (SINGLE, "resolves_by_definition", None, single_by_definition),
    (SINGLE, "minimality_by_definition", None, single_by_minimality_definition),
    (SINGLE, "least_equal_rows_by_dict", None,
     lambda m, c: {"pair": [least_equal_rows_by_dict(m(_dist, c)[:, np.array(
         w, dtype=np.intp)]) for w in m(_sets, c)]}),
    (TWINS, "is_twin_class", None,
     _twins_by(lambda g: lambda c: twins.is_twin_class(g, _ids(g, c)))),
    (TWINS, "are_twins on consecutive members", None,
     _twins_by(lambda g: lambda c: all(twins.are_twins(g, *_ids(g, p)) for p in zip(c, c[1:])))),
    (TWINS, "one class of twin_classes", None, _twins_by(_in_one_class)),
    (TWINS, "N(u) - v == N(v) - u on consecutive members", lambda c, m: c.q is None,
     _twins_by(_open_neighbourhoods_agree)),
    (ORBIT, "_orbit", None, orbit_by_walk),
    (ORBIT, "orbit_by_mixed_radix", None,
     lambda m, c: {"pairs": m(_mixed_radix, c), "evaluated": len(m(_mixed_radix, c))}),
    (ORBIT, "prod |c| over the twin classes", None,
     lambda m, c: {"evaluated": prod(map(len, m(_graph, c).twin_classes()))}),
    # a class of (q-1)^|S| members per nonempty support S
    (ORBIT, "(q-1)^(n 2^(n-1))", lambda c, m: c.q >= 3,
     lambda m, c: {"evaluated": (c.q - 1) ** (c.n << (c.n - 1))}),
]


def answers(question, cell_name, memo=SESSION):
    """{route name: answer} of each route of `question` that applies to
    the cell."""
    cell = CELL[cell_name]
    return {name: memo(answer, cell) for asked, name, applies, answer in ROUTES
            if asked == question and (applies is None or applies(cell, memo))}


def disagreements(got):
    """What keeps the answers `got` from agreeing: fewer than two routes,
    a key that fewer than two give, or a key on which they differ."""
    if len(got) < 2:
        return [f"only {sorted(got)} apply"]
    found = []
    for key in sorted({k for answer in got.values() for k in answer}, key=str):
        values = {name: answer[key] for name, answer in got.items() if key in answer}
        if len(values) < 2:
            found.append(f"{key!r} comes from {sorted(values)} alone")
        elif any(v != next(iter(values.values())) for v in values.values()):
            found.append(f"{key!r} differs: {values}")
    return found


def agree(question, cell_name):
    """Whether the routes of `question` agree on the cell, each computed
    afresh: the check a mutant names."""
    return not disagreements(answers(question, cell_name, Memo()))


PAIRS = [(question, cell.name) for cell in CELLS for question in sorted(cell.questions)]


@pytest.mark.parametrize("question, cell_name", PAIRS, ids=[f"{q}@{c}" for q, c in PAIRS])
def test_routes_agree(question, cell_name):
    assert disagreements(answers(question, cell_name)) == []


def folded(routes, cases):
    """A pairwise test that the matrix folded, under its old name and ids.
    `routes` maps each question it asked to the routes it compared, and
    `cases` each id to its cells (a bare list of cells: a test without
    ids).  A case requires those routes to apply to its cells and runs
    the cells' matrix rows, so it compares nothing the matrix does not."""
    def case(cells):
        for question, names in routes.items():
            for cell_name in cells:
                assert set(names) <= set(answers(question, cell_name)), (question, names)
                test_routes_agree(question, cell_name)
    if isinstance(cases, list):
        return lambda: case(cases)
    return pytest.mark.parametrize("cells", list(cases.values()), ids=list(cases))(case)


def qn(*cells):
    """The component cells of (q, n) pairs, under the ids "q-n"."""
    return {f"{q}-{n}": [f"{q}-{n}"] for q, n in cells}


def seeded(cell_name, seeds):
    """The cells `cell_name.format(seed)`, under the ids str(seed)."""
    return {str(seed): [cell_name.format(seed)] for seed in seeds}


def test_the_folded_cells_hold_both_outcomes():
    # each comparison meets both outcomes: the sampled sets, the k-subsets
    # and the tables hold resolving sets and others, and the removal
    # samples minimal sets and sets with a redundant member
    path = answers(SINGLE, "path")["status_by_rows"]["status"]
    assert int64_digits(resolving._Engine(_path_graph().distance_matrix()).base) == 13
    assert 0 < sum(path[:2000]) < 2000 and 0 < sum(path[2000:]) < 2000
    for k, sets in answers(K_SUBSETS, "path")["resolving_sets_by_scan"].items():
        assert 0 < len(sets) < comb(20, k)
    for n in range(12, 17):
        masks = answers(TABLE, f"mask-table:{n}")["status_by_mask_by_scan"]["masks"]
        assert 0 < len(masks) < 1 << n
    for q, n in ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2)):
        got = answers(SINGLE, f"{q}-{n}")["is_resolving"]
        assert {x is None for x, ok in zip(got["redundant"], got["status"]) if ok} == {True, False}
    # at N = 15 a minimal set reaches the mask table's views for bits 8 and up
    assert max(map(max, answers(MINIMAL, "2-4")["exchange_by_definition"]["sets"])) >= 8
    # at the twin bound every set of the orbit, prod |c| of them, is minimum,
    # and each spans V where verify's corollary is certified
    for q, n in ((2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)):
        got = answers(MINIMUM, f"{q}-{n}")["orbit_by_mixed_radix hits"]
        assert got["count"] == prod(map(len, SESSION(_graph, CELL[f"{q}-{n}"]).twin_classes()))
        assert got.get("spans", True) is True
    # a plain graph's column source is its distance matrix
    for seed in range(5):
        g = SESSION(_graph, CELL[f"plaintwins:{seed}"])
        source = g.distance_columns()
        assert np.array_equal(source.column(np.arange(g.vertex_count)), g.distance_matrix())
        assert source.largest == g.distance_matrix().max()
