"""Mutants as tests: one registry of deliberate faults.

Each entry breaks one step of a route with a monkeypatch and names the
check that must catch it.  Unpatched, the check passes on the same
input; patched, it fails.  So a refactor that leaves a check unable to
fail turns one of these tests red.  A fault that one route of the route
matrix (`test_routes.py`) would hide names the matrix cells it breaks:
its check recomputes their routes, and passes when they agree.
"""

import dataclasses
import io
from contextlib import redirect_stdout
from unittest import mock
from dataclasses import dataclass
from itertools import islice
from math import prod
from typing import Callable

import numpy as np
import pytest

from conftest import mixed_triple_graph, overflowing_digit_matrix
from test_routes import K_SUBSETS, MINIMAL, MINIMUM, ORBIT, SINGLE, TABLE, agree
from resolvdim import cli, exchange, graph, resolving, twins, vectorspace, verify
from resolvdim.errors import BudgetExceeded, OutOfRange
from resolvdim.graph import ComponentGraph


@dataclass(frozen=True)
class Mutant:
    name: str
    target: object
    attr: str
    replacement: Callable
    check: Callable[[], bool]


def _cells_agree(question, *cells):
    """The routes of `question` agree on each of the matrix cells."""
    return lambda: all(agree(question, cell) for cell in cells)


def _verify_passes(q, n, check):
    """`verify` at (q, n) exits 0 and its text line reads `check=ok`."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", "--q", str(q), "--n", str(n)])
    return code == 0 and f" {check}=ok " in out.getvalue()


def _verify_tokens(q, n, budget=resolving.DEFAULT_BUDGET):
    """The tokens of `verify`'s text line at (q, n)."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["verify", "--q", str(q), "--n", str(n), "--budget", str(budget)])
    return out.getvalue().splitlines()[1].split()


def _dim_checks_its_witness():
    """`dim` and the dim section of `verify` pass at (2,4)."""
    with redirect_stdout(io.StringIO()):
        code = cli.main(["dim", "--q", "2", "--n", "4"])
    return code == 0 and _verify_passes(2, 4, "dim")


def _witness_moved(dist, twin_classes, budget=resolving.DEFAULT_BUDGET):
    # the least witness with its last member moved to the next column
    k, cols = _real_find_min(dist, twin_classes, budget)
    return k, cols[:-1] + (cols[-1] + 1,)


def _kept_by_omitted(engine, members):
    # refines by the omitted member instead of the members the set keeps
    return np.array([np.unique(engine.column(x), return_inverse=True)[1] for x in members],
                    dtype=np.int64).reshape(len(members), engine.n_rows)


def _removals_of_the_first_batch(engine, cols):
    # decides the first `engine.batch` removals; the rest read as not resolving
    still = _real_single_removals(engine, cols)
    still[engine.batch:] = False
    return still


def _sorted_columns_unchecked(g, w):
    # the set's columns without the check that its ids lie in 1..N
    return np.array(sorted(w), dtype=np.intp) - 1


def _open_twins_only(rows):
    # groups equal open rows only: the closed-row pass, which sets each
    # vertex's own bit and groups again, is left out
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(i)
    return tuple(map(tuple, groups.values()))


def _out_of_range_refused():
    """`resolves` refuses id 0 at (2,3), which would read the last column."""
    try:
        resolving.resolves(ComponentGraph(2, 3), [0, 1])
    except OutOfRange:
        return True
    return False


def _column_without_its_zero(self, c):
    # a column's own vertex meets itself, so it reads 1, not 0
    col = _real_column(self, c)
    col[col == 0] = 1
    return col


def _walk_without_later_siblings(self, k, twin_classes):
    # after a hit, the walk tries none of its later siblings: no set that
    # shares the hit's first k - 1 columns is yielded
    prefix = None
    for w in _real_walk(self, k, twin_classes):
        if w[:-1] != prefix:
            prefix = w[:-1]
            yield w


def _merge_e1_with_e1_plus_e2(g):
    # the twin partition with the classes of e1 and e1+e2 joined
    ids = [vectorspace.parse_vertex(t, g.q, g.n) for t in ("e1", "e1+e2")]
    parts = [c for c in _real_partition(g).classes if not set(ids) & set(c)]
    joined = tuple(sorted(x for c in _real_partition(g).classes if set(ids) & set(c) for x in c))
    classes = tuple(sorted(parts + [joined]))
    return twins.TwinPartition(classes, tuple(g.skeleton(c[0]) for c in classes))


def _certified_count_at_4_3():
    """At (4,3), budget 20,000, `verify` certifies the corollary and counts
    prod (q-1)^|S| minimum sets over the skeleton classes S."""
    record, _ = verify.verify_cell(4, 3, 20_000, vectorspace.DEFAULT_VERTEX_CAP, False)
    skeleton = twins.partition_by_skeleton(ComponentGraph(4, 3)).classes
    return (record["corollary"].get("method") == "twin-core-certificate"
            and record["corollary"]["minimum_sets"] == prod(len(c) for c in skeleton))


def _kernel_ranks_before_an_overflow():
    """The kernel finds no collision in columns 0 and 1 of the base-(2^40
    + 1) matrix, which resolve it."""
    dist = overflowing_digit_matrix()
    return resolving._collision(resolving._Engine(dist), np.array([0, 1])) is None


def _collision_never_re_ranked(engine, cols):
    # appends every digit with no dense rank, so a key past 2^63 wraps
    keys = np.zeros(engine.n_rows, dtype=np.int64)
    for digit in engine.column(cols).T:
        keys *= engine.base
        keys += digit
    order = np.argsort(keys, kind="stable")
    same = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    return (int(order[same[0]]), int(order[same[0] + 1])) if same.size else None


def _twin_class_block(g, members):
    rows = np.asarray(members, dtype=np.intp) - g.vertex_ids().start
    return rows, g.distance_columns().column(rows)


def _twin_class_outside_only(g, members):
    # compares the rows outside the members only
    rows, block = _twin_class_block(g, members)
    outside = np.delete(block, rows, axis=0)
    return bool((outside == outside[:, :1]).all())


def _twin_class_with_its_zero_diagonal(g, members):
    # every row constant, with each member's own zero left in its row
    _, block = _twin_class_block(g, members)
    return bool((block == block[:, :1]).all())


def _twin_class_refuses_a_mixed_triple():
    """`is_twin_class` refuses {x, y, z} of the mixed-triple graph, whose
    outside row is constant, and accepts the twins {x, y}."""
    g = mixed_triple_graph()
    return not twins.is_twin_class(g, (1, 2, 3)) and twins.is_twin_class(g, (1, 2))


def _twin_classes_accepted():
    """`is_twin_class` accepts every twin class of two or more members of
    (3,2) and of the mixed-triple graph."""
    g32, plain = ComponentGraph(3, 2), mixed_triple_graph()
    cases = [(g32, c) for c in twins.partition_by_neighborhood(g32).classes]
    cases += [(plain, c) for c in plain.twin_classes()]
    return all(twins.is_twin_class(g, c) for g, c in cases if len(c) > 1)


def _certificate_refused_at_budget_0():
    """At (3,3) the exchange's certificate, charged 1 + 7 units, is refused
    at budget 0."""
    try:
        exchange.has_exchange_property(ComponentGraph(3, 3), budget=0)
    except BudgetExceeded:
        return True
    return False


def _verdicts_without_the_last_class(self):
    # the cell's one pass of class tests, with one class's verdict dropped
    return dict(list(resolving.twin_class_verdicts(self.g).items())[:-1])


def _verdicts_of_the_class_before(self):
    # each class reads the verdict of the class before it, the first its own
    verdicts = resolving.twin_class_verdicts(self.g)
    return dict(zip(verdicts, [*list(verdicts.values())[:1], *verdicts.values()]))


def _shared_verdicts_reach_swaps_or_corollary():
    """At (4,3), budget 20,000, the orbit and the table are refused, and
    the cell's certificate decides the corollary: swaps or the corollary
    (both, unpatched) reads ok."""
    tokens = _verify_tokens(4, 3, 20_000)
    return "swaps=ok" in tokens or "corollary=ok" in tokens


def _swaps_fails_on_the_last_class():
    """`verify` at (3,2) passes swaps, and fails it when `is_twin_class`
    refuses the last twin class alone."""
    g = ComponentGraph(3, 2)
    last = max(twins.partition_by_neighborhood(g).classes)
    refuse_last = lambda g, c: tuple(c) != last and _real_is_twin_class(g, c)
    with mock.patch.object(twins, "is_twin_class", refuse_last):
        failed = "swaps=FAIL" in _verify_tokens(3, 2)
    return _swaps_pass() and failed


def _exchange_flipped(g, budget=resolving.DEFAULT_BUDGET, certificate=None):
    report = _real_exchange(g, budget, certificate)
    return dataclasses.replace(report, holds=not report.holds)


_real_walk = resolving._Engine.walk
_real_find_min = resolving.find_min_resolving_for_matrix
_real_product_walk = resolving._ProductWalk.__init__
_real_runs = resolving._ProductWalk._runs
_real_single_removals = resolving._single_removals
_real_column = graph.SkeletonColumns.column
_real_partition = twins.partition_by_neighborhood
_real_is_twin_class = twins.is_twin_class
_real_basis = resolving.canonical_metric_basis
_real_resolves = resolving.resolves
_real_order = graph.order_formula
_real_size = graph.size_bruteforce
_real_complete = graph.is_complete
_real_exchange = exchange.has_exchange_property
_BASIS_3_2 = set(resolving.canonical_metric_basis(3, 2))


def _swaps_pass():
    """`verify` at (3,2) passes its exact twin-swap check."""
    return _verify_passes(3, 2, "swaps")


# the parts of verify's exact twin-swap check
SWAPS = [
    Mutant("merge-e1-with-e1-plus-e2", twins, "partition_by_neighborhood",
           _merge_e1_with_e1_plus_e2, _swaps_pass),
    # (4, 5) is (e1+e2, 2e1+e2), consecutive in its class
    Mutant("reject-one-consecutive-pair", twins, "is_twin_class",
           lambda g, c: (4, 5) not in zip(c, c[1:]) and _real_is_twin_class(g, c), _swaps_pass),
    # adds 2e1, the omitted twin of e1
    Mutant("basis-holds-a-whole-class", resolving, "canonical_metric_basis",
           lambda q, n: tuple(sorted(_real_basis(q, n) + (2,))), _swaps_pass),
    Mutant("resolves-ignores-the-last-column", resolving, "resolves",
           lambda g, w: _real_resolves(g, sorted(w)[:-1]), _swaps_pass),
    Mutant("resolves-ignores-the-swapped-in-columns", resolving, "resolves",
           lambda g, w: _real_resolves(g, [x for x in w if x in _BASIS_3_2]), _swaps_pass),
]

MUTANTS = [
    Mutant("orbit-refines-by-the-omitted-member", resolving, "_kept_table",
           _kept_by_omitted, _cells_agree(MINIMUM, "3-2")),
    Mutant("single-removals-refine-by-the-omitted-member", resolving, "_kept_table",
           _kept_by_omitted, _cells_agree(SINGLE, "2-4", "3-2")),
    # the (2,9) set's 256 removals come in two batches of 128
    Mutant("single-removals-read-one-chunk", resolving, "_single_removals",
           _removals_of_the_first_batch, _cells_agree(SINGLE, "2-9")),
    Mutant("orbit-reuses-the-parent-labels", resolving, "_kept_table",
           lambda engine, members: np.zeros((len(members), engine.n_rows), dtype=np.uint8),
           _cells_agree(MINIMUM, "3-2")),
    # the twin-swap orbit's sets all resolve, so the 2^N table shows it
    Mutant("orbit-skips-the-distinctness-test", resolving, "_distinct_rows",
           lambda labels: np.ones(len(labels), dtype=bool), _cells_agree(TABLE, "3-2")),
    Mutant("orbit-drops-the-children-after-the-first-run", resolving._ProductWalk, "_runs",
           lambda self, node, d: islice(_real_runs(self, node, d), 1),
           _cells_agree(ORBIT, "3-3")),
    Mutant("all-hits-walk-stops-at-its-first-leaf", resolving._Engine, "walk",
           lambda self, k, twin_classes: islice(_real_walk(self, k, twin_classes), 1),
           _cells_agree(K_SUBSETS, "3-2", "2-4")),
    Mutant("all-hits-walk-skips-the-later-siblings-of-a-hit", resolving._Engine, "walk",
           _walk_without_later_siblings, _cells_agree(K_SUBSETS, "3-2", "2-4")),
    # the 2^N table's levels taken in reverse, so level 0 is column 0 and
    # leaf m is the set of mask m with its N bits reversed
    Mutant("mask-table-level-0-is-column-0", resolving._ProductWalk, "__init__",
           lambda self, engine, levels: _real_product_walk(self, engine, levels[::-1]),
           _cells_agree(MINIMAL, "2-3")),
    Mutant("column-keeps-its-own-vertex-nonzero", graph.SkeletonColumns, "column",
           _column_without_its_zero, _cells_agree(MINIMAL, "2-3")),
    Mutant("single-set-ids-skip-the-range-check", resolving, "_sorted_columns",
           _sorted_columns_unchecked, _out_of_range_refused),
    Mutant("closed-row-pass-without-the-diagonal-bit", graph, "twin_classes_from_packed_rows",
           _open_twins_only, lambda: _verify_passes(3, 2, "twins")),
    Mutant("dim-witness-moves-its-last-member", resolving, "find_min_resolving_for_matrix",
           _witness_moved, _dim_checks_its_witness),
    Mutant("corollary-lists-no-sets", resolving, "minimum_resolving_sets",
           lambda g, k, budget=resolving.DEFAULT_BUDGET: iter(()),
           lambda: _verify_passes(3, 2, "corollary")),
    Mutant("order-formula-off-by-one", graph, "order_formula",
           lambda q, n: _real_order(q, n) + 1, lambda: _verify_passes(3, 2, "order")),
    Mutant("size-count-off-by-one", graph, "size_bruteforce",
           lambda g: _real_size(g) + 1, lambda: _verify_passes(3, 2, "size")),
    Mutant("completeness-negated", graph, "is_complete",
           lambda g: not _real_complete(g), lambda: _verify_passes(3, 2, "complete")),
    Mutant("exchange-verdict-flipped", exchange, "has_exchange_property",
           _exchange_flipped, lambda: _verify_passes(3, 2, "exchange")),
    # at (2,3) every class is a singleton: the core is V, which resolves
    Mutant("twin-core-accepts-a-singleton-class", resolving, "_paired",
           lambda classes: True, _cells_agree(MINIMAL, "2-3")),
    Mutant("twin-core-counts-one-less-per-class", resolving.TwinCore, "family_size",
           property(lambda self: prod(len(c) - 1 for c in self.classes)),
           _certified_count_at_4_3),
    Mutant("twin-core-charged-zero", resolving.TwinCore, "charge", property(lambda self: 0),
           _certificate_refused_at_budget_0),
    # one pass of class tests per cell, read by premise (i) and swaps (a)
    Mutant("shared-verdicts-drop-one-class", verify._Cell, "twin_verdicts",
           property(_verdicts_without_the_last_class), _shared_verdicts_reach_swaps_or_corollary),
    Mutant("swaps-reads-the-verdict-of-the-class-before", verify._Cell, "twin_verdicts",
           property(_verdicts_of_the_class_before), _swaps_fails_on_the_last_class),
    Mutant("twin-core-skips-the-twin-class-premise", twins, "is_twin_class",
           lambda g, c: True, _cells_agree(MINIMAL, "3-2:merged")),
    Mutant("twin-class-ignores-inside-distances", twins, "is_twin_class",
           _twin_class_outside_only, _twin_class_refuses_a_mixed_triple),
    # a member's row holds its own zero beside nonzero distances, so every
    # class of two or more is refused
    Mutant("twin-class-keeps-the-zero-diagonal", twins, "is_twin_class",
           _twin_class_with_its_zero_diagonal, _twin_classes_accepted),
    Mutant("kernel-never-re-ranks", resolving, "_collision",
           _collision_never_re_ranked, _kernel_ranks_before_an_overflow),
    *SWAPS,
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_check_passes_unpatched(mutant):
    assert mutant.check()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_check_fails_patched(mutant, monkeypatch):
    monkeypatch.setattr(mutant.target, mutant.attr, mutant.replacement)
    assert not mutant.check()
