"""The verification suite: six checks per (q, n) cell, and the report.

Each check yields `Section`s.  `verify_cell` times the checks and turns
BudgetExceeded and InstanceTooLarge into a skipped section; the cell's
pass and its text tokens come from the same verdicts.  What more than
one check reads, the per-class twin verdicts and the twin-core
certificate, is computed at most once per cell (`_Cell`).  The `dim`
and `exchange` subcommands render `dim_section` and `exchange_section`.

Reports are deterministic: identical configurations produce byte-identical
output, because `verify` checks its cells one after another in sorted
order, draws nothing at random, and includes timings only when --timings
is given.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from . import (exchange as exchange_mod, field as field_mod, graph as graph_mod,
               resolving as resolving_mod, twins as twins_mod, vectorspace)
from .errors import BudgetExceeded, InstanceTooLarge

SCHEMA_VERSION = 1

# most hyperplane masks the corollary's spanning test gathers at once (64 kB);
# `graph.BLOCK_CELLS` masks would make that gather 512 kB on grid-sized cells
_SPAN_MASKS = 1 << 13


@dataclass(frozen=True)
class Section:
    """One section of a cell: its text label; its status (checked, verified,
    counterexample-verified, skipped, not-applicable, no-twins, or None for
    order, size and complete, whose bodies carry none); its verdict (None
    for skipped, not-applicable and no-twins); the rest of its JSON body."""

    label: str
    status: str | None
    verdict: bool | None
    body: dict

    @property
    def key(self) -> str:
        """The record key; the swaps section keeps its schema_version 1 name."""
        return "twin_swap_trials" if self.label == "swaps" else self.label

    @property
    def token(self) -> str:
        """`label=ok` or `label=FAIL`; without a verdict, the status."""
        if self.verdict is None:
            return f"{self.label}={'n/a' if self.status == 'not-applicable' else self.status}"
        return f"{self.label}={'ok' if self.verdict else 'FAIL'}"

    def json(self) -> dict:
        return self.body if self.status is None else {"status": self.status, **self.body}


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def labels(g: graph_mod.ComponentGraph, ids) -> list[str]:
    return [g.label(v) for v in ids]


def contains_v_basis(g: graph_mod.ComponentGraph, ids) -> bool:
    """Whether the vertices `ids` span GF(q)^n."""
    return field_mod.has_full_rank(field_mod.field_new(g.q), g.n,
                                   [vectorspace.decode(v, g.q, g.n) for v in ids])


def dim_section(g: graph_mod.ComponentGraph, budget: int) -> Section:
    """Metric dimension, closed form against search; the witness must resolve."""
    formula = resolving_mod.metric_dimension_formula(g.q, g.n)
    search, witness = resolving_mod.metric_dimension_search(g, budget=budget)
    ok = formula == search and resolving_mod.resolves(g, witness)
    return Section("dim", "checked", ok, {"formula": formula, "search": search,
                                          "witness": labels(g, witness), "match": ok})


def exchange_section(g: graph_mod.ComponentGraph, budget: int,
                     certificate=None) -> tuple[Section, dict | None]:
    """The exchange verdict against the paper's, which fails exactly at q=2,
    n>=3; with the violating triple in labels when the property fails.
    `certificate` is passed on to `exchange.has_exchange_property`."""
    report = exchange_mod.has_exchange_property(g, budget, certificate)
    expected = g.q >= 3 or g.n <= 2
    ok = report.holds == expected
    w = report.witness
    witness = None if w is None else {"kind": "exchange-violation", "w1": labels(g, w.w1),
                                      "r": g.label(w.r), "w2": labels(g, w.w2)}
    body = {"holds": report.holds, "method": report.method, "expected": expected, "match": ok}
    if report.method == "definition-check":
        body["sizes"] = list(report.minimal_set_sizes)
    else:  # the family is counted, not listed: each size once, and its count
        body["sizes"] = [s for s, _ in report.size_counts]
        body["size_counts"] = {str(s): count for s, count in report.size_counts}
    return Section("exchange", "checked", ok, body), witness


class _Cell:
    """One cell's graph, budget and sections so far, and the facts that
    more than one check reads, each computed when first read and then
    kept: the per-class twin verdicts, which the certificate's premise
    (i) and swaps (a) read, and the twin-core certificate, which the
    corollary reads where the orbit is refused and the exchange where
    the 2^N table is."""

    def __init__(self, g: graph_mod.ComponentGraph, budget: int):
        self.g, self.budget = g, budget
        self.done: dict[str, Section] = {}  # by label

    @cached_property
    def twin_verdicts(self) -> dict[tuple[int, ...], bool]:
        return resolving_mod.twin_class_verdicts(self.g)

    @cached_property
    def certificate(self) -> resolving_mod.TwinCore | None:
        # a refusal is not kept: it reads no distance, and is raised again
        return resolving_mod.twin_core_certificate(self.g, self.budget,
                                                   lambda g: self.twin_verdicts)


def _counts(cell):
    """Order, size and completeness against the counting formulas."""
    g = cell.g
    q, n = g.q, g.n
    order = graph_mod.order_formula(q, n)
    enumerated = sum(1 for coeffs in product(range(q), repeat=n) if any(coeffs))
    ok = order == enumerated
    yield Section("order", None, ok, {"formula": order, "enumerated": enumerated, "match": ok})
    brute, size = graph_mod.size_bruteforce(g), graph_mod.size_formula(q, n)
    ok = size == brute
    yield Section("size", None, ok, {"formula": size, "bruteforce": brute, "match": ok})
    complete = graph_mod.is_complete(g)
    ok = complete == (n == 1)
    yield Section("complete", None, ok, {"value": complete, "expected": n == 1, "match": ok})


def _twins(cell):
    coincide = twins_mod.partitions_coincide(cell.g)
    yield Section("twins", "checked", coincide, {"coincide": coincide})


def _axes_in_classes(g, classes) -> bool:
    """Premise (iv) of the certified corollary: for each i, some twin class
    (0-based columns) holds two nonzero multiples of e_i, read with
    `vectorspace.decode`.  Every orbit member omits one member of each
    class, so it keeps a multiple of each e_i and spans the space."""
    axes = set()
    for c in classes:
        supports = [[i for i, x in enumerate(vectorspace.decode(v + 1, g.q, g.n)) if x]
                    for v in c]
        units = [s[0] for s in supports if len(s) == 1]
        axes.update(i for i in units if units.count(i) >= 2)
    return axes == set(range(g.n))


def _corollary(cell):
    """Minimum resolving sets against linear independence.

    At q >= 3 `resolving.minimum_resolving_sets` lists the minimum sets
    and each one is tested.  Where it is refused before its first batch,
    the cell's twin-core certificate decides when its premises hold
    (`resolving.twin_core_certificate`) and so does premise (iv): the
    minimum sets are then the prod |c| orbit members, each of the core's
    size, which must be the dim search's, and (iv) makes each one span.
    A premise that fails keeps the refusal.
    """
    g, budget, done = cell.g, cell.budget, cell.done
    q, n = g.q, g.n
    if q == 2 and n != 3:
        yield Section("corollary", "not-applicable", None, {})
    elif done["dim"].status == "skipped":
        yield Section("corollary", "skipped", None, {"reason": "dim search skipped"})
    elif q >= 3:
        k = done["dim"].body["search"]
        count, spans, masks = 0, True, None
        try:
            for block in resolving_mod.minimum_resolving_sets(g, k, budget):
                if masks is None:  # the orbit is admitted; the walk may still raise
                    masks = field_mod.field_new(q).hyperplane_masks(
                        n, [vectorspace.decode(v, q, n) for v in g.vertex_ids()])
                count += len(block)
                # a set spans V iff no hyperplane holds it: its masks OR to all
                # ones; a few columns of the block at a time, so no gather holds
                # more than _SPAN_MASKS masks
                union = np.zeros((len(block), masks.shape[1]), dtype=np.uint64)
                step = max(1, _SPAN_MASKS // union.size)
                for lo in range(0, block.shape[1], step):
                    union |= np.bitwise_or.reduce(masks[block[:, lo:lo + step]], axis=1)
                spans = spans and bool((union == ~np.uint64(0)).all())
                del block, union  # not held while the next block is built
        except BudgetExceeded:
            # refused before the first batch: the certificate may decide
            cert = None if masks is not None else cell.certificate
            if cert is None or not _axes_in_classes(g, cert.classes):
                raise
            yield Section("corollary", "verified", len(cert.core) == k,
                          {"minimum_sets": cert.family_size, "all_contain_v_basis": True,
                           "method": "twin-core-certificate"})
            return
        # a resolving set of size dim exists, so an empty family fails
        yield Section("corollary", "verified", spans and count > 0,
                      {"minimum_sets": count, "all_contain_v_basis": spans})
    elif n == 3:
        ids = [vectorspace.parse_vertex(t, q, n) for t in ("e1", "e1+e3", "e3")]
        rep = resolving_mod.is_resolving(g, ids)
        dependent = not contains_v_basis(g, ids)
        minimum = len(ids) == done["dim"].body["search"]
        ok = rep.is_resolving and minimum and dependent
        yield Section("corollary", "counterexample-verified", ok,
                      {"witness": labels(g, ids), "ok": ok})


def _swaps(cell):
    """Twin swaps in resolving sets, checked exactly rather than sampled.

    (a) Each twin class passes `is_twin_class`, which reads skeleton distances,
    one block per class, not the adjacency rows behind the classes; the
    verdicts are the cell's one pass (`resolving.twin_class_verdicts`), and
    a class that pass did not test fails.  Each twin transposition is an
    automorphism, so every swap keeps every resolving set resolving
    (Hernando, Mora, Pelayo, Seara and Wood, 2010).
    (b) The canonical basis resolves, and so does the set that swaps, in each
    class, its least member in the basis for the least member outside.  A
    resolving set omits at most one member of a class, so a class the basis
    does not cut fails.
    """
    g = cell.g
    classes = [c for c in twins_mod.partition_by_neighborhood(g).classes if len(c) > 1]
    if not classes:
        yield Section("swaps", "no-twins", None, {})
        return
    pairs = sum(len(c) - 1 for c in classes)
    twins_ok = all(cell.twin_verdicts.get(c, False) for c in classes)
    basis = resolving_mod.canonical_metric_basis(g.q, g.n)
    members = set(basis)
    split = [([x for x in c if x in members], [x for x in c if x not in members])
             for c in classes]
    cut = [(ins[0], out[0]) for ins, out in split if ins and out]
    swapped = members.symmetric_difference(x for pair in cut for x in pair)
    ok = (twins_ok and len(cut) == len(classes) and resolving_mod.resolves(g, basis)
          and resolving_mod.resolves(g, swapped))
    yield Section("swaps", "checked", ok, {"pairs_checked": pairs,
                                           "classes_swapped": len(cut), "all_resolving": ok})


# (--timings window, check); a skipped check's section is named after its window
_CHECKS = (("counts", _counts), ("twins", _twins),
           ("dim", lambda cell: [dim_section(cell.g, cell.budget)]), ("corollary", _corollary),
           ("exchange", lambda cell: [exchange_section(cell.g, cell.budget,
                                                       lambda: cell.certificate)[0]]),
           ("swaps", _swaps))


def verify_cell(q: int, n: int, budget: int, vertex_cap: int,
                timings: bool) -> tuple[dict, str]:
    """One cell's record and its line of the text report."""
    start = time.perf_counter()
    try:
        g = graph_mod.ComponentGraph(q, n, vertex_cap=vertex_cap)
    except InstanceTooLarge as exc:
        return ({"q": q, "n": n, "status": "skipped", "reason": str(exc), "pass": True},
                f"q={q} n={n} cell=SKIPPED ({exc})")
    cell = _Cell(g, budget)
    done = cell.done
    windows = {}
    for window, check in _CHECKS:
        try:
            sections = list(check(cell))
        except (BudgetExceeded, InstanceTooLarge) as exc:
            sections = [Section(window, "skipped", None, {"reason": str(exc)})]
        done.update((s.label, s) for s in sections)
        now = time.perf_counter()
        windows[window], start = now - start, now
    passed = False not in [s.verdict for s in done.values()]
    record = {"q": q, "n": n, "vertices": g.vertex_count,
              **{s.key: s.json() for s in done.values()}, "pass": passed}
    if timings:
        record["timings"] = {k: round(v, 6) for k, v in windows.items()}
    return record, " ".join([f"q={q}", f"n={n}", *(s.token for s in done.values()),
                             f"cell={'PASS' if passed else 'FAIL'}"])


def report(qs: list[int], ns: list[int], budget: int, vertex_cap: int, seed: int,
           timings: bool, fmt: str) -> tuple[bool, str]:
    """The grid's overall pass and its report, text or JSON."""
    cells = [verify_cell(q, n, budget, vertex_cap, timings) for q in qs for n in ns]
    overall = all(record["pass"] for record, _ in cells)
    if fmt == "json":
        return overall, render_json({
            "schema_version": SCHEMA_VERSION,
            "config": {"qs": qs, "ns": ns, "budget": budget, "vertex_cap": vertex_cap,
                       # kept for schema_version 1 readers: --seed seeds nothing, and the
                       # escape hatch allow_theorem recorded is gone, so it is always false
                       "seed": seed, "allow_theorem": False},
            "records": [record for record, _ in cells], "overall_pass": overall,
        })
    return overall, "\n".join([f"schema_version={SCHEMA_VERSION}",
                               *(line for _, line in cells),
                               f"OVERALL: {'PASS' if overall else 'FAIL'}"]) + "\n"
