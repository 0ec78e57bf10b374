"""Command-line front end.

One executable with subcommands {graph, dim, twins, check, exchange,
intersect, verify}.  Exit codes are a stable contract: 0 all pass, 1
verification failure, 2 usage error (including instances over the vertex
cap and parse errors), 3 budget exceeded.

Reports are deterministic: identical configurations produce byte-identical
output, because `verify` checks its cells one after another in sorted
order, draws nothing at random, and includes timings only when --timings
is given.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from contextlib import nullcontext
from itertools import chain, product
from typing import Iterable

import numpy as np

from . import exchange as exchange_mod
from . import field as field_mod
from . import graph as graph_mod
from . import intersection as intersection_mod
from . import resolving as resolving_mod
from . import twins as twins_mod
from . import vectorspace
from .errors import (BadParameters, BudgetExceeded, InstanceTooLarge,
                     ResolvdimError)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# most hyperplane masks the corollary's spanning test gathers at once (64 kB)
_SPAN_MASKS = 1 << 13


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str | Iterable[str], out: str | None) -> None:
    with open(out, "w", newline="\n") if out is not None else nullcontext(sys.stdout) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _parse_range(raw: str, what: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", raw)
    if m is None:
        raise BadParameters(f"malformed {what} range {raw!r}; expected A..B")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise BadParameters(f"malformed {what} range {raw!r}: {lo} > {hi}")
    return lo, hi


def _resolve_qs(args) -> list[int]:
    if args.q is not None and args.q_range is not None:
        raise BadParameters("give either --q or --q-range, not both")
    if args.q is not None:
        field_mod.validate_order(args.q)
        return [args.q]
    if args.q_range is not None:
        lo, hi = _parse_range(args.q_range, "q")
        qs = [q for q in field_mod.SUPPORTED_ORDERS if lo <= q <= hi]
        if not qs:
            raise BadParameters(f"no supported field orders in {lo}..{hi}")
        return qs
    raise BadParameters("missing --q or --q-range")


def _resolve_ns(args) -> list[int]:
    if args.n is not None and args.n_range is not None:
        raise BadParameters("give either --n or --n-range, not both")
    if args.n is not None:
        if args.n < 1:
            raise BadParameters(f"n must be >= 1, got {args.n}")
        return [args.n]
    if args.n_range is not None:
        lo, hi = _parse_range(args.n_range, "n")
        if lo < 1:
            raise BadParameters("n range must start at 1 or above")
        return list(range(lo, hi + 1))
    raise BadParameters("missing --n or --n-range")


def _labels(g: graph_mod.ComponentGraph, ids) -> list[str]:
    return [g.label(v) for v in ids]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_graph(args) -> int:
    g = graph_mod.ComponentGraph(args.q, args.n, vertex_cap=args.vertex_cap)
    prefix = args.out if args.out else f"gamma_q{args.q}_n{args.n}"
    dot_path, edges_path = prefix + ".gv", prefix + ".edges"
    _emit(graph_mod.dot_chunks(g), dot_path)
    _emit(graph_mod.edge_list_chunks(g), edges_path)
    size = graph_mod.size_bruteforce(g)
    if args.format == "json":
        sys.stdout.write(render_json({"order": g.vertex_count, "size": size,
                                      "wrote": [dot_path, edges_path]}))
    else:
        sys.stdout.write(f"order={g.vertex_count} size={size}\n")
        sys.stdout.write(f"wrote {dot_path}\nwrote {edges_path}\n")
    return EXIT_PASS


def cmd_dim(args) -> int:
    g = graph_mod.ComponentGraph(args.q, args.n, vertex_cap=args.vertex_cap)
    formula = resolving_mod.metric_dimension_formula(args.q, args.n)
    search, witness = resolving_mod.metric_dimension_search(g, budget=args.budget)
    match = formula == search and resolving_mod.resolves(g, witness)
    if args.format == "json":
        text = render_json({
            "q": args.q, "n": args.n, "formula": formula, "search": search,
            "witness": _labels(g, witness), "match": match,
        })
    else:
        text = (f"q={args.q} n={args.n} dim_formula={formula} dim_search={search} "
                f"witness={','.join(_labels(g, witness))} match={str(match).lower()}\n")
    _emit(text, args.out)
    return EXIT_PASS if match else EXIT_FAIL


def cmd_twins(args) -> int:
    g = graph_mod.ComponentGraph(args.q, args.n, vertex_cap=args.vertex_cap)
    part = twins_mod.partition_by_neighborhood(g)
    classes = [(f"{mask:0{args.n}b}", _labels(g, cls))
               for cls, mask in zip(part.classes, part.skeletons)]
    if args.format == "json":
        _emit(render_json([{"mask": mask, "size": len(members), "members": members}
                           for mask, members in classes]), args.out)
    else:
        _emit("".join(f"mask={mask} size={len(members)} members=[{','.join(members)}]\n"
                      for mask, members in classes), args.out)
    return EXIT_PASS


def cmd_check(args) -> int:
    g = graph_mod.ComponentGraph(args.q, args.n, vertex_cap=args.vertex_cap)
    ids = vectorspace.parse_vertex_list(args.set, args.q, args.n)
    report = resolving_mod.is_resolving(g, ids)
    f = field_mod.field_new(args.q)
    vectors = [vectorspace.decode(v, args.q, args.n) for v in ids]
    spans = field_mod.has_full_rank(f, args.n, vectors)
    if args.format == "json":
        payload = {
            "q": args.q, "n": args.n, "W": _labels(g, ids),
            "resolving": report.is_resolving,
            "minimal": report.is_minimal,
            "contains_v_basis": spans,
            "colliding_pair": (None if report.colliding_pair is None
                               else _labels(g, report.colliding_pair)),
            "redundant_vertex": (None if report.redundant_vertex is None
                                 else g.label(report.redundant_vertex)),
        }
        _emit(render_json(payload), args.out)
    else:
        lines = [f"W={','.join(_labels(g, ids))}",
                 f"resolving={str(report.is_resolving).lower()}"]
        if report.colliding_pair is not None:
            u, v = report.colliding_pair
            lines.append(f"collision=({g.label(u)},{g.label(v)})")
        lines.append(f"minimal={str(report.is_minimal).lower()}")
        if report.redundant_vertex is not None:
            lines.append(f"redundant_vertex={g.label(report.redundant_vertex)}")
        lines.append(f"contains_v_basis={str(spans).lower()}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS if report.is_resolving else EXIT_FAIL


def cmd_exchange(args) -> int:
    if args.format == "text":
        raise BadParameters("exchange has JSON output only; drop --format text")
    g = graph_mod.ComponentGraph(args.q, args.n, vertex_cap=args.vertex_cap)
    report = exchange_mod.has_exchange_property(g, budget=args.budget)
    witness = None
    if report.witness is not None:
        witness = {
            "kind": "exchange-violation",
            "w1": _labels(g, report.witness.w1),
            "r": g.label(report.witness.r),
            "w2": _labels(g, report.witness.w2),
        }
    payload = {
        "q": args.q, "n": args.n,
        "holds": report.holds,
        "method": report.method,
        "sizes": list(report.minimal_set_sizes),
        "witness": witness,
    }
    _emit(render_json(payload), args.out)
    return EXIT_PASS


def cmd_intersect(args) -> int:
    if args.format == "json":
        raise BadParameters("intersect has text output only; drop --format json")
    ok = True
    if args.powerset is not None:
        fam = intersection_mod.powerset_family(args.powerset)
        text = intersection_mod.family_to_text(fam)
    elif args.correspondence is not None:
        ok = intersection_mod.powerset_matches_component_graph(args.correspondence)
        text = f"correspondence={str(ok).lower()}\n"
    elif args.dim_powerset is not None:
        text = "dim={}\n".format(intersection_mod.powerset_intersection_dimension(
            args.dim_powerset, budget=args.budget))
    elif args.family is not None:
        fam = intersection_mod.parse_family(_read_text(args.family))
        pg = intersection_mod.intersection_graph(fam)
        size = np.count_nonzero(pg.adjacency_matrix()) // 2
        ids = np.array([str(v) for v in range(pg.vertex_count + 1)], dtype=object)
        # one join over the id table per row of edge lines, ids 1-based
        text = chain([f"members={len(fam)} order={pg.vertex_count} size={size}\n"],
                     (f"{u + 1} " + f"\n{u + 1} ".join(ids[later + 1].tolist()) + "\n"
                      for u, later in pg.later_neighbors() if len(later)))
    elif args.realize is not None:
        if args.vertices is None:
            raise BadParameters("--realize needs --vertices N")
        edges = _parse_edge_file(_read_text(args.realize), args.vertices)
        fam = intersection_mod.as_intersection_family(
            intersection_mod.PlainGraph(args.vertices, edges))
        text = intersection_mod.family_to_text(fam)
    else:
        raise BadParameters("intersect needs one of --powerset, --family, "
                            "--correspondence, --realize, --dim-powerset")
    _emit(text, args.out)
    return EXIT_PASS if ok else EXIT_FAIL


def _read_text(path: str) -> str:
    """A UTF-8 input file; bytes that do not decode are a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise BadParameters(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _parse_edge_file(text: str, vertices: int) -> list[tuple[int, int]]:
    """Edge list with 1-based ids, one `u v` pair per line."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BadParameters(f"line {lineno}: expected `u v`, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadParameters(f"line {lineno}: vertex ids must be integers, "
                                f"got {line!r}") from None
        if not (1 <= u <= vertices and 1 <= v <= vertices):
            raise BadParameters(f"line {lineno}: vertex outside 1..{vertices}")
        edges.append((u - 1, v - 1))
    return edges


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
#
# A check runs on one cell's graph and yields (section, body, verdict): the
# section's text label, its JSON body and its verdict, True or False, or
# None when the body gives none (skipped, not-applicable, no-twins).
# `_verify_cell` is the one loop over the checks: it times each one, turns
# BudgetExceeded and InstanceTooLarge into a skipped section, and derives
# both the cell's pass and the text tokens from the same verdicts.

def _counts(g, args, record):
    """Order, size and completeness against the counting formulas."""
    q, n = g.q, g.n
    order = graph_mod.order_formula(q, n)
    enumerated = sum(1 for coeffs in product(range(q), repeat=n) if any(coeffs))
    ok = order == enumerated
    yield "order", {"formula": order, "enumerated": enumerated, "match": ok}, ok
    brute = graph_mod.size_bruteforce(g)
    size = graph_mod.size_formula(q, n)
    ok = size == brute
    yield "size", {"formula": size, "bruteforce": brute, "match": ok}, ok
    complete = graph_mod.is_complete(g)
    ok = complete == (n == 1)
    yield "complete", {"value": complete, "expected": n == 1, "match": ok}, ok


def _twins(g, args, record):
    coincide = twins_mod.partitions_coincide(g)
    yield "twins", {"status": "checked", "coincide": coincide}, coincide


def _dim(g, args, record):
    """Metric dimension, closed form against search; the witness must resolve."""
    formula = resolving_mod.metric_dimension_formula(g.q, g.n)
    search, witness = resolving_mod.metric_dimension_search(g, budget=args.budget)
    ok = formula == search and resolving_mod.resolves(g, witness)
    yield "dim", {"status": "checked", "formula": formula, "search": search,
                  "witness": _labels(g, witness), "match": ok}, ok


def _corollary(g, args, record):
    """Minimum resolving sets against linear independence."""
    q, n = g.q, g.n
    if q == 2 and n != 3:
        yield "corollary", {"status": "not-applicable"}, None
    elif record["dim"]["status"] == "skipped":
        yield "corollary", {"status": "skipped", "reason": "dim search skipped"}, None
    elif q >= 3:
        count, spans, masks = 0, True, None
        for block in resolving_mod.minimum_resolving_sets(
                g, record["dim"]["search"], args.budget):
            if masks is None:  # the budget has admitted the sets by now
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
        # a resolving set of size dim exists, so an empty family fails
        yield "corollary", {"status": "verified", "minimum_sets": count,
                            "all_contain_v_basis": spans}, spans and count > 0
    elif n == 3:
        ids = [vectorspace.parse_vertex(t, q, n) for t in ("e1", "e1+e3", "e3")]
        rep = resolving_mod.is_resolving(g, ids)
        f = field_mod.field_new(q)
        dependent = not field_mod.has_full_rank(
            f, n, [vectorspace.decode(v, q, n) for v in ids])
        minimum = len(ids) == record["dim"]["search"]
        ok = rep.is_resolving and minimum and dependent
        yield "corollary", {"status": "counterexample-verified",
                            "witness": _labels(g, ids), "ok": ok}, ok


def _exchange(g, args, record):
    report = exchange_mod.has_exchange_property(g, budget=args.budget)
    expected = g.q >= 3 or g.n <= 2  # the property fails exactly at q=2, n>=3
    ok = report.holds == expected
    yield "exchange", {"status": "checked", "holds": report.holds,
                       "method": report.method,
                       "sizes": list(report.minimal_set_sizes),
                       "expected": expected, "match": ok}, ok


def _swaps(g, args, record):
    """Twin swaps in resolving sets, checked exactly rather than sampled.

    (a) Each twin class passes `is_twin_class`, which reads skeleton
    distances, one block per class, not the adjacency rows behind the
    classes.  Each twin transposition is an automorphism, so every
    swap keeps every resolving set resolving (Hernando, Mora, Pelayo, Seara
    and Wood, 2010).  (b) The canonical basis resolves, and so does the set
    that swaps, in each class, its least member in the basis for the least
    member outside.  A resolving set omits at most one member of a class,
    so a class the basis does not cut fails.
    """
    classes = [c for c in twins_mod.partition_by_neighborhood(g).classes if len(c) > 1]
    if not classes:
        yield "swaps", {"status": "no-twins"}, None
        return
    pairs = sum(len(c) - 1 for c in classes)
    twins_ok = all([twins_mod.is_twin_class(g, c) for c in classes])  # no early stop
    basis = resolving_mod.canonical_metric_basis(g.q, g.n)
    members = set(basis)
    split = [([x for x in c if x in members], [x for x in c if x not in members])
             for c in classes]
    cut = [(ins[0], out[0]) for ins, out in split if ins and out]
    swapped = members.symmetric_difference(x for pair in cut for x in pair)
    ok = (twins_ok and len(cut) == len(classes) and resolving_mod.resolves(g, basis)
          and resolving_mod.resolves(g, swapped))
    yield "swaps", {"status": "checked", "pairs_checked": pairs,
                    "classes_swapped": len(cut), "all_resolving": ok}, ok


# (--timings window, check); a skipped check's section is named after its window
_CHECKS = (("counts", _counts), ("twins", _twins), ("dim", _dim),
           ("corollary", _corollary), ("exchange", _exchange), ("swaps", _swaps))
# record key of a section whose text label differs from it
_RECORD_KEY = {"swaps": "twin_swap_trials"}
_NO_VERDICT_TOKEN = {"skipped": "skipped", "not-applicable": "n/a", "no-twins": "no-twins"}


def _verify_cell(args, q: int, n: int) -> tuple[dict, str]:
    """One cell's record and its line of the text report."""
    start = time.perf_counter()
    try:
        g = graph_mod.ComponentGraph(q, n, vertex_cap=args.vertex_cap)
    except InstanceTooLarge as exc:
        return ({"q": q, "n": n, "status": "skipped", "reason": str(exc), "pass": True},
                f"q={q} n={n} cell=SKIPPED ({exc})")
    record: dict = {"q": q, "n": n, "vertices": g.vertex_count}
    timings: dict[str, float] = {}
    verdicts: list[bool | None] = []
    tokens = [f"q={q}", f"n={n}"]
    for window, check in _CHECKS:
        try:
            sections = list(check(g, args, record))
        except (BudgetExceeded, InstanceTooLarge) as exc:
            sections = [(window, {"status": "skipped", "reason": str(exc)}, None)]
        for label, body, verdict in sections:
            record[_RECORD_KEY.get(label, label)] = body
            verdicts.append(verdict)
            if verdict is None:
                tokens.append(f"{label}={_NO_VERDICT_TOKEN[body['status']]}")
            else:
                tokens.append(f"{label}={'ok' if verdict else 'FAIL'}")
        now = time.perf_counter()
        timings[window], start = now - start, now
    record["pass"] = False not in verdicts
    tokens.append(f"cell={'PASS' if record['pass'] else 'FAIL'}")
    if args.timings:
        record["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return record, " ".join(tokens)


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise BadParameters(f"--workers must be >= 1, got {args.workers}")
    if args.timings and args.format != "json":
        raise BadParameters("--timings is reported in JSON only; add --format json")
    qs, ns = sorted(_resolve_qs(args)), sorted(_resolve_ns(args))
    cells = [_verify_cell(args, q, n) for q in qs for n in ns]
    overall = all(record["pass"] for record, _ in cells)
    if args.format == "json":
        text = render_json({
            "schema_version": SCHEMA_VERSION,
            "config": {"qs": qs, "ns": ns, "budget": args.budget,
                       "vertex_cap": args.vertex_cap,
                       # kept for schema_version 1 readers: --seed seeds
                       # nothing, and the escape hatch allow_theorem
                       # recorded is gone, so it is always false
                       "seed": args.seed, "allow_theorem": False},
            "records": [record for record, _ in cells],
            "overall_pass": overall,
        })
    else:
        text = "\n".join([f"schema_version={SCHEMA_VERSION}",
                          *(line for _, line in cells),
                          f"OVERALL: {'PASS' if overall else 'FAIL'}"]) + "\n"
    _emit(text, args.out)
    return EXIT_PASS if overall else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_qn(sp, required: bool = True) -> None:
    sp.add_argument("--q", type=int, required=required,
                    help="field order (a supported prime power)")
    sp.add_argument("--n", type=int, required=required, help="space dimension")
    sp.add_argument("--vertex-cap", type=int, default=vectorspace.DEFAULT_VERTEX_CAP)


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.add_argument("--budget", type=int, default=resolving_mod.DEFAULT_BUDGET,
                    help=f"max subset evaluations (default {resolving_mod.DEFAULT_BUDGET})")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resolvdim",
        description="Resolving sets and metric dimension of the nonzero "
                    "component graph of GF(q)^n, with exact verification.")
    sub = p.add_subparsers(dest="command", required=True)

    for name, handler, text in (
            ("graph", cmd_graph, "export DOT and edge-list files"),
            ("dim", cmd_dim, "metric dimension, formula vs search"),
            ("twins", cmd_twins, "twin classes, one line per class")):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(handler=handler)
        _add_qn(sp)
        _add_common(sp)

    sp = sub.add_parser("check", help="resolving/minimal status of a vertex set")
    sp.set_defaults(handler=cmd_check)
    _add_qn(sp)
    sp.add_argument("-W", "--set", required=True,
                    help="comma-separated vertices, e.g. e1,e1+e3,e3")
    _add_common(sp)

    sp = sub.add_parser("exchange", help="exchange-property verdict (JSON)")
    _add_qn(sp)
    _add_common(sp)
    sp.set_defaults(handler=cmd_exchange, format="json")

    sp = sub.add_parser("intersect", help="set families and intersection graphs")
    sp.set_defaults(handler=cmd_intersect)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--powerset", type=int, metavar="N",
                       help="emit the nonempty-subsets family of {1..N}")
    group.add_argument("--family", metavar="FILE",
                       help="read a family file and print its intersection graph")
    group.add_argument("--correspondence", type=int, metavar="N",
                       help="check the q=2 powerset identification for GF(2)^N")
    group.add_argument("--realize", metavar="FILE",
                       help="realize an edge-list graph as an intersection family")
    group.add_argument("--dim-powerset", type=int, metavar="N",
                       help="metric dimension of the powerset intersection graph")
    sp.add_argument("--vertices", type=int, default=None,
                    help="vertex count for --realize (ids are 1-based)")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run the verification suite over a grid")
    sp.set_defaults(handler=cmd_verify)
    _add_qn(sp, required=False)
    sp.add_argument("--q-range", default=None, metavar="A..B")
    sp.add_argument("--n-range", default=None, metavar="A..B")
    sp.add_argument("--workers", type=int, default=1,
                    help="accepted for compatibility; cells run one after another")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (JSON only; breaks byte "
                         "determinism)")
    sp.add_argument("--seed", type=int, default=0,
                    help="accepted for compatibility; seeds nothing")
    _add_common(sp)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.budget < 0:
            raise BadParameters(f"budget must be >= 0, got {args.budget}")
        if getattr(args, "vertex_cap", 1) < 1:
            raise BadParameters(f"--vertex-cap must be >= 1, got {args.vertex_cap}")
        return args.handler(args)
    except BudgetExceeded as exc:
        bounds = ""
        if exc.lower_bound is not None or exc.upper_bound is not None:
            bounds = f" (bounds: {exc.lower_bound}..{exc.upper_bound})"
        sys.stderr.write(f"budget exceeded: {exc}{bounds}\n")
        return EXIT_BUDGET
    except ResolvdimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:  # an input too large to hold, not a failed check
        detail = " ".join(str(exc).split())
        sys.stderr.write(f"error: out of memory{': ' + detail if detail else ''}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
