"""Command-line front end: the parser, the subcommands and the exit codes.

One executable with subcommands {graph, dim, twins, check, exchange,
intersect, verify}.  Exit codes are a stable contract: 0 all pass, 1
verification failure, 2 usage error (including instances over the vertex
cap and parse errors), 3 budget exceeded.  The checks behind `dim`,
`exchange` and `verify` live in `resolvdim.verify`.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Iterable

import numpy as np

from . import (field as field_mod, graph as graph_mod, intersection as intersection_mod,
               resolving as resolving_mod, twins as twins_mod, vectorspace, verify)
from .errors import BadParameters, BudgetExceeded, ResolvdimError
from .verify import labels, render_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(text: str | Iterable[str], out: str | None) -> None:
    with open(out, "w", newline="\n") if out is not None else nullcontext(sys.stdout) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _parse_range(args, name: str) -> tuple[int, int] | None:
    """The bounds of --NAME-range A..B, or None when --NAME is given."""
    one, raw = getattr(args, name), getattr(args, f"{name}_range")
    if one is not None and raw is not None:
        raise BadParameters(f"give either --{name} or --{name}-range, not both")
    if one is not None:
        return None
    if raw is None:
        raise BadParameters(f"missing --{name} or --{name}-range")
    m = re.fullmatch(r"(\d+)\.\.(\d+)", raw)
    if m is None:
        raise BadParameters(f"malformed {name} range {raw!r}; expected A..B")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise BadParameters(f"malformed {name} range {raw!r}: {lo} > {hi}")
    return lo, hi


def _resolve_qs(args) -> list[int]:
    bounds = _parse_range(args, "q")
    if bounds is None:
        field_mod.validate_order(args.q)
        return [args.q]
    qs = [q for q in field_mod.SUPPORTED_ORDERS if bounds[0] <= q <= bounds[1]]
    if not qs:
        raise BadParameters("no supported field orders in {}..{}".format(*bounds))
    return qs


def _resolve_ns(args) -> list[int]:
    bounds = _parse_range(args, "n")
    if bounds is None:
        if args.n < 1:
            raise BadParameters(f"n must be >= 1, got {args.n}")
        return [args.n]
    if bounds[0] < 1:
        raise BadParameters("n range must start at 1 or above")
    return list(range(bounds[0], bounds[1] + 1))


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
    body = verify.dim_section(g, args.budget).body
    if args.format == "json":
        text = render_json({"q": args.q, "n": args.n, **body})
    else:
        text = (f"q={args.q} n={args.n} dim_formula={body['formula']} "
                f"dim_search={body['search']} witness={','.join(body['witness'])} "
                f"match={str(body['match']).lower()}\n")
    _emit(text, args.out)
    return EXIT_PASS if body["match"] else EXIT_FAIL


def cmd_twins(args) -> int:
    g = graph_mod.ComponentGraph(args.q, args.n, vertex_cap=args.vertex_cap)
    part = twins_mod.partition_by_neighborhood(g)
    classes = [(f"{mask:0{args.n}b}", labels(g, cls))
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
    spans = verify.contains_v_basis(g, ids)
    pair, extra = report.colliding_pair, report.redundant_vertex
    if args.format == "json":
        _emit(render_json({
            "q": args.q, "n": args.n, "W": labels(g, ids), "resolving": report.is_resolving,
            "minimal": report.is_minimal, "contains_v_basis": spans,
            "colliding_pair": None if pair is None else labels(g, pair),
            "redundant_vertex": None if extra is None else g.label(extra),
        }), args.out)
    else:
        lines = [f"W={','.join(labels(g, ids))}",
                 f"resolving={str(report.is_resolving).lower()}"]
        if pair is not None:
            lines.append(f"collision=({g.label(pair[0])},{g.label(pair[1])})")
        lines.append(f"minimal={str(report.is_minimal).lower()}")
        if extra is not None:
            lines.append(f"redundant_vertex={g.label(extra)}")
        lines.append(f"contains_v_basis={str(spans).lower()}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS if report.is_resolving else EXIT_FAIL


def cmd_exchange(args) -> int:
    if args.format == "text":
        raise BadParameters("exchange has JSON output only; drop --format text")
    g = graph_mod.ComponentGraph(args.q, args.n, vertex_cap=args.vertex_cap)
    section, witness = verify.exchange_section(g, args.budget)
    payload = {k: v for k, v in section.body.items() if k not in ("expected", "match")}
    _emit(render_json({"q": args.q, "n": args.n, **payload, "witness": witness}), args.out)
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
        if u == v:
            raise BadParameters(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u - 1, v - 1))
    return edges


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise BadParameters(f"--workers must be >= 1, got {args.workers}")
    if args.timings and args.format != "json":
        raise BadParameters("--timings is reported in JSON only; add --format json")
    overall, text = verify.report(sorted(_resolve_qs(args)), sorted(_resolve_ns(args)),
                                  args.budget, args.vertex_cap, args.seed, args.timings,
                                  args.format)
    _emit(text, args.out)
    return EXIT_PASS if overall else EXIT_FAIL


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
        known = exc.lower_bound is not None or exc.upper_bound is not None
        bounds = f" (bounds: {exc.lower_bound}..{exc.upper_bound})" if known else ""
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
