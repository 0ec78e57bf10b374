"""Traced pass: a workload's commands in-process through resolvdim.cli.main.

Usage: python3 perfbench/tracer.py SPEC OUT

SPEC is a JSON file {"commands": [argv, ...], "seed": S}.  The pinned
microbenchmarks run first, untraced.  Then the public functions listed in
WRAPPED are wrapped in place, so calls from the CLI and from other resolvdim
modules alike record a span (name, start, end, parent, command).  Counts
are taken at the same boundaries.  Spans stay in memory; OUT receives the
spans, counts, each command's exit code and output, and the microbenchmark
results when the pass ends, with the measured cost of one span.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import traceback
import types
from pathlib import Path

import micro
from resolvdim import (cli, exchange, field, graph, intersection, resolving, twins,
                       vectorspace)

# (module, class or None, attribute, span name, counter name, count of result)
WRAPPED = [
    (field, None, "rank", "field.rank", None, None),
    (vectorspace, None, "vertex_text", "vectorspace.vertex_text", None, None),
    (graph, "ComponentGraph", "__init__", "graph.build", None, None),
    (graph, "ComponentGraph", "adjacency_matrix", "graph.adjacency_matrix", None, None),
    (graph, "ComponentGraph", "distance_matrix", "graph.distance_matrix", None, None),
    (graph, None, "size_bruteforce", "graph.size_bruteforce", None, None),
    (graph, None, "is_complete", "graph.is_complete", None, None),
    (graph, None, "to_dot", "graph.to_dot",
     "graph.edges_exported", lambda text: text.count(" -- ")),
    (graph, None, "to_edge_list", "graph.to_edge_list",
     "graph.edges_exported", lambda text: text.count("\n")),
    (twins, None, "partition_by_neighborhood", "twins.partition_by_neighborhood",
     None, None),
    (twins, None, "partitions_coincide", "twins.partitions_coincide", None, None),
    (twins, None, "twin_swap", "twins.twin_swap", None, None),
    (resolving, None, "is_resolving", "resolving.is_resolving", None, None),
    (resolving, None, "metric_dimension_search", "resolving.metric_dimension_search",
     None, None),
    (resolving, None, "find_min_resolving_for_matrix",
     "resolving.find_min_resolving_for_matrix", None, None),
    (resolving, None, "all_resolving_k_subsets", "resolving.all_resolving_k_subsets",
     None, None),
    (resolving, None, "resolving_status_by_mask", "resolving.resolving_status_by_mask",
     None, None),
    (resolving, None, "minimal_status_by_mask", "resolving.minimal_status_by_mask",
     None, None),
    (exchange, None, "has_exchange_property", "exchange.has_exchange_property",
     "exchange.minimal_sets", lambda report: len(report.minimal_set_sizes)),
    (intersection, None, "intersection_graph", "intersection.intersection_graph",
     None, None),
    (intersection, None, "as_intersection_family", "intersection.as_intersection_family",
     None, None),
    (intersection, "PlainGraph", "distance_matrix", "intersection.PlainGraph.distance_matrix",
     None, None),
    (intersection, None, "powerset_matches_component_graph",
     "intersection.powerset_matches_component_graph", None, None),
    (intersection, None, "powerset_intersection_dimension",
     "intersection.powerset_intersection_dimension", None, None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.command = -1
        self.missing: list[str] = []

    def wrap(self, module, cls, attr, name, counter, count) -> None:
        owner = getattr(module, cls, None) if cls else module
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.command)
            if counter is not None:
                tracer.counts[counter] = tracer.counts.get(counter, 0) + count(result)
            return result

        setattr(owner, attr, traced)

    def run(self, index: int, argv: list[str]) -> dict:
        self.command = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "wall_s": wall}


def span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""
    def noop():
        return None

    holder = types.SimpleNamespace(noop=noop)
    Tracer().wrap(holder, None, "noop", "probe", None, None)
    start = time.perf_counter()
    for _ in range(calls):
        holder.noop()
    wrapped = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(wrapped - (time.perf_counter() - start), 0.0) / calls


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    bench = micro.run_all(spec["seed"])
    tracer = Tracer()
    for entry in WRAPPED:
        tracer.wrap(*entry)
    results = [tracer.run(i, argv) for i, argv in enumerate(spec["commands"])]
    Path(out_path).write_text(json.dumps({
        "commands": results, "spans": tracer.spans, "counts": tracer.counts,
        "missing": tracer.missing, "micro": bench, "span_cost_s": span_cost()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
