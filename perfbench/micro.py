"""Pinned per-layer microbenchmarks on resolvdim's public functions.

Each entry times one engine path or graph-layer routine on a fixed input
and records the input size, so every rate carries its base.  Results are
checked against the known answers in `expected`.

- narrow: first-hit search on the (2,6) matrix, budget 1e6 (codes fit one
  int64 word).
- wide: first-hit search on the (3,4) matrix from twin bound 65, above the
  38-digit narrow limit, budget 20000.
- all_hits: every resolving 19-subset at (3,3), C(26,19) = 657,800 subsets.
- mask_table: the 2^20 subset table and the exchange verdict on a seeded
  G(20, 0.3) PlainGraph.
- graph layer at N = 4095 (q=2, n=12): distance matrix, twin partition,
  brute-force edge count and one BFS.
"""

from __future__ import annotations

import random
import time
from math import comb

import numpy as np

import expected
from resolvdim import exchange, graph, intersection, resolving, twins
from resolvdim.errors import BudgetExceeded


def _lex_rank(cols, n: int) -> int:
    """Position of a sorted k-subset of range(n) in lexicographic order."""
    rank, prev, k = 0, -1, len(cols)
    for i, c in enumerate(cols):
        for skipped in range(prev + 1, c):
            rank += comb(n - skipped - 1, k - i - 1)
        prev = c
    return rank


def first_hit(q: int, n: int, budget: int) -> dict:
    """find_min_resolving_for_matrix on a component graph's matrix.

    The base is the engine's own count when the budget runs out.  On a hit
    it is the number of subsets a plain lexicographic walk from the twin
    bound evaluates to reach that witness, so pruning raises the rate.
    """
    g = graph.ComponentGraph(q, n)
    dist = g.distance_matrix()
    classes = [[v - 1 for v in c] for c in twins.partition_by_neighborhood(g).classes]
    start_k = max(1, sum(len(c) - 1 for c in classes))
    start = time.perf_counter()
    try:
        k, cols = resolving.find_min_resolving_for_matrix(dist, classes, budget)
    except BudgetExceeded as exc:
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "subsets": exc.evaluated, "N": g.vertex_count,
                "k_start": start_k, "k_reached": exc.lower_bound, "outcome": "budget",
                "ok": exc.evaluated == budget}
    seconds = time.perf_counter() - start
    walked = sum(comb(g.vertex_count, j) for j in range(start_k, k)) \
        + _lex_rank(cols, g.vertex_count) + 1
    ids = [c + 1 for c in cols]
    ok = k == expected.dim(q, n) and expected.resolves(expected.skeletons(q, n), ids)
    return {"seconds": seconds, "subsets": walked, "N": g.vertex_count,
            "k_start": start_k, "k_reached": k, "outcome": "hit", "ok": ok}


def all_hits() -> dict:
    q, n, k = 3, 3, 19
    g = graph.ComponentGraph(q, n)
    dist = g.distance_matrix()
    start = time.perf_counter()
    found = resolving.all_resolving_k_subsets(dist, k, 1_000_000)
    seconds = time.perf_counter() - start
    masks = expected.skeletons(q, n)
    ok = len(found) == expected.minimum_set_count(q, n) and all(
        expected.resolves(masks, [c + 1 for c in cols]) for cols in found[::97])
    return {"seconds": seconds, "subsets": comb(g.vertex_count, k), "N": g.vertex_count,
            "k": k, "hits": len(found), "ok": ok}


def mask_table(seed: int) -> tuple[dict, dict]:
    vertices = 20
    rng = random.Random(f"mask:{seed}")
    edges = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)
             if rng.random() < 0.3]
    pg = intersection.PlainGraph(vertices, edges)
    dist = pg.distance_matrix()
    start = time.perf_counter()
    status = resolving.resolving_status_by_mask(dist, 1 << vertices)
    table_s = time.perf_counter() - start
    reference = expected.plain_distances(vertices, edges)
    sample = rng.sample(range(1 << vertices), 256)
    ok = np.array_equal(dist, reference) and all(
        bool(status[m]) == expected.mask_resolves(reference, m) for m in sample)
    table = {"seconds": table_s, "subsets": 1 << vertices, "N": vertices,
             "edges": len(edges), "ok": bool(ok)}

    start = time.perf_counter()
    report = exchange.has_exchange_property(pg, budget=1 << vertices)
    exchange_s = time.perf_counter() - start
    all_masks = np.arange(1 << vertices)
    popcount = sum((all_masks >> i) & 1 for i in range(vertices))
    smallest = int(popcount[status].min())
    verdict = {"seconds": exchange_s, "N": vertices, "holds": report.holds,
               "minimal_sets": len(report.minimal_set_sizes),
               "ok": report.method == "definition-check"
               and min(report.minimal_set_sizes) == smallest}
    return table, verdict


def graph_layer() -> dict:
    q, n = 2, 12
    out = {"N": expected.order(q, n)}
    start = time.perf_counter()
    g = graph.ComponentGraph(q, n)
    dist = g.distance_matrix()
    out["distance_matrix_s"] = time.perf_counter() - start
    start = time.perf_counter()
    part = twins.partition_by_neighborhood(g)
    out["partition_s"] = time.perf_counter() - start
    start = time.perf_counter()
    edges = graph.size_bruteforce(g)
    out["size_bruteforce_s"] = time.perf_counter() - start
    start = time.perf_counter()
    bfs = graph.bfs_distances(g, 1)
    out["bfs_s"] = time.perf_counter() - start

    masks = expected.skeletons(q, n)
    ok = edges == expected.size(q, n) and len(part.classes) == expected.order(q, n)
    for lo in range(0, len(masks), 512):
        block = np.where((masks[lo:lo + 512, None] & masks[None, :]) != 0, 1, 2)
        block[np.arange(len(block)), np.arange(lo, lo + len(block))] = 0
        ok = ok and np.array_equal(dist[lo:lo + 512], block)
    out["ok"] = bool(ok and bfs[1:] == dist[0].tolist())
    return out


def run_all(seed: int) -> dict:
    table, verdict = mask_table(seed)
    return {"narrow": first_hit(2, 6, 1_000_000), "wide": first_hit(3, 4, 20_000),
            "all_hits": all_hits(), "mask_table": table, "exchange": verdict,
            "graph_layer": graph_layer()}
