"""resolvdim benchmark: CLI workloads with checked verdicts and layer timings.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Each command of the workload runs as its own `python -m resolvdim` process,
one at a time (a closed loop with one client, `--workers 1`).  Every output
is checked against answers computed in `expected.py`, never by resolvdim's
own formulas.

--trace 0 repeats the workload's command list in passes while another pass
still fits in --seconds (at least one pass) and reports the end-to-end
metrics.  Each pass's outputs must match the first pass byte for byte.

--trace 1 runs one untraced pass, then the same commands in-process through
`resolvdim.cli.main` with spans around resolvdim's public functions
(tracer.py), plus the pinned microbenchmarks (micro.py), and reports the
per-layer metrics.  On `grid` it also reruns the report under --workers 2.

The last stdout line is the result object {correct, attempted, failed,
metrics}; the line before it holds provenance, per-command figures and
quartiles.  Exits 2 without a result when the resolvdim sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import expected
import runner
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"

RUN_LIMIT_S = 165.0        # every run ends well inside 180 s
COMMAND_GUARD_S = 120.0    # one command may take at most this long
SETUP_PER_PASS = 3         # set-up probes before each pass and after the last

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_share": "1",
    "cells_fully_checked": "count", "ok_share": "1",
}

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "field.rank_s": ["field.rank"],
    "vectorspace.vertex_text_s": ["vectorspace.vertex_text"],
    "graph.build_s": ["graph.build"],
    "graph.distance_matrix_s": ["graph.adjacency_matrix", "graph.distance_matrix"],
    "graph.size_bruteforce_s": ["graph.size_bruteforce"],
    "graph.export_s": ["graph.to_dot", "graph.to_edge_list"],
    "twins.partition_s": ["twins.partition_by_neighborhood"],
    "twins.swap_s": ["twins.twin_swap"],
    "resolving.is_resolving_s": ["resolving.is_resolving"],
    "resolving.first_hit_s": ["resolving.find_min_resolving_for_matrix"],
    "resolving.all_hits_s": ["resolving.all_resolving_k_subsets"],
    "exchange.quantifier_s": ["exchange.has_exchange_property"],
    "intersection.intersection_graph_s": ["intersection.intersection_graph"],
    "intersection.realize_s": ["intersection.as_intersection_family"],
    "intersection.plain_distance_matrix_s": ["intersection.PlainGraph.distance_matrix"],
}
CALLS = {
    "field.rank_calls": "field.rank",
    "resolving.is_resolving_calls": "resolving.is_resolving",
}
CHECKS = ("counts", "twins", "dim", "corollary", "exchange", "swaps")
# verify check -> top-level spans that run inside its --timings window
CHECK_SPANS = {
    "counts": ("graph.build", "graph.size_bruteforce", "graph.is_complete"),
    "twins": ("twins.partitions_coincide",),
    "dim": ("resolving.metric_dimension_search",),
    "corollary": ("resolving.all_resolving_k_subsets", "field.rank",
                  "graph.distance_matrix"),
    "exchange": ("exchange.has_exchange_property",),
    "swaps": ("twins.partition_by_neighborhood", "resolving.is_resolving",
              "twins.twin_swap"),
}
# spans must cover this share of a check's --timings total, less the slack
CHECK_COVERAGE = 0.8
CHECK_SLACK_S = 0.05


PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    "graph.edges_per_s": "1/s", "graph.bfs_s": "s",
    "resolving.narrow_subsets_per_s": "1/s", "resolving.wide_subsets_per_s": "1/s",
    "resolving.all_hits_subsets_per_s": "1/s",
    "resolving.mask_table_subsets_per_s": "1/s",
    "exchange.minimal_sets": "count",
    "micro.exchange_s": "s", "micro.graph.distance_matrix_s": "s",
    "micro.twins.partition_s": "s", "micro.graph.size_bruteforce_s": "s",
    "trace.overhead_share": "1",
    **{f"cli.check_s.{c}": "s" for c in CHECKS},
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.launcher = runner.Launcher(runner.child_env(SRC), scratch)
        self.cmds = workloads.commands(workload, seed, scratch)

    def guard(self) -> float:
        return min(COMMAND_GUARD_S, self.deadline - time.monotonic())

    def run_pass(self) -> list[dict]:
        rows = []
        for cmd in self.cmds:
            run = self.launcher.resolvdim(cmd.argv, self.guard())
            rows.append(judge(cmd, run.code, run.out, run.err, run.timed_out,
                              wall_s=run.wall_s, maxrss_mb=run.maxrss_mb))
        return rows


def judge(cmd, code, out, err, timed_out, **extra) -> dict:
    if timed_out:
        outcome = expected.Outcome(False, "killed by the wall-clock guard", decided=0)
    else:
        outcome = expected.check(cmd, code, out, err)
    return {"cmd": cmd, "code": code, "outcome": outcome, **extra}


def gate(reference: list[dict], rows: list[dict], label: str) -> None:
    """Determinism gate: a report that differs from the reference fails."""
    for ref, row in zip(reference, rows):
        out = row["outcome"]
        if out.ok and ref["outcome"].ok and out.canonical != ref["outcome"].canonical:
            out.ok = False
            out.reason = f"report differs from the first run ({label})"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def command_rows(passes: list[list[dict]]) -> list[dict]:
    out = []
    for i, cmd in enumerate(passes[0]):
        runs = [p[i] for p in passes]
        out.append({
            "command": cmd["cmd"].text,
            "exit": sorted({r["code"] for r in runs}),
            "wall_s": [round(r["wall_s"], 6) for r in runs],
            "maxrss_mb": max(r["maxrss_mb"] for r in runs),
            "ok": all(r["outcome"].ok for r in runs),
            "reasons": sorted({r["outcome"].reason for r in runs if r["outcome"].reason}),
        })
    return out


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = bench.launcher.setup_time(SETUP_PER_PASS, bench.guard(), warm_up=True)
    passes: list[list[dict]] = []
    start = time.monotonic()
    while True:
        if passes:
            setup += bench.launcher.setup_time(SETUP_PER_PASS, bench.guard())
        passes.append(bench.run_pass())
        if len(passes) > 1:
            gate(passes[0], passes[-1], f"pass {len(passes)}")
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or time.monotonic() + per_pass > bench.deadline:
            break
    setup += bench.launcher.setup_time(SETUP_PER_PASS, bench.guard())
    rows = [r for p in passes for r in p]
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    failed = sum(not r["outcome"].ok for r in rows)
    q1, q3 = quartiles(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["maxrss_mb"] for r in rows),
        "decided_share": sum(r["outcome"].decided for r in rows)
        / sum(r["outcome"].checks for r in rows),
        "cells_fully_checked": statistics.median(
            sum(r["outcome"].full_cells for r in p) for p in passes),
        "ok_share": 1.0 - failed / len(rows),
    }
    detail = {
        "wall_s": {"median": metrics["wall_s"], "q1": q1, "q3": q3, "passes": len(walls),
                   "samples": walls},
        "setup_s": {"median": metrics["setup_s"], "samples": setup},
        "commands": command_rows(passes),
    }
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}
    return result, detail


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced(bench: Bench) -> tuple[dict, dict]:
    reference = bench.run_pass()
    untraced_wall = sum(r["wall_s"] for r in reference)
    rows = list(reference)
    problems: list[str] = []

    detail: dict = {"untraced_wall_s": untraced_wall}
    if bench.workload == "grid":
        # The report must not depend on --workers; threads stay within nproc.
        if len(os.sched_getaffinity(0)) >= 2:
            cmd = bench.cmds[0]
            argv = cmd.argv[:cmd.argv.index("--workers")] + ["--workers", "2"]
            run = bench.launcher.resolvdim(argv, bench.guard())
            row = judge(cmd, run.code, run.out, run.err, run.timed_out)
            gate(reference, [row], "--workers 2")
            rows.append(row)
        else:
            detail["note"] = "one CPU: the --workers 2 comparison did not run"

    TRACE_DIR.mkdir(exist_ok=True)
    spec = bench.scratch / "trace-spec.json"
    trace_file = TRACE_DIR / f"trace-{bench.workload}-seed{bench.seed}.json"
    spec.write_text(json.dumps({
        "seed": bench.seed,
        "commands": [c.argv + (["--timings"] if c.kind == "verify" else [])
                     for c in bench.cmds]}))
    child = bench.launcher.spawn([sys.executable, str(Path(__file__).with_name("tracer.py")),
                                  str(spec), str(trace_file)],
                                 bench.deadline - time.monotonic())
    if child.code != 0 or child.timed_out:
        problems.append(f"tracer exited {child.code}: {child.err.decode(errors='replace')}")
        trace = None
    else:
        trace = json.loads(trace_file.read_text())

    layer = {name: 0.0 for name in PER_LAYER}
    if trace is not None:
        traced_rows = [judge(cmd, c["code"], c["out"].encode(), c["err"].encode(), False,
                             wall_s=c["wall_s"])
                       for cmd, c in zip(bench.cmds, trace["commands"])]
        gate(reference, traced_rows, "traced")
        rows.extend(traced_rows)
        traced_wall = sum(r["wall_s"] for r in traced_rows)
        problems += fill_layers(layer, trace, bench.cmds)
        # wrapper cost of every span recorded, against the untraced wall time
        layer["trace.overhead_share"] = \
            len(trace["spans"]) * trace["span_cost_s"] / untraced_wall
        detail.update(traced_wall_s=traced_wall, micro=trace["micro"],
                      missing_wrappers=trace["missing"], trace_file=str(trace_file.name),
                      spans=span_table(trace["spans"]))

    failed = sum(not r["outcome"].ok for r in rows)
    detail["commands"] = [{"command": r["cmd"].text, "exit": r["code"], "ok": r["outcome"].ok,
                           "reason": r["outcome"].reason} for r in rows]
    detail["problems"] = problems
    result = {"correct": failed == 0 and not problems, "attempted": len(rows),
              "failed": failed + len(problems),
              "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}}
    return result, detail


def span_table(spans: list) -> dict:
    """Calls, inclusive and self seconds per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, list] = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        entry = table.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - inner
    return {k: {"calls": c, "incl_s": i, "self_s": s} for k, (c, i, s) in sorted(table.items())}


def fill_layers(layer: dict, trace: dict, cmds) -> list[str]:
    spans = span_table(trace["spans"])
    problems = []
    for metric, names in SELF_TIME.items():
        layer[metric] = sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
    for metric, name in CALLS.items():
        layer[metric] = spans.get(name, {}).get("calls", 0)
    counts = trace["counts"]
    if layer["graph.export_s"] > 0:
        layer["graph.edges_per_s"] = counts.get("graph.edges_exported", 0) / layer["graph.export_s"]
    layer["exchange.minimal_sets"] = counts.get("exchange.minimal_sets", 0)

    micro = trace["micro"]
    for metric, key in (("resolving.narrow_subsets_per_s", "narrow"),
                        ("resolving.wide_subsets_per_s", "wide"),
                        ("resolving.all_hits_subsets_per_s", "all_hits"),
                        ("resolving.mask_table_subsets_per_s", "mask_table")):
        layer[metric] = micro[key]["subsets"] / micro[key]["seconds"]
    layer["micro.exchange_s"] = micro["exchange"]["seconds"]
    g = micro["graph_layer"]
    layer["graph.bfs_s"] = g["bfs_s"]
    layer["micro.graph.distance_matrix_s"] = g["distance_matrix_s"]
    layer["micro.twins.partition_s"] = g["partition_s"]
    layer["micro.graph.size_bruteforce_s"] = g["size_bruteforce_s"]
    problems += [f"microbenchmark {k} gave a wrong answer" for k, v in micro.items()
                 if not v["ok"]]

    # per-check totals: --timings against the spans inside each check's window
    timed = {c: 0.0 for c in CHECKS}
    spanned = {c: 0.0 for c in CHECKS}
    owner = {name: c for c, names in CHECK_SPANS.items() for name in names}
    verify_cmds = {i for i, cmd in enumerate(cmds) if cmd.kind == "verify"}
    for i in verify_cmds:
        report = json.loads(trace["commands"][i]["out"] or "{}")
        for rec in report.get("records", []):
            for c, v in rec.get("timings", {}).items():
                timed[c] += v
    for name, start, end, parent, command in trace["spans"]:
        if parent < 0 and command in verify_cmds and name in owner:
            spanned[owner[name]] += end - start
    for c in CHECKS:
        layer[f"cli.check_s.{c}"] = timed[c]
        if not (CHECK_COVERAGE * timed[c] - CHECK_SLACK_S <= spanned[c]
                <= timed[c] + CHECK_SLACK_S):
            problems.append(f"check {c}: spans {spanned[c]:.3f} s against "
                            f"--timings {timed[c]:.3f} s")
    return problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "seed": seed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resolvdim" / "cli.py").is_file():
        print(f"perfbench: no resolvdim sources under {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    bench = None
    try:
        bench = Bench(args.workload, args.seed, scratch)
        if args.trace:
            result, detail = traced(bench)
        else:
            result, detail = end_to_end(bench, args.seconds)
    finally:
        if bench is not None:
            bench.launcher.close()
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    detail = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed), **detail}
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
