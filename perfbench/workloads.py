"""The four workloads: CLI command lists and the seeded inputs they read.

Every command passes --budget, so no default or environment variable can
change what a workload measures.  Inputs are generated from the seed into
the run's scratch directory; the program only ever sees the files.

- grid: the user's headline `verify` grid, q 2..5 by n 1..3.  Time goes to
  the twin-swap trials' single-set checks and to wide-path subset scans that
  end in a skip.
- search: first-hit subset search, narrow and wide path, decided cells
  (exit 0) and cells that run out of budget (exit 3).  The seed is unused.
- enumerate: the engine's full-enumeration modes: the corollary's all-hits
  scan with a rank check per minimum set, and the 2^N mask table behind
  `exchange`.
- structure: large-N graph, twin, vector-space and intersection-family
  work, where no subset search runs; exports write large files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from expected import mask_label, unit_label

NAMES = ("grid", "search", "enumerate", "structure")


@dataclass
class Cmd:
    kind: str
    argv: list[str]
    cells: list[tuple[int, int]] = field(default_factory=list)
    prefix: str = ""
    vertex_set: list[str] = field(default_factory=list)
    members: list[set] = field(default_factory=list)
    vertices: int = 0
    edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def _qn(q: int, n: int) -> list[str]:
    return ["--q", str(q), "--n", str(n)]


def _verify(qs, ns, budget: int, seed: int) -> Cmd:
    argv = ["verify"]
    if len(qs) == 1:
        argv += ["--q", str(qs[0])]
    else:
        argv += ["--q-range", f"{qs[0]}..{qs[-1]}"]
    if len(ns) == 1:
        argv += ["--n", str(ns[0])]
    else:
        argv += ["--n-range", f"{ns[0]}..{ns[-1]}"]
    argv += ["--budget", str(budget), "--seed", str(seed), "--format", "json",
             "--workers", "1"]
    return Cmd("verify", argv, cells=[(q, n) for q in qs for n in ns])


def _dim(q: int, n: int, budget: int) -> Cmd:
    return Cmd("dim", ["dim", *_qn(q, n), "--budget", str(budget)], cells=[(q, n)])


def _exchange(q: int, n: int, budget: int) -> Cmd:
    return Cmd("exchange", ["exchange", *_qn(q, n), "--budget", str(budget)],
               cells=[(q, n)])


def _graph(q: int, n: int, scratch: Path) -> Cmd:
    prefix = str(scratch / f"gamma_q{q}_n{n}")
    return Cmd("graph", ["graph", *_qn(q, n), "--out", prefix, "--budget", "1000"],
               cells=[(q, n)], prefix=prefix)


def _family_input(rng: random.Random, scratch: Path) -> Cmd:
    """1500 members of 1-4 tokens drawn from 96 tokens."""
    tokens = [f"t{i}" for i in range(96)]
    members = [set(rng.sample(tokens, rng.randint(1, 4))) for _ in range(1500)]
    path = scratch / "family.txt"
    path.write_text("".join(",".join(sorted(m)) + "\n" for m in members))
    return Cmd("family", ["intersect", "--family", str(path), "--budget", "1000"],
               members=members)


def _realize_input(rng: random.Random, scratch: Path) -> Cmd:
    """An Erdos-Renyi G(400, 0.1) edge file with 1-based ids."""
    vertices = 400
    edges = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)
             if rng.random() < 0.1]
    path = scratch / "realize.edges"
    path.write_text("".join(f"{u + 1} {v + 1}\n" for u, v in edges))
    return Cmd("realize", ["intersect", "--realize", str(path), "--vertices",
                           str(vertices), "--budget", "1000"],
               vertices=vertices, edges=edges)


def _check_input(rng: random.Random) -> Cmd:
    """The 12 unit vectors of GF(2)^12 plus two seeded non-unit vertices."""
    n = 12
    extra = rng.sample([m for m in range(1, 1 << n) if m & (m - 1)], 2)
    labels = [unit_label(i) for i in range(n)] + [mask_label(m) for m in extra]
    return Cmd("check", ["check", *_qn(2, n), "-W", ",".join(labels), "--budget", "1000"],
               cells=[(2, n)], vertex_set=labels)


def commands(name: str, seed: int, scratch: Path) -> list[Cmd]:
    """The workload's commands; seeded input files are written to scratch."""
    if name == "grid":
        return [_verify([2, 3, 4, 5], [1, 2, 3], 20_000, seed)]
    if name == "search":
        return [_dim(3, 3, 1_000_000), _dim(7, 2, 1_000_000), _dim(2, 6, 1_000_000),
                _dim(3, 4, 20_000),
                Cmd("dim_powerset", ["intersect", "--dim-powerset", "5",
                                     "--budget", "1000000"], cells=[(2, 5)])]
    if name == "enumerate":
        return [_verify([3], [3], 1_000_000, seed), _verify([7], [2], 1_000_000, seed),
                _exchange(2, 4, 1_000_000), _exchange(4, 2, 1_000_000),
                _exchange(3, 2, 1_000_000)]
    if name == "structure":
        rng = random.Random(f"structure:{seed}")
        return [_graph(2, 11, scratch), _graph(4, 5, scratch),
                Cmd("twins", ["twins", *_qn(2, 12), "--budget", "1000"], cells=[(2, 12)]),
                _verify([2], [12], 1000, seed),
                Cmd("correspondence", ["intersect", "--correspondence", "10",
                                       "--budget", "1000"]),
                _family_input(rng, scratch), _realize_input(rng, scratch),
                _check_input(rng)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
