"""Known answers and output checkers, computed without calling resolvdim.

Closed forms are the paper's (PAPER.md): order q^n - 1, the edge count
(q^2n - q^n + 1 - (2q-1)^n) / 2, completeness iff n = 1, the case formula
for the metric dimension, and the exchange verdict (holds iff q >= 3 or
n <= 2).  Set-level answers (does this set resolve, is it minimal, do two
families induce the same graph) come from small numpy recomputations over
skeleton masks: two distinct vertices are at distance 1 when their
skeletons intersect and 2 otherwise.

Each checker takes one command's exit code and output and returns an
`Outcome`: whether the command is correct, how many checks it attempted and
decided, whether it fully checked a (q, n) cell, and the canonical bytes
the determinism gate compares across passes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from math import comb, prod
from pathlib import Path

import numpy as np

EXIT_PASS, EXIT_FAIL, EXIT_BUDGET = 0, 1, 3

VERIFY_SECTIONS = ("order", "size", "complete", "twins", "dim", "corollary",
                   "exchange", "twin_swap_trials")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def order(q: int, n: int) -> int:
    return q ** n - 1


def size(q: int, n: int) -> int:
    num = q ** (2 * n) - q ** n + 1 - (2 * q - 1) ** n
    return num // 2


def complete(q: int, n: int) -> bool:
    return n == 1


def twins_coincide(q: int, n: int) -> bool:
    # e1 and e2 of GF(2)^2 share the open neighbourhood {e1+e2} but not a skeleton.
    return (q, n) != (2, 2)


def dim(q: int, n: int) -> int:
    if q == 2:
        return {1: 0, 2: 1}.get(n, n)
    return sum(comb(n, k) * ((q - 1) ** k - 1) for k in range(1, n + 1))


def exchange_holds(q: int, n: int) -> bool:
    return q >= 3 or n <= 2


def minimum_set_count(q: int, n: int) -> int:
    """q >= 3: a minimum set omits one member of each skeleton class."""
    return prod(((q - 1) ** k) ** comb(n, k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# numpy recomputations over skeleton masks
# ---------------------------------------------------------------------------

_TERM = re.compile(r"(\d*)e(\d+)")


def skeletons(q: int, n: int) -> np.ndarray:
    """Skeleton mask of every vertex id 1..q^n-1 (index id - 1)."""
    ids = np.arange(1, q ** n, dtype=np.int64)
    masks = np.zeros_like(ids)
    for i in range(n):
        masks |= ((ids // q ** i) % q != 0).astype(np.int64) << i
    return masks


def label_id(text: str, q: int, n: int) -> int:
    """Vertex id of a `<coeff?>e<index>` label (little-endian base q)."""
    vid = 0
    for term in text.split("+"):
        m = _TERM.fullmatch(term)
        if m is None:
            raise ValueError(f"bad vertex label {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        index = int(m.group(2))
        if not (1 <= coeff < q and 1 <= index <= n):
            raise ValueError(f"bad vertex label {text!r}")
        vid += coeff * q ** (index - 1)
    return vid


def unit_label(i: int) -> str:
    return f"e{i + 1}"


def mask_label(mask: int) -> str:
    """Label of the GF(2) vertex whose support is `mask`."""
    return "+".join(unit_label(i) for i in range(mask.bit_length()) if mask >> i & 1)


def resolves(masks: np.ndarray, ids) -> bool:
    """True iff the vertex ids `ids` resolve the component graph."""
    w = np.asarray(ids, dtype=np.int64) - 1
    if w.size == 0:
        return len(masks) == 1
    reps = np.where((masks[:, None] & masks[w][None, :]) != 0, 1, 2)
    reps[w, np.arange(w.size)] = 0
    return len(np.unique(reps, axis=0)) == len(masks)


def minimal(masks: np.ndarray, ids) -> bool:
    ids = list(ids)
    return all(not resolves(masks, ids[:i] + ids[i + 1:]) for i in range(len(ids)))


def gf2_rank(vectors) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def plain_distances(vertex_count: int, edges) -> np.ndarray:
    """All-pairs BFS distances by boolean matrix powers; unreachable = N + 1."""
    adj = np.zeros((vertex_count, vertex_count), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    dist = np.full((vertex_count, vertex_count), vertex_count + 1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reach = np.eye(vertex_count, dtype=bool)
    for step in range(1, vertex_count):
        grown = reach | (reach.astype(np.int64) @ adj.astype(np.int64) > 0)
        dist[grown & ~reach] = step
        if (grown == reach).all():
            break
        reach = grown
    return dist


def mask_resolves(dist: np.ndarray, mask: int) -> bool:
    cols = [i for i in range(dist.shape[0]) if mask >> i & 1]
    if not cols:
        return dist.shape[0] == 1
    return len(np.unique(dist[:, cols], axis=0)) == dist.shape[0]


def intersection_lines(members: list[set]) -> list[str]:
    """`u v` lines (1-based, ascending) of the intersection graph."""
    tokens = sorted(set().union(*members))
    index = {t: i for i, t in enumerate(tokens)}
    member = np.zeros((len(members), len(tokens)), dtype=np.int32)
    for i, m in enumerate(members):
        member[i, [index[t] for t in m]] = 1
    meet = np.triu((member @ member.T) > 0, k=1)
    us, vs = np.nonzero(meet)
    return [f"{u + 1} {v + 1}" for u, v in zip(us.tolist(), vs.tolist())]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    checks: int = 1
    decided: int = 1
    full_cells: int = 0
    canonical: bytes = b""


def strip_timings(obj):
    """The verify report without its --timings entries."""
    for rec in obj.get("records", []):
        rec.pop("timings", None)
    return obj


def render_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.digest()


class Mismatch(Exception):
    """A decided verdict or an exit code contradicts the known answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def check(cmd, code: int, out: bytes, err: bytes) -> Outcome:
    """Correctness of one command, by its kind."""
    if b"Traceback" in err:
        return Outcome(False, "traceback on stderr", decided=0)
    if code == EXIT_BUDGET and cmd.kind in ("dim", "exchange", "dim_powerset"):
        try:
            expect(out == b"" and err.startswith(b"budget exceeded"),
                   "exit 3 without a budget message")
        except Mismatch as exc:
            return Outcome(False, str(exc), decided=0)
        return Outcome(True, "undecided", decided=0, canonical=_digest(out, err))
    try:
        return _CHECKERS[cmd.kind](cmd, code, out)
    except (Mismatch, ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return Outcome(False, f"{type(exc).__name__}: {exc}", decided=0)


def _check_verify(cmd, code, out):
    report = strip_timings(json.loads(out))
    canonical = render_json(report)
    expect(report["schema_version"] == 1, "schema_version")
    cells = [(r["q"], r["n"]) for r in report["records"]]
    expect(cells == cmd.cells, f"cells {cells} != {cmd.cells}")
    checks = decided = full = 0
    passes = []
    for rec in report["records"]:
        q, n = rec["q"], rec["n"]
        checks += len(VERIFY_SECTIONS)
        if rec.get("status") == "skipped":
            passes.append(rec["pass"])
            continue
        skipped = 0
        for name in VERIFY_SECTIONS:
            if rec[name].get("status") == "skipped":
                skipped += 1
            else:
                _check_section(name, rec[name], q, n)
        decided += len(VERIFY_SECTIONS) - skipped
        full += skipped == 0
        expect(rec["vertices"] == order(q, n), f"({q},{n}) vertices")
        expect(rec["pass"] == twins_coincide(q, n) or rec["twins"].get("status") == "skipped",
               f"({q},{n}) pass={rec['pass']}")
        passes.append(rec["pass"])
    expect(report["overall_pass"] == all(passes), "overall_pass")
    expect(code == (EXIT_PASS if report["overall_pass"] else EXIT_FAIL), f"exit {code}")
    return Outcome(True, checks=checks, decided=decided, full_cells=full,
                   canonical=canonical)


def _check_section(name, sec, q, n):
    where = f"({q},{n}) {name}"
    if name == "order":
        expect(sec["enumerated"] == sec["formula"] == order(q, n) and sec["match"], where)
    elif name == "size":
        expect(sec["bruteforce"] == sec["formula"] == size(q, n) and sec["match"], where)
    elif name == "complete":
        expect(sec["value"] == complete(q, n) and sec["match"], where)
    elif name == "twins":
        expect(sec["status"] == "checked" and sec["coincide"] == twins_coincide(q, n), where)
    elif name == "dim":
        expect(sec["status"] == "checked", where)
        expect(sec["formula"] == sec["search"] == dim(q, n) and sec["match"], where)
        ids = [label_id(t, q, n) for t in sec["witness"]]
        expect(len(ids) == dim(q, n) and resolves(skeletons(q, n), ids), where + " witness")
    elif name == "corollary":
        if q >= 3:
            expect(sec["status"] == "verified" and sec["all_contain_v_basis"], where)
            expect(sec["minimum_sets"] == minimum_set_count(q, n), where + " count")
        elif (q, n) == (2, 3):
            expect(sec["status"] == "counterexample-verified" and sec["ok"], where)
        else:
            expect(sec["status"] == "not-applicable", where)
    elif name == "exchange":
        # a theorem citation is not a check; any verified method is
        expect(sec["status"] == "checked" and sec["method"] != "theorem-citation", where)
        expect(sec["holds"] == sec["expected"] == exchange_holds(q, n) and sec["match"], where)
        expect(min(sec["sizes"]) == dim(q, n), where + " smallest minimal set")
    elif name == "twin_swap_trials":
        if sec["status"] == "no-twins":
            # over GF(2) only n = 2 has a twin class of two or more vertices
            expect(q == 2 and n != 2, where)
        else:
            expect(sec["status"] == "checked" and sec["all_resolving"] is True, where)


def _kv(out: bytes) -> dict:
    return dict(tok.split("=", 1) for tok in out.decode().split() if "=" in tok)


def _check_dim(cmd, code, out):
    q, n = cmd.cells[0]
    kv = _kv(out)
    expect(int(kv["dim_formula"]) == int(kv["dim_search"]) == dim(q, n), "dim value")
    expect(kv["match"] == "true" and code == EXIT_PASS, f"exit {code}")
    ids = [label_id(t, q, n) for t in kv["witness"].split(",") if t]
    expect(len(ids) == dim(q, n) and resolves(skeletons(q, n), ids), "witness")
    return Outcome(True, full_cells=1, canonical=out)


def _check_dim_powerset(cmd, code, out):
    # The powerset intersection graph of {1..n} is the component graph of GF(2)^n.
    n = cmd.cells[0][1]
    expect(out == f"dim={dim(2, n)}\n".encode() and code == EXIT_PASS, "powerset dim")
    return Outcome(True, canonical=out)


def _check_exchange(cmd, code, out):
    q, n = cmd.cells[0]
    payload = json.loads(out)
    expect(code == EXIT_PASS, f"exit {code}")
    expect(payload["method"] != "theorem-citation", "method")
    expect(payload["holds"] == exchange_holds(q, n), "exchange verdict")
    expect(min(payload["sizes"]) == dim(q, n), "smallest minimal set")
    expect((payload["witness"] is None) == payload["holds"], "witness presence")
    return Outcome(True, full_cells=1, canonical=out)


def _check_graph(cmd, code, out):
    q, n = cmd.cells[0]
    lines = out.decode().splitlines()
    expect(code == EXIT_PASS, f"exit {code}")
    expect(lines[0] == f"order={order(q, n)} size={size(q, n)}", "order/size line")
    dot = Path(cmd.prefix + ".gv").read_bytes()
    edges = Path(cmd.prefix + ".edges").read_bytes()
    expect(dot.count(b" -- ") == size(q, n), "dot edge count")
    expect(dot.count(b"[label=") == order(q, n), "dot vertex count")
    expect(edges.count(b"\n") == size(q, n), "edge-list line count")
    masks = skeletons(q, n)
    rows = edges.split(b"\n")
    for row in rows[:: max(1, len(rows) // 997)]:
        if row:
            u, v = map(int, row.split())
            expect(u < v and masks[u - 1] & masks[v - 1], f"edge {u} {v}")
    return Outcome(True, full_cells=1, canonical=_digest(out, dot, edges))


def _check_twins(cmd, code, out):
    q, n = cmd.cells[0]
    expect(code == EXIT_PASS and twins_coincide(q, n), f"exit {code}")
    masks = skeletons(q, n)
    seen = set()
    lines = out.decode().splitlines()
    for line in lines:
        kv = _kv(line.encode())
        mask = int(kv["mask"], 2)
        members = line.split("members=[", 1)[1].rstrip("]").split(",")
        expect(int(kv["size"]) == len(members) == (q - 1) ** bin(mask).count("1"),
               f"class {kv['mask']}")
        expect(all(masks[label_id(t, q, n) - 1] == mask for t in members),
               f"class {kv['mask']}")
        seen.add(mask)
    expect(len(lines) == len(seen) == 2 ** n - 1, "class count")
    return Outcome(True, full_cells=1, canonical=out)


def _check_check(cmd, code, out):
    q, n = cmd.cells[0]
    expect(q == 2, "check is only verified at q = 2")
    kv = _kv(out)
    masks = skeletons(q, n)
    ids = [label_id(t, q, n) for t in cmd.vertex_set]
    res = resolves(masks, ids)
    expect(kv["resolving"] == str(res).lower(), "resolving verdict")
    if res:
        expect(kv["minimal"] == str(minimal(masks, ids)).lower(), "minimal verdict")
    expect(kv["contains_v_basis"] == str(gf2_rank(ids) == n).lower(), "basis verdict")
    expect(code == (EXIT_PASS if res else EXIT_FAIL), f"exit {code}")
    return Outcome(True, full_cells=1, canonical=out)


def _check_correspondence(cmd, code, out):
    expect(out == b"correspondence=true\n" and code == EXIT_PASS, "correspondence")
    return Outcome(True, canonical=out)


def _check_family(cmd, code, out):
    lines = out.decode().splitlines()
    want = intersection_lines(cmd.members)
    k = len(cmd.members)
    expect(code == EXIT_PASS, f"exit {code}")
    expect(lines[0] == f"members={k} order={k} size={len(want)}", "summary line")
    expect(lines[1:] == want, "edge lines")
    return Outcome(True, canonical=out)


def _check_realize(cmd, code, out):
    members = [set(line.split(",")) for line in out.decode().splitlines()]
    expect(code == EXIT_PASS and len(members) == cmd.vertices, "member count")
    got = set(intersection_lines(members))
    want = {f"{u + 1} {v + 1}" for u, v in cmd.edges}
    expect(got == want, "realized family induces another graph")
    return Outcome(True, canonical=out)


_CHECKERS = {
    "verify": _check_verify,
    "dim": _check_dim,
    "dim_powerset": _check_dim_powerset,
    "exchange": _check_exchange,
    "graph": _check_graph,
    "twins": _check_twins,
    "check": _check_check,
    "correspondence": _check_correspondence,
    "family": _check_family,
    "realize": _check_realize,
}
