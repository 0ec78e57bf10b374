"""Self-check of the benchmark's verdict checker: every check must be able to fail.

Usage (from the repository root): python3 perfbench/selfcheck.py

Runs a few small resolvdim commands, confirms the checker accepts their
real output, then confirms it rejects each corrupted variant: a wrong
decided verdict, a witness that does not resolve, an exit code that
contradicts the report, a traceback, and a report that differs between
passes.  Prints one line per case and exits 1 if any case is misjudged.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import expected
import runner
import run as bench_run
from workloads import Cmd, _dim, _exchange, _verify


def _edit_json(out: bytes, edit) -> bytes:
    obj = json.loads(out)
    edit(obj)
    return expected.render_json(obj)


def _set_record(out: bytes, q: int, n: int, section: str, key: str, value) -> bytes:
    def edit(obj):
        rec = next(r for r in obj["records"] if (r["q"], r["n"]) == (q, n))
        rec[section][key] = value
    return _edit_json(out, edit)


def cases(launcher) -> list[tuple[str, bool, Cmd, int, bytes, bytes]]:
    """(label, should pass, command, exit code, stdout, stderr)."""
    out = []

    def real(cmd: Cmd):
        got = launcher.resolvdim(cmd.argv, 60.0)
        return got.code, got.out, got.err

    grid = _verify([2, 3], [1, 2], 1_000_000, 7)
    code, rep, err = real(grid)
    out += [
        ("verify: real report", True, grid, code, rep, err),
        ("verify: wrong dim search", False, grid, code,
         _set_record(rep, 3, 2, "dim", "search", 4), err),
        ("verify: non-resolving witness", False, grid, code,
         _set_record(rep, 3, 2, "dim", "witness", ["e1", "2e1", "e2", "2e2", "e1+e2"]), err),
        ("verify: (2,2) twins reported coinciding", False, grid, code,
         _set_record(rep, 2, 2, "twins", "coincide", True), err),
        ("verify: wrong exchange verdict", False, grid, code,
         _set_record(rep, 3, 2, "exchange", "holds", False), err),
        ("verify: wrong corollary count", False, grid, code,
         _set_record(rep, 3, 2, "corollary", "minimum_sets", 7), err),
        ("verify: exit 0 with a failing report", False, grid, 0, rep, err),
        ("verify: traceback on stderr", False, grid, code, rep,
         b"Traceback (most recent call last):\n"),
    ]

    dim = _dim(3, 2, 1_000_000)
    code, text, err = real(dim)
    out += [
        ("dim: real output", True, dim, code, text, err),
        ("dim: wrong value", False, dim, code, text.replace(b"dim_search=5", b"dim_search=4"), err),
        ("dim: witness missing a whole twin class", False, dim, code,
         text.replace(b"witness=e1,", b"witness=2e1+2e2,"), err),
        ("dim: exit 1", False, dim, 1, text, err),
        ("dim: exit 3 without a budget message", False, dim, 3, b"", b""),
    ]
    over = _dim(3, 3, 50)
    code, text, err = real(over)
    out += [("dim: over budget is undecided, not failed", True, over, code, text, err)]

    exch = _exchange(2, 3, 1_000_000)
    code, text, err = real(exch)
    out += [
        ("exchange: real verdict", True, exch, code, text, err),
        ("exchange: flipped verdict", False, exch, code,
         _edit_json(text, lambda o: o.update(holds=True, witness=None)), err),
    ]

    check = Cmd("check", ["check", "--q", "2", "--n", "4", "-W", "e1,e2,e3,e4",
                          "--budget", "1000"], cells=[(2, 4)],
                vertex_set=["e1", "e2", "e3", "e4"])
    code, text, err = real(check)
    out += [
        ("check: real output", True, check, code, text, err),
        ("check: resolving set reported non-resolving", False, check, 1,
         text.replace(b"resolving=true", b"resolving=false"), err),
    ]
    return out


def main() -> int:
    bench_run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=bench_run.SCRATCH))
    launcher = runner.Launcher(runner.child_env(bench_run.SRC), scratch)
    bad = 0
    try:
        for label, should_pass, cmd, code, out, err in cases(launcher):
            got = expected.check(cmd, code, out, err)
            right = got.ok == should_pass
            bad += not right
            print(f"{'ok ' if right else 'BAD'} {label}: checker says "
                  f"{'pass' if got.ok else 'fail'} {got.reason}")
        first = {"cmd": None, "outcome": expected.Outcome(True, canonical=b"a")}
        second = {"cmd": None, "outcome": expected.Outcome(True, canonical=b"b")}
        bench_run.gate([first], [second], "self-check")
        right = not second["outcome"].ok
        bad += not right
        print(f"{'ok ' if right else 'BAD'} determinism gate rejects a changed report")
    finally:
        launcher.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
