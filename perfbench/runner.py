"""Hermetic child processes: fixed environment, wall-clock guard, rusage.

Children get the absolute `src` path on PYTHONPATH (so any working
directory works), no RESOLVDIM_BUDGET, single-threaded native libraries,
and no bytecode cache writes, so every spawn compiles resolvdim as in a
fresh checkout and leaves the checkout as it found it.  They run in the scratch directory with output sent to files,
started by spawner.py, which reaps each with wait4 so its own peak RSS is
known and kills any child still running when its guard expires.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

SETUP_PROBE = "import resolvdim.cli as cli; cli.build_parser()"


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("RESOLVDIM_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass
class Run:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_mb: float
    timed_out: bool


class Launcher:
    """One spawner.py process; close() stops it and waits for it."""

    def __init__(self, env: dict[str, str], cwd: Path):
        self.cwd = cwd
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)

    def spawn(self, argv: list[str], guard_s: float) -> Run:
        out, err = self.cwd / "child.out", self.cwd / "child.err"
        request = {"argv": argv, "cwd": str(self.cwd), "out": str(out), "err": str(err),
                   "guard_s": guard_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Run(reply["code"], out.read_bytes(), err.read_bytes(), reply["wall_s"],
                   reply["maxrss_kb"] / 1024.0, reply["timed_out"])

    def resolvdim(self, args: list[str], guard_s: float) -> Run:
        return self.spawn([sys.executable, "-m", "resolvdim", *args], guard_s)

    def setup_time(self, samples: int, guard_s: float, warm_up: bool = False) -> list[float]:
        """Spawn-to-ready times: interpreter start, CLI import and parser build.

        With warm_up, one unmeasured spawn goes first, so the files it reads
        are in the page cache as they are for a user who has run the tool before.
        """
        times = []
        for _ in range(samples + warm_up):
            run = self.spawn([sys.executable, "-c", SETUP_PROBE], guard_s)
            if run.code != 0:
                raise RuntimeError(f"set-up probe failed: {run.err.decode(errors='replace')}")
            times.append(run.wall_s)
        return times[warm_up:]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
