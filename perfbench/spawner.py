"""Small launcher that starts the benchmark's child processes.

Reads one JSON request per stdin line, {"argv", "cwd", "out", "err",
"guard_s"}, runs it to completion and answers with one JSON line,
{"code", "wall_s", "maxrss_kb", "timed_out"}.  A child still running when
its guard expires is killed.

Linux charges a child with the peak RSS of the process it was forked from,
so children are started from this process, whose footprint stays small,
and not from the benchmark process, whose checkers hold large outputs.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    fired = threading.Event()
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=req["cwd"])

        def kill() -> None:
            fired.set()
            proc.kill()

        timer = threading.Timer(max(req["guard_s"], 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "timed_out": fired.is_set()}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
