"""Spawns the benchmark's CLI children from a process that stays small.

A child's peak RSS, as ``wait4`` reports it, is at least the resident
size of the process that spawned it: ``exec`` keeps the high-water mark
of the address space it replaces.  The benchmark process holds numpy
and, while tracing, hundreds of MB of samples, so children spawned from
it would report its size, not their own.  This process imports nothing
heavy, and ``run.py`` starts it before importing tailtest.

Protocol: one JSON request per line on standard input, with ``argv``,
``env``, ``cwd``, ``stdout``, ``stderr`` (file paths) and ``timeout``
(seconds); one JSON reply per line on standard output, with ``wall_s``,
``code`` and ``maxrss_kb``.  End of input ends the process.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
