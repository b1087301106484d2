"""Run one sample's CLI calls in turn and report their resource usage.

The benchmark starts this small process for every sample instead of
starting the calls itself.  A process created by fork or vfork carries the
high-water RSS of its creator into its own `ru_maxrss`, and the benchmark
process holds the generated inputs; this launcher imports nothing heavy,
so the `ru_maxrss` that `os.wait4` reports is the call's own.

Reads a JSON object on stdin: {"calls": [argv, ...], "cwd": dir,
"log": file, "timeout": seconds}.  Writes one JSON object on stdout:
the sample's wall time, from starting the first call to the exit of
the last, and per call its exit code, wall, user + system CPU and peak
RSS in MiB.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    spec = json.load(sys.stdin)
    calls = []
    with open(spec["log"], "ab") as log:
        t0 = time.perf_counter()
        for argv in spec["calls"]:
            c0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=spec["cwd"], stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(spec["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            calls.append({
                "code": proc.returncode,
                "wall_s": time.perf_counter() - c0,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            })
        wall = time.perf_counter() - t0
    json.dump({"wall_s": wall, "calls": calls}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
