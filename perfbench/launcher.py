"""Child-process launcher, so that each child's peak RSS is its own.

Linux charges a child, at exec, with the peak resident size of the address
space it was spawned from, so children of the benchmark process (which
holds numpy, the oracles and parsed CSVs) would report that process's peak.
This small process is started before the benchmark loads anything large and
spawns every timed child instead.

Protocol: one JSON object per stdin line, ``{"args": [...], "stderr": path,
"timeout": seconds}``; one JSON object per stdout line in reply, with the
child's wall seconds, exit code, peak RSS in MiB and CPU seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(args: list[str], stderr_path: str, timeout: float) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["args"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
