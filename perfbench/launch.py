"""Child launcher for the benchmark: reads one JSON request per line from
stdin, ``{"cmd": [...], "env": {...}, "stderr": path}``, runs the command to
completion and answers with one JSON line ``[wall_s, exit_code, cpu_s,
max_rss_mb]``; it exits when stdin closes.

Linux carries a process's peak RSS across ``exec``, so a child spawned by
the benchmark process itself would report at least the benchmark's own peak.
This launcher is started before the benchmark imports numpy and uses only
the standard library, so its children start from a small peak.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"], env=request["env"], stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    reply = [wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0]
    print(json.dumps(reply), flush=True)
