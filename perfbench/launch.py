"""Runs one command and writes its exit code, wall time, CPU time and peak
resident set as JSON to REPORT. Usage: launch.py REPORT TIMEOUT_S COMMAND...

The command runs as this small process's child rather than the
benchmark's, because the kernel charges a child's peak with the
resident set of the process it was spawned from: spawned from the
benchmark, every command would report at least the benchmark's size.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

report, timeout_s, *command = sys.argv[1:]
start = perf_counter()
proc = subprocess.Popen(command)
timer = threading.Timer(float(timeout_s), proc.kill)
timer.start()
try:
    _, status, usage = os.wait4(proc.pid, 0)
finally:
    timer.cancel()
wall = perf_counter() - start
Path(report).write_text(json.dumps({
    "returncode": os.waitstatus_to_exitcode(status), "wall": wall,
    "cpu": usage.ru_utime + usage.ru_stime,
    "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}),
    encoding="utf-8")
