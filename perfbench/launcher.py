"""Starts the measured commands from a small process: `python3 launcher.py`.

A process's peak RSS (`ru_maxrss`) includes the RSS of the process it was
forked from, so run.py, which holds the generated inputs and the probe data,
does not start the measured commands itself: this process does, and it stays
small. Protocol, one JSON line each way per command:
in `[argv, cwd, env, log path, vCPUs]`, out `[start, end, peak RSS MB, exit
code]`, where start and end are `time.perf_counter()` readings, a clock all
processes share. The command runs on the given vCPUs; its stdout is discarded
and its stderr appended to the log. The process ends at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, cwd, env, log_path, cpus = json.loads(line)
        os.sched_setaffinity(0, cpus)  # inherited by the command
        with open(log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log, cwd=cwd)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([start, end, usage.ru_maxrss / 1024, proc.returncode]), flush=True)


if __name__ == "__main__":
    main()
