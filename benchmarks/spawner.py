"""Starts the benchmark's child processes from a small process.

    python benchmarks/spawner.py     # one request per line on stdin

On Linux a process's peak RSS (ru_maxrss) starts at the peak RSS of the
process it was started from, so a child started straight from run.py would
report at least run.py's own.  This process imports almost nothing and
stays smaller than any child it starts, so the peak RSS it reports is the
child's own.

A request is one JSON line: argv (argv[0] an absolute path), the working
directory, the files that take the child's stdout and stderr, and a
timeout in seconds.  The reply is one JSON line: when the child was
spawned (time.perf_counter, the system's monotonic clock), its wall
seconds, exit code and peak RSS in KiB, and whether it was killed for
running past its timeout.  Children get this process's environment.
"""

import json
import os
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(request: dict) -> dict:
    os.chdir(request["cwd"])
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, request["stdout"], WRITE, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["stderr"], WRITE, 0o644)]
    killed = False
    spawned = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                         file_actions=actions)

    def kill(signum, frame) -> None:
        nonlocal killed
        killed = True
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended as the timer fired
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"spawned": spawned, "elapsed": time.perf_counter() - spawned,
            "code": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss,
            "killed": killed}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
