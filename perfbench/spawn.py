"""Runs workload processes one at a time for run.py, from a small process.

The peak RSS that ``wait4`` reports for a child counts the peak of the
process it was forked from, so a child forked by run.py, once run.py holds
its inputs, would read as large as run.py.  run.py therefore starts this
spawner before it builds any input and has it start every timed process.

The spawner also times the machine while each child runs.  The speed of a
shared host drifts by up to 2x within seconds, so the spawner pins itself
and its children to one CPU, and every ``PERIOD_S`` it stops the child,
times a fixed piece of pure-Python work (the calibration chunk) and
continues the child.  One chunk also runs just before the child starts
and one just after it ends.  The child's wall time excludes the pauses;
its scaled time is that wall time times ``REFERENCE_CHUNK_S`` over the
mean chunk time, that is, the time it would have taken at the speed at
which a chunk takes ``REFERENCE_CHUNK_S``.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": PATH, "stderr": PATH}``, answered by one JSON
line ``{"wall_s": ..., "scaled_s": ..., "chunk_s": ..., "maxrss_kb": ...,
"exit": ...}``.  The spawner exits at the end of its input; on SIGTERM it
kills the running child, waits for it and exits.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.2  # running time of the child between calibration chunks
CHUNK_ROUNDS = 15_000
REFERENCE_CHUNK_S = 0.005  # about a chunk's time on an unloaded 2-vCPU Xeon VM

_child: subprocess.Popen | None = None


def _stop(signum, frame) -> None:
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(1)


def chunk() -> float:
    """Wall time of a fixed piece of pure-Python work: the machine's speed now."""
    began = time.perf_counter()
    table: dict[int, int] = {}
    state = 12345
    for i in range(CHUNK_ROUNDS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 1000
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - began


def run(argv: list[str], out, err) -> dict:
    """Run one child to completion, pausing it for calibration chunks."""
    global _child
    chunks = [chunk()]
    paused = 0.0
    start = time.perf_counter()
    _child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    exited = select.poll()
    pidfd = os.pidfd_open(_child.pid)
    try:
        exited.register(pidfd, select.POLLIN)
        while not exited.poll(PERIOD_S * 1000):
            pause = time.perf_counter()
            os.kill(_child.pid, signal.SIGSTOP)
            chunks.append(chunk())
            os.kill(_child.pid, signal.SIGCONT)
            paused += time.perf_counter() - pause
        _, status, usage = os.wait4(_child.pid, 0)
        wall = time.perf_counter() - start - paused
    finally:
        os.close(pidfd)
    _child.returncode = os.waitstatus_to_exitcode(status)
    chunks.append(chunk())
    chunk_s = statistics.fmean(chunks)
    return {"wall_s": wall, "scaled_s": wall * REFERENCE_CHUNK_S / chunk_s,
            "chunk_s": chunk_s, "maxrss_kb": usage.ru_maxrss,
            "exit": _child.returncode}


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, \
                open(request["stderr"], "wb") as err:
            result = run(request["argv"], out, err)
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
