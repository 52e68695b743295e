"""Measurement helpers shared by the workloads.

- :func:`percentile` is nearest-rank and counts every failed operation as a
  sample at +inf, so failures can only push a latency percentile up.
- :func:`host_calib_ms` times a fixed pure-Python loop.  The workloads run it
  before and after every measurement so a slow host phase shows up beside
  the numbers instead of being mistaken for a regression.
- :func:`run_measured` runs one child process and takes its wall time and
  peak RSS from ``os.wait4``, which reports that child alone (unlike
  ``RUSAGE_CHILDREN``, which keeps the largest peak of every child reaped so
  far, set-up runs included).
"""

from __future__ import annotations

import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass

INF = float("inf")

#: iterations of the host-speed calibration loop (~0.1 s on a 2-core VM)
CALIB_LOOP = 2_000_000


def percentile(values, q: float, *, failures: int = 0) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` plus ``failures``
    samples at +inf.  Raises ``ValueError`` when there is no sample at all."""
    n = len(values) + failures
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * n))
    ordered = sorted(values)
    return ordered[rank - 1] if rank <= len(ordered) else INF


def median(values, *, failures: int = 0) -> float:
    return percentile(values, 50.0, failures=failures)


def finite(value: float, cap: float = 1e9) -> float:
    """JSON-safe form of a latency: +inf (failures past the percentile)
    becomes ``cap``.  A run that reports a capped value is never correct."""
    return cap if math.isinf(value) else value


def host_calib_ms(repeats: int = 3) -> float:
    """Median wall time of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIB_LOOP):
            acc += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    maxrss_mb: float


def run_measured(cmd, *, env, cwd, log_path, timeout_s: float) -> ProcResult:
    """Run ``cmd`` to completion; stdout and stderr go to ``log_path``.

    A timer kills the child after ``timeout_s``; the blocking ``wait4`` then
    reaps it, so no child outlives the call.
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log, stderr=log)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child behind Popen's back: record the outcome so
    # Popen neither waits again nor warns about a still-running process
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        returncode=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def proc_status_kb(pid: int, field: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(f"{field} not in /proc/{pid}/status")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    # the command name may hold spaces; fields resume after its ')'
    fields = stat[stat.rindex(")") + 2 :].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")
