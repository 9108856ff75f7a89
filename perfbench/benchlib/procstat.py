"""CPU time and peak RSS of the serving side, from stdlib ``resource`` and /proc."""

from __future__ import annotations

import multiprocessing
import os
import resource

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process in MiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def self_cpu_s() -> float:
    """CPU seconds of this process plus its live worker processes."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime + sum(map(proc_cpu_s, _worker_pids()))


def self_peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(map(proc_peak_rss_mb, _worker_pids()))


def host_steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, from /proc/stat.

    Steal is time the hypervisor gave this machine's CPUs to others; a run
    with a high share of it measured a slower machine.
    """
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)
