"""/proc readers: CPU ticks, resident memory, session members, open fds.

The workload interpreter is a session leader (the driver starts it with
``start_new_session``), so "every process this workload owns" —
helpers, parked template stock, in-flight children — is simply every
process whose session id is the workload's pid.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of /proc/<pid>/stat after the ``(comm)`` (index 0 = state), or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None  # exited between listdir and open
    return raw[raw.rindex(")") + 2:].split()


def session_pids(sid: int) -> List[int]:
    """Live pids (zombies included) whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def cpu_ticks(pids: List[int]) -> Dict[int, int]:
    """pid -> utime + stime + cutime + cstime, in clock ticks."""
    ticks = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks[pid] = sum(int(f) for f in fields[11:15])
    return ticks


def cpu_seconds_between(before: Dict[int, int], after: Dict[int, int]) -> float:
    """CPU seconds the ``after`` processes burned since ``before`` (a pid absent from
    ``before`` started inside the window, so all of its ticks count)."""
    return sum(t - before.get(pid, 0) for pid, t in after.items()) / CLK_TCK


def rss_bytes(pids: List[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as handle:
                total += int(handle.read().split()[1]) * PAGE_SIZE
        except OSError:
            pass
    return total


def open_fds() -> int:
    """Descriptors open in this process (the listing's own fd excluded)."""
    return len(os.listdir("/proc/self/fd")) - 1
