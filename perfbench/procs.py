"""Process bookkeeping read from /proc: who this run started, how much
memory they held, and whether any of them outlived the run."""

from __future__ import annotations

import os


def _stat(pid: int) -> tuple[int, int] | None:
    """(parent pid, start time in clock ticks), or None if gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    if fields[0] in ("Z", "X"):
        return None
    return int(fields[1]), int(fields[19])


def descendants(root: int) -> set[tuple[int, int]]:
    """(pid, start time) of every live process below ``root``."""
    parent: dict[int, int] = {}
    start: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                parent[int(name)], start[int(name)] = st
    out: set[tuple[int, int]] = set()
    frontier = [root]
    while frontier:
        p = frontier.pop()
        for child, par in parent.items():
            if par == p:
                out.add((child, start[child]))
                frontier.append(child)
    return out


def alive(pid: int, start: int) -> bool:
    st = _stat(pid)
    return st is not None and st[1] == start


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except (FileNotFoundError, ProcessLookupError):
        return ""


def status_mb(pid: int, key: str = "VmHWM") -> float:
    """A ``/proc/<pid>/status`` size line (kB) in MB; 0.0 if the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def pss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0.0


def mentioning(marker: str) -> list[int]:
    """Live processes whose command line contains ``marker``."""
    return sorted(int(n) for n in os.listdir("/proc")
                  if n.isdigit() and _stat(int(n)) and marker in cmdline(int(n)))


def ray_workers(root: int, title: str = "ray::") -> list[int]:
    """Live Ray worker processes below ``root`` whose title starts with
    ``title`` (Ray retitles a worker ``ray::<task or actor name>``)."""
    return sorted(p for p, _ in descendants(root) if cmdline(p).startswith(title))
