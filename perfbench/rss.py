"""Peak summed memory of a process's descendants.

Run as ``python3 rss.py PID``: samples ``/proc`` every
:data:`INTERVAL_S`, summing the proportional set size (PSS) of every
descendant of ``PID`` except itself (procs workers, dist daemons), and
prints the peak sum in kB when its standard input closes.  The
benchmark adds its own peak resident set (``ru_maxrss``) to that
figure.  PSS splits a page among the processes that share it, so the
copy-on-write pages a forked worker shares with the benchmark are not
counted once per worker; where ``smaps_rollup`` cannot be read the
resident set stands in.  The sampler runs in a process of its own
because the procs backend forks, and forking a process that has a
sampling thread is unsafe.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys

INTERVAL_S = 0.05
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024 if hasattr(os, "sysconf") \
    else 4


def pss_kb(pid: int) -> int:
    """Proportional set size of ``pid`` in kB, or -1 if unreadable."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return -1


def descendants_kb(root: int, skip: int) -> int:
    """Summed PSS kB of every descendant of ``root`` but ``skip``."""
    children = {}
    rss = {}
    try:
        pids = [int(n) for n in os.listdir("/proc") if n.isdigit()]
    except OSError:
        return 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while scanning
        children.setdefault(int(fields[1]), []).append(pid)
        rss[pid] = int(fields[21]) * PAGE_KB
    total = 0
    todo = list(children.get(root, ()))
    while todo:
        pid = todo.pop()
        if pid != skip:
            pss = pss_kb(pid)
            total += pss if pss >= 0 else rss.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return total


def main(argv) -> int:
    root, me = int(argv[1]), os.getpid()
    peak = 0
    while True:
        peak = max(peak, descendants_kb(root, me))
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.buffer.read1(4096):
            print(peak, flush=True)
            return 0


class Sampler:
    """Starts the sampler on this process; :meth:`stop` returns MB."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def stop(self) -> float:
        """Peak summed descendant PSS, in MB."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        return int(out or 0) / 1024.0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
