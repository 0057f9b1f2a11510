"""Host facts, process CPU/RSS and leak checks read from ``/proc``.

The program under test always runs in a session of its own (the
benchmark starts it with ``start_new_session``), so "the program's
processes" is simply every live process in that session: the front end
and its shards, or the batch job and its pool workers.  A process that
outlives the program's shutdown keeps the session id even after it is
re-parented, which is what the leak check relies on.
"""

from __future__ import annotations

import hashlib
import os
import platform
import select
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE = os.sysconf("SC_PAGE_SIZE")
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "psm_"


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2 :].split()


def _members(sid: int) -> list[tuple[int, list[str]]]:
    """``(pid, stat fields)`` of every process in session *sid*."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            # fields[3] is the session id (stat field 6).
            if fields is not None and int(fields[3]) == sid:
                out.append((int(entry), fields))
    return out


def live_session_pids(sid: int) -> list[int]:
    """Session members that are still running (zombies excluded)."""
    return [pid for pid, fields in _members(sid) if fields[0] not in ("Z", "X")]


def wait_session_gone(sid: int, wait_s: float = 5.0) -> list[int]:
    """Wait for a session's processes to end; returns those still running."""
    deadline = time.monotonic() + wait_s
    while (alive := live_session_pids(sid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return alive


def session_cpu_s(sid: int) -> float:
    """User + system CPU seconds of a session's processes so far.

    Each process contributes its own time plus that of the children it
    has already reaped (``cutime``/``cstime``), so pool workers that came
    and went inside the window are still counted, exactly once.
    """
    # utime, stime, cutime, cstime are stat fields 14-17.
    ticks = sum(int(f[i]) for _, f in _members(sid) for i in (11, 12, 13, 14))
    return ticks / CLK_TCK


def _pss_bytes(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def session_memory(sid: int) -> tuple[int, int]:
    """Summed ``(RSS, PSS)`` bytes of a session's processes.

    RSS counts a page once per process mapping it, so forked pool workers
    count the parent's pages again; PSS splits each shared page among its
    sharers, so the sum is the memory the session actually holds.
    """
    members = _members(sid)
    rss = sum(int(f[21]) for _, f in members) * PAGE  # stat field 24
    return rss, sum(_pss_bytes(pid) for pid, _ in members)


def session_hwm(sid: int) -> int:
    """Summed peak resident set (``VmHWM``) of a session's live processes.

    The kernel keeps each process's high-water mark, so no short-lived
    peak falls between samples.  The sum counts a page once per process
    mapping it, so it only means "memory held" for processes started by
    exec, which share no anonymous pages.
    """
    total = 0
    for pid, _ in _members(sid):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) * 1024
                break
    return total


class MemoryMonitor:
    """Peak summed RSS and PSS of a session, sampled every *interval_s*.

    The sampler runs in a process of its own so that its ``/proc`` scans
    never hold up the load generator's event loop; closing its stdin
    makes it print the peaks and exit.  It serves forked processes, whose
    summed ``VmHWM`` would count shared pages once per process; a peak
    shorter than *interval_s* can fall between samples.
    """

    def __init__(self, sid: int, interval_s: float) -> None:
        self.sid = sid
        self.interval_s = interval_s
        self.peak_rss = self.peak_pss = 0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "MemoryMonitor":
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.sid), str(self.interval_s)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, *exc: object) -> None:
        out, _ = self._proc.communicate(timeout=30)
        self.peak_rss, self.peak_pss = (int(x) for x in out.split())


def _sample_until_eof(sid: int, interval_s: float) -> tuple[int, int]:
    peak_rss = peak_pss = 0
    while True:
        rss, pss = session_memory(sid)
        peak_rss, peak_pss = max(peak_rss, rss), max(peak_pss, pss)
        ready, _, _ = select.select([sys.stdin], [], [], interval_s)
        if ready and not sys.stdin.buffer.read1(1):
            return peak_rss, peak_pss


def shm_segments() -> set[str]:
    """Names of the program's shared-memory graph segments."""
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def load1() -> float:
    """The 1-minute load average."""
    return os.getloadavg()[0]


def reference_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    The program is not involved; comparing this figure between runs tells
    a slow run on a slowed-down host from a slow program.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[repeats // 2]


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole host from ``/proc/stat``.

    Steal is time this virtual machine's CPUs were runnable but the
    hypervisor ran something else: the clearest sign of a noisy run.
    """
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read without running git; None elsewhere."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        return (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def _src_digest(src: Path) -> str:
    """sha256 over the program's Python sources (names and contents).

    Stands in for the git SHA where the checkout is not a git repository.
    """
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_info(root: Path) -> dict:
    """Where and on what the run happened."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_sha": _git_sha(root),
        "src_digest": _src_digest(root / "src"),
    }


if __name__ == "__main__":
    print(*_sample_until_eof(int(sys.argv[1]), float(sys.argv[2])))
