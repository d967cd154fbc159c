"""Host shape, a host-drift probe and process accounting read from outside.

Nothing here imports the repository's code: the probe must measure the
host, not the program, and the counters come from the kernel
(``/proc``, ``getrusage``) rather than from what the program reports.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager

import numpy as np

_TICK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cache_sizes() -> dict:
    """``{"L1d": "48K", "L2": "2048K", ...}`` for cpu0 (empty if unknown)."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        out[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return out


def _ram_gib() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return round(int(line.split()[1]) / 2**20, 1)
    return 0.0


def _filesystem(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as fh:
        for line in fh:
            fields = line.split()
            mount, fstype = fields[1], fields[2]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fstype
    return kind


def host_shape(spill_dir: str) -> dict:
    numba = importlib.util.find_spec("numba") is not None
    return {
        "cores": nproc(),
        "caches": _cache_sizes(),
        "ram_gib": _ram_gib(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": "present" if numba else "absent",
        # backend="native" needs numba; without it the program falls back
        # to the numpy kernel, so a "native" figure would be a numpy one.
        "native_backend": "measurable" if numba else "not measured (numba absent)",
        "spill_fs": _filesystem(spill_dir),
    }


def probe_s(reps: int = 3) -> float:
    """Median time of a fixed numpy + interpreter kernel (no repo code).

    Taken at the start and the end of every run, so a host-phase
    slowdown shows beside the figures it distorts.
    """
    data = np.random.default_rng(0).random(1 << 20)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.sort(data)
        total = 0
        for i in range(400_000):
            total += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def steal_s() -> float:
    """CPU seconds the hypervisor withheld from this VM so far (all CPUs)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def wchar() -> int:
    """Bytes this process has passed to write syscalls so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def live_children_cpu() -> dict:
    """``{pid: user+system CPU seconds}`` of this process's live children."""
    me = os.getpid()
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...; utime
        # and stime are fields 14 and 15 of the whole line.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            out[int(name)] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class ChildCpu:
    """CPU of the child processes reaped between :meth:`start` and :meth:`stop`.

    ``RUSAGE_CHILDREN`` counts a child only once it is reaped, with all
    the CPU it ever used.  Children alive at :meth:`start` (a warm pool
    made during set-up) would bring their set-up CPU along, so the CPU
    they had at the start is subtracted when they are reaped inside the
    window.  Children still alive at :meth:`stop` are not counted at all.
    """

    def start(self) -> None:
        self._live0 = live_children_cpu()
        self._ru0 = _children_cpu()

    def stop(self) -> float:
        live1 = live_children_cpu()
        before = sum(cpu for pid, cpu in self._live0.items() if pid not in live1)
        return max(0.0, _children_cpu() - self._ru0 - before)


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Meter:
    """Wall, CPU and bytes written, summed over the program calls only.

    The benchmark wraps every call into the program in :meth:`call`;
    its own work between calls (hashing outputs) stays outside, so the
    figures are the program's.  CPU is the whole process (every thread,
    the async committer included).  With a tracer, each call is also
    recorded as a span in category ``bench``; :meth:`aside` marks the
    benchmark's own work so the trace can leave it out of item time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.item_wall = 0.0
        self.cpu = 0.0
        self.wchar = 0

    @contextmanager
    def call(self, name: str, *, extra: bool = False, **args):
        """Time one program call; ``extra`` calls count in wall, not items."""
        io0 = wchar()
        c0 = time.process_time()
        t0 = time.monotonic()
        span = {"seconds": 0.0, "wchar": 0}
        try:
            yield span
        finally:
            t1 = time.monotonic()
            c1 = time.process_time()
            io1 = wchar()
            span["seconds"] = t1 - t0
            span["wchar"] = io1 - io0
            self.wall += t1 - t0
            if not extra:
                self.item_wall += t1 - t0
            self.cpu += c1 - c0
            self.wchar += io1 - io0
            if self.tracer is not None:
                self.tracer.complete(name, "bench", t0, t1, args=args or None)

    @contextmanager
    def aside(self, name: str = "bench.check"):
        t0 = time.monotonic()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.complete(name, "bench", t0, time.monotonic())
