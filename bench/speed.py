"""Host speed probe, interleaved with the timed work.

The benchmark's host is a shared VM whose speed drifts by tens of percent
over seconds to minutes, and process CPU time drifts with it. A fixed
calibration kernel, run every `interval_s` from a SIGALRM handler in the
main thread, samples that speed in the process that does the work, on
the core it runs on. While the process has forked children (the
harness's worker pool), it samples in them instead: each tick sends them
SIGUSR1, whose handler they inherited, and they write their kernel times
to a pipe, so the parent does not compete with its workers.

`scaled_s` then integrates the work's wall time, each slice between two
ticks weighted by the kernel's time at its end over the reference time:
the result is the time the work would have taken at the reference speed.
The probe's own time in the process it times is excluded from the work.

Python runs a handler between bytecodes, so a long call into numpy or
scipy delays a sample until it returns; a slice without a sample takes
the nearest one.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import struct
import time

# The kernel's CPU time at the reference speed, a fixed constant: on a
# 2-core Xeon VM at 2.1 GHz (Python 3.11) the mean kernel time of a round
# ranged from 0.75 to 1.32 times it. Scaled times are in seconds at that
# speed.
REFERENCE_S = 0.0020
SAMPLE = struct.Struct("dd")  # (perf_counter at start, kernel CPU seconds)


def kernel():
    """A fixed mix of interpreter work: integer arithmetic, a dict and a
    list, as the program's pure-Python layers use them."""
    table = {}
    items = []
    acc = 1
    for i in range(4000):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        table[acc & 1023] = i
        items.append(acc >> 20)
    items.sort()
    return acc + len(table) + items[len(items) // 2]


def timed_kernel():
    """(perf_counter at start, CPU seconds of one kernel call)."""
    start, cpu = time.perf_counter(), time.thread_time()
    kernel()
    return start, time.thread_time() - cpu


def forked_children():
    """Pids of this process's children that run this same program, which
    are forked ones: an exec'd child (say, a fresh interpreter) has its
    own command line and would die of SIGUSR1."""
    with open("/proc/self/cmdline", "rb") as fh:
        own = fh.read()
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                candidates = fh.read().split()
        except OSError:
            continue
        for pid in candidates:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if fh.read() == own:
                        pids.append(int(pid))
            except OSError:
                continue
    return pids


class SpeedProbe:
    """Context manager that samples the kernel's time while it is open.

    With `children`, ticks sample in the forked children while there are
    any. `untimed` is a context manager factory each of the probe's own
    samples runs in (the tracer's, so spans do not carry the probe).
    `spent_s` is the probe's own time in this process.
    """

    def __init__(self, interval_s=0.25, children=False, untimed=None):
        self.interval_s = interval_s
        self.children = children
        self.untimed = untimed
        self.ticks = []  # (perf_counter at the tick, work seconds since the previous tick)
        self.samples = []  # (perf_counter, kernel CPU seconds), own and children's
        self.spent_s = 0.0
        self._mark = None
        self._pipe = None
        self._previous = {}

    def _tick(self, signum=None, frame=None):
        with self.untimed() if self.untimed else contextlib.nullcontext():
            start = time.perf_counter()
            pids = forked_children() if self.children else []
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGUSR1)
            if not pids:
                self.samples.append(timed_kernel())
            end = time.perf_counter()
        self.ticks.append((start, start - self._mark))
        self.spent_s += end - start
        self._mark = end

    def _child_sample(self, signum, frame):  # runs in a forked child
        with contextlib.suppress(BlockingIOError):
            os.write(self._pipe[1], SAMPLE.pack(*timed_kernel()))

    def __enter__(self):
        if self.children:
            self._pipe = os.pipe()
            for fd in self._pipe:  # a full pipe drops samples, never blocks a worker
                os.set_blocking(fd, False)
            self._previous[signal.SIGUSR1] = signal.signal(signal.SIGUSR1, self._child_sample)
        self._previous[signal.SIGALRM] = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self.children = False  # the workers have ended: close on an own sample
        self._tick()
        if self._pipe:
            data = b""
            with contextlib.suppress(BlockingIOError):
                while chunk := os.read(self._pipe[0], 1 << 16):
                    data += chunk
            for fd in self._pipe:
                os.close(fd)
            whole = len(data) - len(data) % SAMPLE.size
            self.samples.extend(SAMPLE.iter_unpack(data[:whole]))
        return False

    def slice_kernels(self):
        """Mean kernel time per tick slice: the samples taken from its
        closing tick up to the next one; an empty slice takes the nearest
        sample in time."""
        starts = [at for at, _ in self.ticks]
        groups = [[] for _ in starts]
        for at, kernel_s in self.samples:
            groups[max(0, bisect.bisect_right(starts, at) - 1)].append(kernel_s)
        filled = []
        for at, group in zip(starts, groups):
            if not group:
                group = [min(self.samples, key=lambda s: abs(s[0] - at))[1]]
            filled.append(statistics.fmean(group))
        return filled

    def work_s(self):
        return sum(work for _, work in self.ticks)

    def scaled_s(self):
        """The work's time at the reference speed."""
        return sum(work * REFERENCE_S / kernel_s
                   for (_, work), kernel_s in zip(self.ticks, self.slice_kernels()))

    def slowdown(self):
        """Mean kernel time over its reference time."""
        return statistics.fmean(k for _, k in self.samples) / REFERENCE_S
