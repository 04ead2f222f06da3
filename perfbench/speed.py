"""The machine's speed, sampled inside the timed process.

On the VM this benchmark was tuned on, each vCPU switches between a fast
and a slow regime, about 1.7x apart, on time scales from under a second
to many minutes; the two vCPUs switch independently.  Wall and CPU times
follow the regime, so two sets of runs of the same code can differ by
40%.  A reference measured in another process, or before and after the
work, misses these switches (see README "Noise").

A Sampler therefore runs a fixed piece of pure-Python work,
reference_work(), in the timed process itself: a SIGPROF handler runs it
every INTERVAL_S of the process's CPU time, so the samples see the same
regimes as the work around them, in proportion.  A time is reported as

    CPU seconds outside the samples * REFERENCE_S / mean sample time,

the CPU seconds the work would take where one reference_work() takes
REFERENCE_S.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import deque

INTERVAL_S = 0.04
# reference_work()'s mean time in the slow regime of a 2-vCPU Intel Xeon
# VM at 2.0 GHz (Python 3.11), so on that machine the scaled figures
# read as CPU seconds.
REFERENCE_S = 0.00165
# A span with fewer samples is scaled by its whole iteration's samples.
MIN_SAMPLES = 5


def reference_work(n: int = 16) -> int:
    """Breadth-first searches over the tuple vertices of an n x n torus
    grid: dict, set and tuple work of the kind coverkit does."""
    adj = {
        (i, j): (((i + 1) % n, j), ((i - 1) % n, j), (i, (j + 1) % n), (i, (j - 1) % n))
        for i in range(n)
        for j in range(n)
    }
    total = 0
    for src in list(adj)[::37]:
        seen = {src}
        queue = deque([src])
        while queue:
            for u in adj[queue.popleft()]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        total += len(seen)
    return total


class Sampler:
    """Runs reference_work() every INTERVAL_S of process CPU time."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0  # thread CPU time spent in samples

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum, frame) -> None:
        # No collection inside a sample: its cost depends on the work's
        # heap, not on the machine.  Thread time, because the process
        # CPU clock does not advance inside a SIGPROF handler.
        collecting = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        reference_work()
        self.seconds += time.thread_time() - start
        self.count += 1
        if collecting:
            gc.enable()

    def mark(self) -> list:
        """[CPU seconds of this thread since it started, less the samples;
        samples so far; their seconds]."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            return [time.thread_time() - self.seconds, self.count, self.seconds]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})


def since(a: list, b: list) -> list:
    """The [CPU seconds, samples, sample seconds] between two marks."""
    return [y - x for x, y in zip(a, b)]


def add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def scaled(span: list, whole: list) -> float:
    """A span's CPU seconds at reference speed.  A span with fewer than
    MIN_SAMPLES samples takes its rate from `whole`, the iteration."""
    cpu, count, seconds = span
    if count < MIN_SAMPLES:
        _, count, seconds = whole
    return cpu * REFERENCE_S * count / seconds
