"""Host-speed pacing: a fixed probe kernel run on a timer inside the measuring
process, so that timings can be scaled to one reference host speed.

The benchmark shares a few cores of a busy host, and the speed of the host
drifts by tens of percent within a minute: a fixed numpy kernel timed back to
back varies from 0.6x to 2x its fastest time, and its 10-second medians move
by 45 %.  Timings taken minutes apart in different processes therefore differ
more than any regression bound.  The probe kernel below (small Cholesky
solves and a Python loop, the mix that a GP fit is made of) slows down with
the host, and the ratio of a workload's time to the probe's time, both taken
over the same seconds, is steady to a few percent.

:class:`Pacer` runs a probe from a ``SIGALRM`` handler every ``INTERVAL_S``
of wall time while a workload runs in the same thread.  It records each
probe's start and end, so that the probe's own time can be taken out of
every measured interval, and the median probe time over an interval gives
that interval's slowdown against the probe's reference time.  Set-up, which
imports numpy, is paced by a probe in plain Python.  The probes run no rmlbo
code, so a change to the program cannot move them.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025   # wall time between probes
WINDOW_S = 1.0       # a call's time is scaled window by window
HALO_S = 0.5         # a think time is scaled by the probes this close to it


class NumpyProbe:
    """Small Cholesky solves and a Python loop, the mix of a GP fit."""

    # About the probe's median time, run back to back, on the reference
    # host, a 2-core x86-64 VM.  Scaled times read as seconds on that host;
    # the constant cancels when two commits are compared on one machine.
    reference_s = 0.0004
    size, solves, loop = 24, 12, 240

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((self.size, self.size))
        self._matrix = a @ a.T + self.size * np.eye(self.size)
        self._rhs = rng.standard_normal((self.size, 2))

    def __call__(self) -> None:
        np = self._np
        acc = 0.0
        for _ in range(self.solves):
            low = np.linalg.cholesky(self._matrix)
            acc += float(np.linalg.solve(low, self._rhs).sum())
        total = 0
        for i in range(self.loop):
            total += i * i


class PythonProbe:
    """Dictionary, string and integer work in plain Python, the mix of an
    import; it needs no module that set-up is still importing."""

    reference_s = 0.0004
    rounds = 1200

    def __call__(self) -> None:
        table = {}
        for i in range(self.rounds):
            key = f"k{i}"
            table[key] = len(key) + i * i
        sorted(table.items(), key=lambda kv: kv[1])


class Pacer:
    """Probe the host's speed on a wall-clock timer while code runs.

    Use as a context manager around the measured calls.  Only the main
    thread receives the timer's signal, so the measured code must run there.
    """

    def __init__(self, probe=None):
        self.kernel = probe if probe is not None else NumpyProbe()
        self.starts = []
        self.ends = []
        self._previous = None

    def probe(self) -> float:
        """Run the probe kernel once; return its wall time in seconds."""
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        return end - start

    def _on_timer(self, signum, frame) -> None:
        self.probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _within(self, start: float, end: float) -> range:
        """Indices of the probes that began inside ``[start, end)``."""
        return range(bisect.bisect_left(self.starts, start),
                     bisect.bisect_left(self.starts, end))

    def busy(self, start: float, end: float) -> float:
        """Probe time inside ``[start, end]``: a probe runs between two
        bytecodes of the measured code, so it lies wholly inside or outside
        any interval that code stamped."""
        return sum(self.ends[i] - self.starts[i] for i in self._within(start, end))

    def net(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` with the probes taken out."""
        return end - start - self.busy(start, end)

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time inside ``[start, end]`` over the reference;
        1.0 when no probe ran there."""
        times = [self.ends[i] - self.starts[i] for i in self._within(start, end)]
        return statistics.median(times) / self.kernel.reference_s if times else 1.0

    def scaled(self, start: float, end: float) -> float:
        """Net time of ``[start, end]`` at the reference speed: each window
        of ``WINDOW_S`` is scaled by the slowdown its own probes saw."""
        total, edge = 0.0, start
        while edge < end:
            stop = min(edge + WINDOW_S, end)
            total += self.net(edge, stop) / self.slowdown(edge, stop)
            edge = stop
        return total

    def scaled_local(self, start: float, end: float) -> float:
        """Net time of a short ``[start, end]`` at the reference speed, scaled
        by the probes within ``HALO_S`` of it."""
        return self.net(start, end) / self.slowdown(start - HALO_S, end + HALO_S)
