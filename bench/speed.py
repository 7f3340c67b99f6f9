"""Machine-speed probe that normalises the benchmark's wall times.

On the shared host the benchmark was built on, the same pure-Python work
runs up to 1.8 times slower in some stretches than in others, stretches of a
few seconds to minutes, and each vCPU drifts on its own: a probe run in
another process does not follow the speed of the process being measured.
So the probe runs inside the measured process.  A Sampler runs probe() from
a SIGVTALRM handler every PERIOD_S of the process's CPU time; a job's
normalised time is its wall time, less the probes' own time, times
REFERENCE_PROBE_S over the mean probe time during the job (or over the last
MIN_PROBES probes, for a job too short to hold that many).  It reads as
seconds at the speed at which probe() takes REFERENCE_PROBE_S, about its
time on the reference machine; see baseline.json, "machine".

The normalisation assumes that the probe's speed does not depend on the
code under test.  run.py prints the wall times beside the normalised ones.

Only ``time`` is imported at module level, so that a fresh interpreter that
times the package's imports does not load a module for it beforehand.
"""

import time

PERIOD_S = 0.025
MIN_PROBES = 16
REFERENCE_PROBE_S = 0.0004

# Small enough to stay in the core's own caches: a probe that also reaches
# for memory picks up cache noise that the jobs do not share, and followed
# the jobs' times about half as well on the reference machine.
_DATA = list(range(1000, 3000))
_TABLE = dict.fromkeys(range(512), 0)


def probe():
    """Fixed pure-Python work: list reads, integer arithmetic and dict stores."""
    total = 0
    table = _TABLE
    for v in _DATA:
        total += v * v % 7
        table[v & 511] = total
    return total


def time_probes(count):
    """Wall times of count probes run back to back."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return times


def normalise(wall, probe_times):
    """Wall time at the reference speed, given the probe times around it."""
    return wall * REFERENCE_PROBE_S * len(probe_times) / sum(probe_times)


class Sampler:
    """Runs probe() every PERIOD_S of CPU time while started."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.probes.append(took)
        self.spent += took

    def start(self):
        import signal
        self.probes.extend(time_probes(MIN_PROBES))
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self):
        import signal
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def mark(self):
        """A point to measure from with elapsed() and normalised()."""
        return len(self.probes), self.spent, time.perf_counter()

    def elapsed(self, mark):
        """Wall time since mark, less the time the probes took."""
        count, spent, start = mark
        return time.perf_counter() - start - (self.spent - spent)

    def normalised(self, wall, mark):
        """wall, a time measured since mark, at the reference speed."""
        return normalise(wall, self.probes[min(mark[0], len(self.probes) - MIN_PROBES):])
