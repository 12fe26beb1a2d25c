"""Host-speed probes: wall time rescaled to a reference host speed.

On a shared host the speed of one core drifts, by up to 1.8x, over periods of
seconds to minutes as other tenants load the machine.  A slow period slows
every phase of a repetition alike, and it moves a whole run's medians too.

A *probe* is a fixed piece of work (about 1 ms of interpreter and memory
work) whose time follows the host's speed.  The workloads run probes between
their timed intervals, off the clock.  :meth:`HostClock.scaled` multiplies
an interval's wall time by ``REFERENCE_PROBE_S`` over the median time of the
probes run near it.  A reported second is therefore a second on a host where
the probe takes ``REFERENCE_PROBE_S``.  A change in the program's own speed
passes through unchanged, while a change in the host's speed mostly cancels.
The raw wall times are kept and printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time, in seconds, of the reference host the scaled times refer to.
REFERENCE_PROBE_S = 0.001
#: Probes this close to an interval (seconds) set its speed.
WINDOW_S = 0.25
#: Fewest probes an interval's speed is taken from; the nearest ones are used.
MIN_PROBES = 5

_PROBE_ARRAY = np.random.default_rng(0).random(64)


def _probe_work() -> int:
    """Dictionary updates and small-array ``numpy`` calls, like the program's hot loops."""
    counts: dict[int, int] = {}
    for i in range(2_500):
        key = (i * 7) % 251
        counts[key] = counts.get(key, 0) + i
    largest = 0
    for _ in range(100):
        largest = max(largest, int(np.cumsum(_PROBE_ARRAY).argmax()))
    return len(counts) + largest


class HostClock:
    """Probes the host's speed and rescales intervals to the reference speed."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._seconds: list[float] = []

    def probe(self, repeat: int = 1) -> None:
        """Run ``repeat`` probes now and record when they ran and how long they took."""
        for _ in range(repeat):
            start = time.perf_counter()
            _probe_work()
            end = time.perf_counter()
            self.record(0.5 * (start + end), end - start)

    def record(self, at: float, seconds: float) -> None:
        """Record one probe that ran at ``at`` and took ``seconds``."""
        self._times.append(at)
        self._seconds.append(seconds)

    def probe_seconds(self) -> float:
        """Median probe time over the whole repetition."""
        return statistics.median(self._seconds)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference host speed."""
        times = np.asarray(self._times)
        seconds = np.asarray(self._seconds)
        near = (times >= start - WINDOW_S) & (times <= end + WINDOW_S)
        if near.sum() >= MIN_PROBES:
            local = seconds[near]
        else:
            distance = np.maximum(start - times, times - end)
            local = seconds[np.argsort(distance)[:MIN_PROBES]]
        return (end - start) * REFERENCE_PROBE_S / float(np.median(local))


class RawClock:
    """Clock stand-in for traced runs: no probes, intervals stay wall time."""

    def probe(self, repeat: int = 1) -> None:
        pass

    def probe_seconds(self) -> float:
        return REFERENCE_PROBE_S

    def scaled(self, start: float, end: float) -> float:
        return end - start


class Stopwatch:
    """Sums timed segments, in raw wall time and at the reference speed.

    :meth:`pause` and :meth:`resume` bracket off-clock work (probes, the
    benchmark's digests and checks).  Read :meth:`seconds` at the end of the
    repetition, once the probes after the last segment have run.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self.segments: list[tuple[float, float]] = []
        self._start: float | None = None

    def resume(self) -> None:
        self._start = time.perf_counter()

    def pause(self) -> None:
        self.segments.append((self._start, time.perf_counter()))
        self._start = None

    def probe(self, repeat: int = 1) -> None:
        """Pause, probe the host, resume."""
        self.pause()
        self._clock.probe(repeat)
        self.resume()

    def raw_seconds(self) -> float:
        return sum(end - start for start, end in self.segments)

    def seconds(self) -> float:
        return sum(self._clock.scaled(start, end) for start, end in self.segments)
