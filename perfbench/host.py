"""Host CPU steal, sampled while the benchmark measures.

The benchmark runs on a few virtual CPUs of a shared host.  When the
host is busy with other guests it takes those CPUs away for
milliseconds at a time -- "steal", the eighth field of the ``cpu`` line
of ``/proc/stat`` -- and every request in flight waits meanwhile.  On a
2-vCPU guest, a second with 5% steal raised the median cache-hit
latency by about 40%, and 13% steal over a whole run up to tripled
it.  The program under test does not cause steal, so the benchmark
samples it and takes each timed figure from the least-stolen 15% of
its phase's quarter-second windows (:func:`quiet`).  On that guest
this cut the spread of latency percentiles across seeds by half or
more; in a run where the host stole 30-40% throughout, it still read
about 15-50% high.  Without a readable ``/proc/stat`` every window
reads as quiet and all are kept.
"""

from __future__ import annotations

import bisect
import threading
import time

STAT = "/proc/stat"
#: how often the sampler reads /proc/stat
PERIOD_S = 0.05
#: the nominal width of a window; a phase is cut into whole windows
WINDOW_S = 0.25
#: the least share of windows that :func:`quiet` keeps
KEEP_SHARE = 0.15
#: the least share of set-ups kept: set-ups are few, and setup_s is the
#: median of the kept ones
SETUP_KEEP_SHARE = 0.5


def _read() -> tuple:
    """(steal ticks, busy-or-stolen ticks) of all CPUs so far: every
    tick but the idle and iowait ones."""
    with open(STAT) as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields) - fields[3] - fields[4]


class StealSampler:
    """Reads the host's steal counter every :data:`PERIOD_S` seconds on a
    thread of its own until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list = []     # (perf_counter, steal, busy-or-stolen ticks)
        self._stop = threading.Event()
        self._thread = None
        try:
            _read()
        except (OSError, ValueError, IndexError):
            return
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            now = time.perf_counter()
            self.samples.append((now, *_read()))
            if self._stop.wait(PERIOD_S):
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def fraction(self, start: float, end: float) -> float:
        """Share of the CPU time the guest wanted that the host took,
        between two ``perf_counter`` times (0.0 without samples).  Idle
        time does not count, so a window that asked for more CPU does
        not read as more stolen."""
        times = [s[0] for s in self.samples]
        if len(times) < 2:
            return 0.0
        i = max(0, bisect.bisect_right(times, start) - 1)
        j = min(len(times) - 1, max(i + 1, bisect.bisect_left(times, end)))
        ticks = self.samples[j][2] - self.samples[i][2]
        return (self.samples[j][1] - self.samples[i][1]) / ticks if ticks else 0.0


def windows(duration: float) -> list:
    """``[start, end)`` phase times of the equal windows, about
    :data:`WINDOW_S` wide, that cover ``[0, duration)``."""
    n = max(1, round(duration / WINDOW_S))
    return [(duration * k / n, duration * (k + 1) / n) for k in range(n)]


def quiet(steal: list, share: float = KEEP_SHARE) -> list:
    """Which windows to keep: the ``share`` least stolen (at least one),
    and every other window stolen no more than they were (so on a quiet
    host, all of them)."""
    if not steal:
        return []
    limit = sorted(steal)[max(1, int(share * len(steal))) - 1]
    return [s <= limit for s in steal]


def window_of(t: float, spans: list) -> int:
    """Index of the window of ``spans`` that holds phase time ``t`` >= 0
    (the last one for ``t`` at or past the end)."""
    return min(len(spans) - 1, bisect.bisect_right([s for s, _ in spans], t) - 1)
