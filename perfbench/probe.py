"""A fixed reference workload that measures how fast the host runs now.

The machines this benchmark runs on are shared: the same run of the same
code was measured at 1.5 s and at 2.7 s of set-up within ten minutes,
and the machine's speed changes over seconds to minutes -- within a run
and across runs, so no median inside a run removes it.  The probe times
a fixed piece of pure-Python work that uses the interpreter the way the
simulator does (calls, generators, a heap, dicts and lists) and shares
nothing with the program, so a faster program does not make it faster.

:class:`Sampler` runs a small slice of that work every
:data:`INTERVAL_S` seconds of a measured interval, from a timer signal,
so the speed it reports covers the whole interval.  Host times are then
reported scaled to a nominal host, on which one slice takes
:data:`NOMINAL_S`, and with the slices' own time taken out.
"""

from __future__ import annotations

import heapq
import signal
import time

#: one slice's duration on the nominal host, in seconds.
NOMINAL_S = 0.005

#: seconds of measured time between two slices.
INTERVAL_S = 0.25


def _work() -> int:
    """A tiny event loop: processes that yield delays off a heap."""

    def process(pid: int, state: dict):
        for step in range(40):
            state[pid] = state.get(pid, 0) + step
            yield (pid * 7 + step * 13) % 97 + 1

    heap = []
    state: dict = {}
    for pid in range(200):
        heapq.heappush(heap, (0, pid, process(pid, state)))
    events = 0
    while heap:
        now, pid, gen = heapq.heappop(heap)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        events += 1
        heapq.heappush(heap, (now + delay, pid, gen))
    return events + sum(state.values())


class Sampler:
    """Times a probe slice every :data:`INTERVAL_S` between start and stop.

    The slices run in a ``SIGALRM`` handler, between two bytecodes of
    whatever the process is running; they touch none of its state.
    """

    def __init__(self) -> None:
        #: (start instant, seconds taken) per slice.
        self.slices: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _work()
        self.slices.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def spent(self, begin: float, end: float) -> float:
        """Seconds taken by the slices that started in ``[begin, end)``."""
        return sum(taken for start, taken in self.slices if begin <= start < end)

    @property
    def factor(self) -> float:
        """Nominal-host seconds per second measured here, over the run."""
        return NOMINAL_S * len(self.slices) / sum(taken for _, taken in self.slices)
