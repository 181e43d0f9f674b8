"""Phase timing, corrected for the machine's speed while the phase ran.

The host this benchmark was built on changes speed by tens of percent from
one second to the next.  Other tenants share its cores and caches, and a
fixed 20 s loop varied by 30% between windows.  A yardstick timed before or
after a run does not track that: the correlation was about zero.  A
yardstick timed *during* the run does.

:class:`PhaseClock` interrupts the process every :data:`INTERVAL` seconds
(``SIGALRM``) and times a fixed chunk of a reference computation: a small
discrete-event loop with the simulator's instruction mix, run with the
garbage collector paused.  It uses only the standard library and nothing
from ``src/``, so a change to the program cannot move the yardstick.  A
phase's reported seconds are its host seconds minus the time spent in
chunks, times ``NOMINAL_CHUNK_S / mean(chunk time during the phase)``.  The
result is host seconds at the reference machine speed.  On seven identical
``serve-exact-cold`` runs in one process, the coefficient of variation was
0.129 for the raw times and 0.019 for the corrected ones.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from typing import Callable, Dict, List, Optional

#: seconds between two reference chunks
INTERVAL = 0.05
#: events one reference chunk simulates
CHUNK_EVENTS = 2500
#: the chunk time every reported time is rescaled to: about the typical
#: chunk time inside a workload on a 2-core x86 VM at 2.1 GHz, where it
#: swings between 2.3 and 4 ms
NOMINAL_CHUNK_S = 0.003


class _Channel:
    __slots__ = ("busy_until", "tokens")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.tokens: list = []


def reference_chunk(events: int = CHUNK_EVENTS) -> float:
    """A fixed discrete-event loop: heap, attribute and dict work."""
    rng = random.Random(20260101)
    channels = {i: _Channel() for i in range(64)}
    heap = [(rng.random(), i) for i in range(64)]
    heapq.heapify(heap)
    total = 0.0
    for step in range(events):
        now, index = heapq.heappop(heap)
        channel = channels[index]
        channel.tokens.append((now, step))
        if len(channel.tokens) > 8:
            channel.tokens = sorted(channel.tokens)[-4:]
        channel.busy_until = max(channel.busy_until, now) + rng.random()
        total += channel.busy_until - now
        heapq.heappush(heap, (channel.busy_until, (index * 31 + step) % 64))
    return total


class PhaseClock:
    """Times named, consecutive phases of one process, with the correction.

    ``t0`` is the wall-clock time at which the process was started, so the
    first phase (``"start"``) includes interpreter start-up.  ``on_phase``
    is called with each new phase name; ``on_chunk`` with each chunk's
    duration (the tracer removes chunk time from the span it interrupted).
    """

    def __init__(self, t0: float,
                 on_phase: Optional[Callable[[str], None]] = None,
                 on_chunk: Optional[Callable[[float], None]] = None) -> None:
        self.on_phase = on_phase
        self.on_chunk = on_chunk
        self.phase = "start"
        self._started = time.perf_counter() - (time.time() - t0)
        self._chunks: Dict[str, List[float]] = {"start": []}
        self.raw_s: Dict[str, float] = {}
        # let the interpreter specialize the loop before it is timed
        reference_chunk(200)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_chunk()
        spent = time.perf_counter() - start
        if collecting:
            gc.enable()
        self._chunks[self.phase].append(spent)
        if self.on_chunk is not None:
            self.on_chunk(spent)
        # one-shot re-arm: a chunk never interrupts another one
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def enter(self, phase: str) -> None:
        """End the current phase and start ``phase``."""
        now = time.perf_counter()
        self.raw_s[self.phase] = now - self._started
        self._started = now
        self.phase = phase
        self._chunks[phase] = []
        if self.on_phase is not None:
            self.on_phase(phase)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.enter("stopped")

    def speed(self, phase: str) -> float:
        """Reference speed over the machine's speed during ``phase``.

        A phase too short to hold a chunk borrows the mean of all chunks.
        """
        chunks = self._chunks[phase] or [c for cs in self._chunks.values()
                                         for c in cs]
        return NOMINAL_CHUNK_S / statistics.mean(chunks)

    def seconds(self, phase: str, corrected: bool = True) -> float:
        """``phase``'s host seconds without chunks, at reference speed
        unless ``corrected`` is false."""
        work = self.raw_s[phase] - sum(self._chunks[phase])
        return work * self.speed(phase) if corrected else work
