"""Host-speed probe: a fixed pure-Python loop timed every 20 ms of CPU time.

On a shared host the same single-threaded work runs up to 1.5x slower in
some periods than in others, in spans of seconds, and CPU time slows down
with wall time, so neither clock cancels it.  A SIGPROF timer interrupts
the timed work every ``INTERVAL_S`` of process CPU time and times
``LOOP`` iterations of a fixed loop.  The mean probe time over an interval
measures how fast the host ran the interpreter during it: timed work is
reported as ``seconds * REFERENCE_S / mean probe time``, that is, at the
speed where the probe takes ``REFERENCE_S``.  The probes' own time is
subtracted from the work they interrupted; they cost about 1%.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
LOOP = 3000
# Probe time of LOOP iterations on an idle 2.1 GHz x86-64 core with
# CPython 3.11; it fixes the scale of every reported time.
REFERENCE_S = 0.0002


class SpeedProbe:
    """Context manager that samples host speed while it is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def spent(self, a: int, b: int) -> float:
        """Seconds the probes between two marks took."""
        return sum(self.samples[a:b])

    def speed(self, a: int, b: int, margin: int = 0) -> float | None:
        """Host speed relative to the reference over the samples between two
        marks, widened by margin samples on each side; None when unsampled."""
        window = self.samples[max(0, a - margin):b + margin]
        return REFERENCE_S * len(window) / sum(window) if window else None
