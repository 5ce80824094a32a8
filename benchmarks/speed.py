"""The host's speed, measured beside the ops with a fixed pure-Python burst.

The host is shared, and its speed swings by up to half within seconds
(``NOTES.md``, Machine). Op times follow it, so the runner measures the speed
while each op runs and scales the op's time to the speed at which one burst
takes ``REFERENCE_S``:

    scaled time = measured time * mean(REFERENCE_S / burst, over the bursts beside the op)

Work done in a stretch of time is proportional to the speed then, and a
burst's time to the reciprocal of that speed, so the mean of the reciprocals
is the right average for bursts spread evenly over the op.

The burst does the kind of work the engine does (small objects, tuples,
frozensets, dict lookups, method calls) but never calls ``logag``, so a change
to the engine cannot move it. It runs with the garbage collector paused, so
the heap that an op process has built up does not change its cost.

``Probe`` times a burst every ``PERIOD_S`` on a second thread while one long op
runs. The burst holds the interpreter lock, so the op waits meanwhile; the
probe's own time is taken out of the op's time. Short ops are measured by
calling ``burst()`` between them instead.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

REFERENCE_S = 0.002
LOOP = 1500
PERIOD_S = 0.05


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


def burst() -> float:
    """Seconds that one pass of the fixed loop takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(LOOP):
            p = _Pair(i % 97, i % 89)
            key = frozenset((p.key(), i % 13, (p.b, p.a)))
            seen[key] = seen.get(key, 0) + 1
            if len(seen) > 200:  # keep the burst's memory small
                seen.clear()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def factor(bursts: list[float]) -> float:
    """The factor that turns times measured beside ``bursts`` into reference-speed times."""
    return statistics.fmean(REFERENCE_S / b for b in bursts)


class Probe:
    """``with Probe() as probe:`` times a burst every ``PERIOD_S`` until the block ends.

    ``held_s`` is the time the bursts held the interpreter inside the block.
    """

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self.held_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.bursts.append(burst())

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.held_s = sum(self.bursts)
        if not self.bursts:  # an op shorter than one period
            self.bursts.append(burst())
