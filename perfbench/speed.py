"""The machine's speed during a run, and times scaled by it.

The benchmark runs on shared machines whose speed for the same Python code
drifts by ±25% over seconds to minutes.  So the speed is sampled with a
short fixed loop, which uses no pig code, around and during every timed
operation: BLOCK loops between one operation and the next, and one loop
every PERIOD seconds while an operation runs, by a timer signal, with the
loop's own time taken out of the operation's.  The operation's time is
then scaled by UNIT_S over the mean loop time: the time it would have
taken on a machine that runs the loop in UNIT_S seconds.  A change to pig
moves the scaled times exactly as it moves the raw ones; the machine's
drift, which moves the loop too, mostly cancels.
"""

from __future__ import annotations

import gc
import signal
import time

# Seconds one loop takes on a 2-vCPU KVM guest (Intel Xeon) at its usual
# speed; it only sets the scale of the reported times.
UNIT_S = 0.0011
BLOCK = 20
PERIOD = 0.1


def unit() -> float:
    """Time one pass of a fixed loop: dict, set and list work like pig's,
    then integer arithmetic.  On a shared machine the first slows down
    more than pig does and the second about as much; their sum tracks pig
    best of the loops tried.  The garbage collector is held off, so that
    the loop never pays for collecting pig's objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    adj: dict[int, set[int]] = {}
    for i in range(1200):
        adj.setdefault(i % 150, set()).add((i * 7) % 149)
    pairs = sorted((v, u) for u, vs in adj.items() for v in vs if v in adj)
    seen: dict[int, int] = {}
    for v, u in pairs:
        seen[u] = seen.get(u, 0) + v
    x = 0
    for i in range(7_000):
        x = (x * 31 + i) & 0xFFFF
    t = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return t


class Scaled:
    """Times operations and scales each by the loops around and during it."""

    def __init__(self) -> None:
        self.loops = 0
        self._before = self._block()
        self._during: list[float] = []
        signal.signal(signal.SIGALRM, lambda *_: self._during.append(unit()))

    def _block(self) -> list[float]:
        block = [unit() for _ in range(BLOCK)]
        self.loops += BLOCK
        return block

    def run(self, dest: list[float], fn, *args):
        """Call ``fn(*args)``; append its scaled time to ``dest`` and return
        its result and its raw time."""
        self._during = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0 - sum(self._during)
        after = self._block()
        loops = self._before + self._during + after
        self.loops += len(self._during)
        dest.append(seconds * UNIT_S * len(loops) / sum(loops))
        self._before = after
        return out, seconds
