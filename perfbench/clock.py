"""Timing at a reference machine speed.

On a machine whose cores also run other tenants' work, how fast Python
runs can change by up to 2x within a minute (measured on a 2-core x86-64
VM).  Every timed call is therefore bracketed by a fixed reference
loop, and its seconds are rescaled to a machine that runs that loop in
REFERENCE_SECONDS: a call that took t seconds while the loop took r
seconds counts as t * REFERENCE_SECONDS / r.  A change to ergmkit moves
t and leaves r alone; a change in machine load moves both.
"""

import random
import statistics
import time

# The reference loop's time on an unloaded core of the machine the
# benchmark was defined on (2-core x86-64 VM, CPython 3.11).
REFERENCE_SECONDS = 0.0065


def reference_seconds():
    """Time of a fixed pure-Python loop (sets, dicts, a seeded RNG),
    median of three: how fast this machine runs Python right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        rng, seen, counts = random.Random(1), set(), {}
        for _ in range(10000):
            x = rng.randrange(1000)
            if x in seen:
                seen.discard(x)
            else:
                seen.add(x)
            counts[x] = counts.get(x, 0) + len(seen)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """Times calls one at a time, with the reference loop between them.

    ``parts`` holds, per call, its raw seconds and the mean of the
    reference times measured right before and right after it.
    """

    def __init__(self):
        self.parts = []
        self._ref = reference_seconds()

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        ref = reference_seconds()
        self.parts.append((seconds, (self._ref + ref) / 2))
        self._ref = ref
        return result

    def scaled(self, parts=None):
        return sum(seconds * REFERENCE_SECONDS / ref
                   for seconds, ref in (self.parts if parts is None else parts))
