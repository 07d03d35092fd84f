"""Host speed, measured next to the program so its drift can be divided out.

The benchmark runs on a few cores of a shared host, whose speed drifts
by 20-40% over tens of seconds as other tenants come and go.  The
program's times follow that drift.  So each run also times a fixed
piece of reference work, interleaved with the measured units, and
reports its times at the reference speed: each raw time is scaled by
``REFERENCE_S / mean reference time``.  On a host whose drift is
common to both, the ratio is steady where the raw time is not.

The reference is pure Python and shares no code with the program, so
a change to the program cannot move it.  It allocates only ints and
strings and a dict holding only those, which the garbage collector
does not track: it never triggers a collection, so its time does not
depend on how much the program keeps alive.
"""

from __future__ import annotations

import random
import statistics
import time

#: The reference work's time on an idle 2.1 GHz Xeon (2 vCPUs, Python
#: 3.11): the speed that scaled times are reported at.
REFERENCE_S = 0.15
#: The reference runs for this share of the measured time.
REFERENCE_SHARE = 0.2
REFERENCE_KEYS = 100_000


def reference_work() -> int:
    """A fixed hash-table workload: build, sort, look up every key."""
    rng = random.Random(7)
    keys = [rng.getrandbits(40) for _ in range(REFERENCE_KEYS)]
    table = {key: str(key) for key in keys}
    keys.sort()
    total = 0
    for _ in range(2):
        for key in keys:
            total += len(table[key])
    return total


class HostProbe:
    """Times the reference work between measured units.

    ``between(elapsed)`` is called after each measured unit.  It runs
    the reference whenever the time owed to it, ``REFERENCE_SHARE`` of
    the measured time, reaches one reference run, so its samples
    spread over the run as the units do.
    """

    def __init__(self):
        self.times = []
        self.owed = 0.0

    def run(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.times.append(time.perf_counter() - t0)

    def between(self, elapsed: float) -> None:
        self.owed += REFERENCE_SHARE * elapsed
        while not self.times or self.owed >= self.times[-1]:
            self.run()
            self.owed -= self.times[-1]

    @property
    def scale(self) -> float:
        """Factor from this run's wall time to reference-speed time."""
        return REFERENCE_S / statistics.fmean(self.times)
