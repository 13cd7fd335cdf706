"""Host speed, sampled on the benchmark's own CPU while it runs.

On a shared virtual machine the speed of a vCPU drifts.  On the 2-vCPU
VM this benchmark was written on, the same suite-cold work took from
11 to 18 s within minutes, in slow phases lasting a minute or more, and
plain wall time moved by up to 44% from one set of runs to the next;
probes taken between the parts of a run tracked this badly (their
slowdowns were up to twice the work's).

So a run pins itself and every process it starts to one CPU
(:func:`pin`), and a sampler process pinned there too wakes every
:data:`INTERVAL_S` seconds and runs a fixed chunk of interpreter work
(integer arithmetic, dict updates, small tuples and strings, a sort)
with its garbage collector off, recording the chunk's *CPU* time: how
fast the CPU ran it, whoever else was waiting.  On that VM the mean
chunk time during a suite round correlated 0.98 with the round's wall
time, and dividing one by the other cut the spread of eighteen rounds
from 12% to 3% (coefficient of variation).  The sampler takes under
1% of the CPU.

A span of host seconds is reported in *reference seconds*: times
``REFERENCE_S`` over the mean chunk time sampled from :data:`PAD_S`
before it to :data:`PAD_S` after it, the time the work would have taken
on a CPU that runs one chunk in :data:`REFERENCE_S`.

    speed = HostSpeed(path)        # after pin()
    t0 = time.monotonic(); work(); t1 = time.monotonic()
    speed.stop()
    seconds = (t1 - t0) * speed.factor(t0, t1)

Run as a script, this file is the sampler:
``python3 hostspeed.py SAMPLES_FILE`` samples until its standard input
closes, one ``<time.monotonic()> <chunk CPU seconds>`` line each.
"""

from __future__ import annotations

import gc
import os
import select
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate
from pathlib import Path

INTERVAL_S = 0.2
#: CPU seconds one chunk takes at reference speed: about its time on
#: the VM above in a calm minute.
REFERENCE_S = 0.0012
PAD_S = 1.0


def pin() -> None:
    """Pin this process (and so every process it starts from now on)
    to the lowest-numbered CPU it may use.  Where that is not allowed,
    the run goes on unpinned, and says so."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as error:
        print(f"warning: cannot pin to one CPU ({error}); host-speed "
              f"samples may come from another CPU than the work",
              file=sys.stderr)


def _chunk() -> int:
    table: dict = {}
    total = 0
    for i in range(4000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        total += i * i % 97
    pairs = [(i % 61, str(i)) for i in range(1000)]
    pairs.sort()
    return total + len(pairs)


def sample(path: Path) -> None:
    """The sampler's loop (see the module docstring)."""
    gc.disable()
    _chunk()  # warm up the code and the allocator
    with open(path, "w") as out:
        while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            stamp = time.monotonic()
            start = time.thread_time()
            _chunk()
            out.write(f"{stamp!r} {time.thread_time() - start!r}\n")
            out.flush()


class HostSpeed:
    def __init__(self, path: Path):
        self.path = path
        self._proc = subprocess.Popen([sys.executable, __file__, str(path)],
                                      stdin=subprocess.PIPE)
        self._stamps: list = []
        self._sums: list = [0.0]

    def stop(self) -> None:
        """Stop the sampler, wait for it, and load its samples."""
        self._proc.stdin.close()
        self._proc.wait()
        rows = [line.split() for line in self.path.read_text().splitlines()]
        self._stamps = [float(stamp) for stamp, __ in rows]
        self._sums = [0.0, *accumulate(float(cost) for __, cost in rows)]

    def factor(self, start: float, end: float) -> float:
        """Host seconds -> reference seconds, for the span from
        ``start`` to ``end`` (``time.monotonic()`` values)."""
        lo = bisect_left(self._stamps, start - PAD_S)
        hi = bisect_right(self._stamps, end + PAD_S)
        if hi <= lo:
            raise RuntimeError(f"no host-speed sample near {start:.1f} s "
                               f"to {end:.1f} s")
        return REFERENCE_S * (hi - lo) / (self._sums[hi] - self._sums[lo])

    def samples(self) -> int:
        """How many samples :meth:`stop` loaded."""
        return len(self._stamps)


if __name__ == "__main__":
    sample(Path(sys.argv[1]))
