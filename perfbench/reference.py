"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark's host is a few virtual CPUs of a shared machine whose speed
swings by about 1.5x within seconds, as neighbours come and go. Op times are
therefore reported in units of this kernel, timed just before and just after
each op: the swing moves both alike and cancels out of their ratio, while a
change to eqkd moves only the op. The kernel uses numpy and the interpreter
only, never eqkd, so no change to the program can move it.

Its three parts mirror what the workloads spend time on: interpreter
bytecode, many small numpy calls with fresh generators, and passes over
arrays far larger than L2. The arrays are 8 MB, allocated once; the kernel
runs only after the process's peak memory is read.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_SMALL = 2048
_LARGE = 8 * 2**20
# The nominal time of one kernel run. Set-up time must be reported in seconds;
# it is reported as its ratio to the run's median kernel time, times this.
REFERENCE_SECONDS = 0.020


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 256, _LARGE, dtype=np.uint8)
        self._b = rng.integers(0, 256, _LARGE, dtype=np.uint8)

    def run(self) -> int:
        acc = {}
        for i in range(30_000):
            acc[i & 127] = acc.get(i & 127, 0) + i
        total = len(acc)
        for j in range(150):
            bits = np.random.default_rng(j).random(_SMALL) < 0.5
            total += int(np.flatnonzero(np.unpackbits(np.packbits(bits))).size)
        for _ in range(2):
            total += int(np.count_nonzero(self._a ^ self._b))
        return total

    def seconds(self) -> float:
        t0 = perf_counter()
        self.run()
        return perf_counter() - t0
