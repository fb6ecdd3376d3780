"""Host-speed probe: a fixed kernel, run on demand in its own process.

    python3 perfbench/calibrate.py

Each line read on stdin names one part of the kernel, "python" or
"numpy"; the part is run once and its seconds are written back.  It exits
at end of input.  The "python" part is interpreter work (`Fraction`
arithmetic), the "numpy" part works on an array far larger than the
caches.  The host's slow phases slow the two kinds of code by different
amounts, so each workload is scaled by the part that resembles it.  The
kernel allocates nothing while it runs, and it runs in a process of its
own so that its arrays do not count in the workload's peak RSS.
"""
import sys
import time
from fractions import Fraction

import numpy as np

_BIG = np.random.default_rng(0).standard_normal(2_000_000)
_BUF = np.empty_like(_BIG)


def python_part() -> None:
    for i in range(20000):
        if i % 100 == 0:
            x = Fraction(0)
        x += Fraction(i % 97, i % 89 + 1)


def numpy_part() -> None:
    for _ in range(3):
        np.copyto(_BUF, _BIG)
        _BUF.sort()
        np.exp(_BUF, out=_BUF)
        np.cumsum(_BUF, out=_BUF)


PARTS = {"python": python_part, "numpy": numpy_part}


if __name__ == "__main__":
    for line in sys.stdin:
        part = PARTS[line.strip()]
        t0 = time.perf_counter()
        part()
        print(repr(time.perf_counter() - t0), flush=True)
