"""Fixed reference work that measures how fast the machine runs right now.

A machine that shares its cores with other tenants can slow down by up to
1.7 times for minutes at a time, alike for every operation.
A time t is therefore reported as t * R0 / r, with r the time of a
reference taken in the same minutes and R0 (KERNEL_S or PROCESS_S) its time
where the bounds were set: the time t would have taken at that speed.  The
constants only fix the scale; a change to torifano does not move the
references, which import nothing from it.

``kernel_s`` is a few milliseconds of in-process work like the in-process
workloads': exact Fraction elimination and a Python float loop.  It is
short enough to run before every operation, so that its times sample the
same moments as the operations'.  It leaves numpy out, so that it loads
nothing into the worker that torifano might not.
``process_s`` is a fresh interpreter that imports numpy, most of what a
cold torifano process does before its command runs.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import math
import time
from fractions import Fraction

# Times of the two references on the 2-core machine where the bounds were
# set, in CPU seconds.
KERNEL_S = 0.0024
PROCESS_S = 0.17

_N = 8
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + 9 * (i == j) for j in range(_N)]
           for i in range(_N)]


def kernel_s():
    """CPU seconds of one pass of the in-process reference work."""
    start = time.process_time()
    m = [row[:] for row in _MATRIX]
    for k in range(_N):
        for i in range(k + 1, _N):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    x = 0.0
    for i in range(4_000):
        x += math.exp(-i * 1e-4) * (i * 0.5) ** 0.5
    return time.process_time() - start


def process_s():
    """CPU seconds of one fresh interpreter that imports numpy, to its exit."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
