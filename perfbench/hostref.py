"""Host speed reference that the benchmark's timings are scaled by.

The benchmark runs on shared VMs.  There the processor's speed drifts by
up to half over seconds to minutes, as neighbours come and go.  Every
timing drifts with it, so two runs of the same code can differ by more
than a regression bound.  A fixed piece of reference work is timed
alongside each measurement.  It is an interpreter loop plus small numpy
array calls, the same mix of work as lobwave's own.  Each timing is then
scaled by NOMINAL_S / reference time, which gives what it would be on a
host where the reference takes NOMINAL_S.  The reference runs no lobwave
code, so a change to lobwave moves the scaled timings in full.

Both are CPU times of the calling thread.  On these VMs wall time also
counts the bursts in which the hypervisor takes the virtual CPU away (up
to 70 ms at a time), and thread CPU time leaves them out.  So does it
leave out the helper threads numpy's BLAS starts on import, which spin
on the other CPU and would inflate the process's CPU time.
"""

from __future__ import annotations

import time

import numpy as np

LOOP = 40_000
ARRAY_CALLS = 300
X = np.linspace(0.0, 1.0, 64)
NOMINAL_S = 5e-3


def seconds():
    """CPU seconds the fixed reference work takes on this host right now."""
    t0 = time.thread_time()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    for _ in range(ARRAY_CALLS):
        np.exp(0.5 * X) * np.sin(X)
    return time.thread_time() - t0
