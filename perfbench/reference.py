"""Reference kernels that measure how fast the host runs a kind of work
while a pass of a workload runs.

On a shared virtual machine the same pass of a workload runs up to about
1.8 times slower while other tenants load the host, in phases that last
from seconds to many minutes.  A fixed piece of work of the same kind as
the workload's hot loop slows by about the same factor.  ``HostSpeed``
times such a kernel on a wall-clock timer during the pass, so the samples
see the same phases as the pass; dividing the pass's own time by their
slowdown gives its time at the kernel's nominal speed.  Each sample is
the second of two runs back to back, so the cache state the pass leaves
does not time it.

Two kinds, because they slow differently under host load:

- ``python``: heap, dict and attribute work in the interpreter, like the
  per-RAO loop of ``ra_sim.run`` (slows about 1.7 times);
- ``numpy``: a FCFS recursion over 200,000-element arrays, like
  ``backhaul_sim.run`` (slows about 1.3 times).

Neither kernel allocates arrays or container objects, so the heap the
program leaves behind neither times them nor is changed by them.

``NOMINAL_S`` is each kernel's uncontended time on the machine the README
describes: about the fastest of thousands of samples.  It only sets the
scale of the corrected times, which then read as seconds on that machine
at its uncontended speed.
"""
from __future__ import annotations

import contextlib
import heapq
import signal
import time

import numpy as np

NOMINAL_S = {"python": 1.9e-3, "numpy": 2.5e-3}
TICK_S = 0.1                  # wall time between two kernel samples
TRIM = 0.1                    # share dropped at each end before averaging


class _Item:
    __slots__ = ("key", "rank")

    def __init__(self, key, rank):
        self.key, self.rank = key, rank


_KEYS = [(i * 7919) % 1000 for i in range(4000)]
_ITEMS = [_Item(k, 0) for k in _KEYS]
_HEAP: list = []
_COUNTS = dict.fromkeys(range(1000), 0)

_RNG = np.random.default_rng(0x5EED)
_ARRIVALS = np.cumsum(_RNG.exponential(1.25, 200_000))
_SERVICES = _RNG.exponential(1.0, 200_000)
_S_CUM = np.empty_like(_SERVICES)
_DEPARTURES = np.empty_like(_SERVICES)


def _python_kernel():
    _HEAP[:] = _KEYS
    heapq.heapify(_HEAP)
    counts = _COUNTS
    while _HEAP:
        counts[heapq.heappop(_HEAP)] += 1
    for item in _ITEMS:
        item.rank = (item.rank + item.key) & 0xFF


def _numpy_kernel():
    # d_i = S_i + max_{j<=i} (a_j - S_{j-1}), in place
    np.cumsum(_SERVICES, out=_S_CUM)
    np.subtract(_S_CUM, _SERVICES, out=_DEPARTURES)
    np.subtract(_ARRIVALS, _DEPARTURES, out=_DEPARTURES)
    np.maximum.accumulate(_DEPARTURES, out=_DEPARTURES)
    np.add(_S_CUM, _DEPARTURES, out=_DEPARTURES)


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


class HostSpeed:
    """Samples of one reference kernel, taken every ``TICK_S`` of wall
    time while a block runs."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.times: list = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()              # refills the caches the pass has taken
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.times.append(t2 - t1)
        self.spent += t2 - t0

    @contextlib.contextmanager
    def sampling(self):
        """Start a fresh set of samples, taken by a SIGALRM handler, which
        Python runs in this thread between two bytecodes of the block."""
        self.times, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_s(self) -> float:
        """Time the kernel took, which the block's own time excludes."""
        return self.spent

    def slowdown(self) -> float:
        """Trimmed mean of the samples over the nominal time.  The block
        integrates the host's speed over its whole length, so the mean,
        not the fastest sample, is the matching statistic; trimming drops
        samples cut by a preemption."""
        t = np.sort(np.asarray(self.times))
        k = int(len(t) * TRIM)
        return float(t[k:len(t) - k].mean()) / NOMINAL_S[self.kind]
