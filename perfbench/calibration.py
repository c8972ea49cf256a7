"""Host-speed calibration, so that timings stay comparable on a shared host.

On a small VM shared with other tenants the same code can run 1.5 to 2 times
slower for tens of seconds at a time. Measured on a 2-vCPU KVM guest (Intel
Xeon, 105 MiB L3) with no steal time reported: a fixed Python loop drifted
from 1.2 to 2.0 ms, and an 18-qubit transpose copy into a fresh array from
3.2 to 6.1 ms, within one minute. Medians over a run cannot remove drift
that slow.

So the benchmark times fixed calibration kernels before every request and
after the last one. They are the benchmark's own code, never call sharq and
take no memory from the allocator whose state the program leaves behind, so a
change to the program cannot move them. A request's wall time multiplied by
``scale`` (the reference kernel time over the kernel time measured around the
request) is its time at the reference host's speed. Both the raw and the
scaled figures are reported. ``scale`` is the geometric mean over five
kernels: an interpreter loop, small numpy calls, one 4 MiB copy timed twice,
into a reused buffer (bandwidth) and into freshly mapped pages (page faults
too), and a 4 MiB gather through a fixed random permutation (cache and TLB
misses, as in the U_f oracle and axis moves). Within a run, page-fault cost
tracked the per-request times of ``arith`` and ``shots`` best (correlation
0.68 and 0.85, against 0.27 and 0.64 for the reused buffer).

Each kernel's time is the mean of its repeats, not the best: a neighbour
that takes the core or the cache for part of the time slows the program for
that share of the time, and the best of three hides it. Over 3-4 minute runs
on the reference host, the mean of the five kernels left less of the
per-request variation unexplained than the best of the first four on every
workload (residual log-SD 0.068 against 0.077 for factor quantum steps, 0.130
against 0.134 for shots rounds, 0.052 against 0.068 for arith modular adds).

Set-up (process start and imports) does not follow these kernels: it reads
and maps files. Its reference is the ``import numpy`` that each set-up child
makes before it imports sharq, timed in the same process a moment earlier;
see ``setup_scale``.
"""
from __future__ import annotations

import mmap
import time

import numpy as np

PYTHON_LOOP = 20_000
SMALL_CALLS = 300
WIDTH = 18  # the 4 MiB state of the factor and arith workloads
REPEATS = 3
GATHER_SEED = 2009

# Kernel times on the reference host (the 2-vCPU Xeon above) in a quiet spell:
# interpreter loop, small numpy calls, 4 MiB transpose copy into a reused
# buffer and into fresh pages, 4 MiB permuted gather.
REFERENCE_S = (1.7e-3, 1.3e-3, 0.6e-3, 5.0e-3, 4.3e-3)
# ``import numpy`` in a fresh interpreter on the reference host, quiet spell.
NUMPY_IMPORT_S = 0.065


class Calibration:
    """Interpreter, small-call, memory, page-fault and gather speed, timed between requests."""

    def __init__(self):
        self._state = (np.arange(1 << WIDTH) * (1 + 1j)).reshape((2,) * WIDTH)
        order = [a for a in range(WIDTH) if a != WIDTH // 2] + [WIDTH // 2]
        self._moved = self._state.transpose(order)
        self._buffer = np.empty_like(self._moved)
        self._small = np.eye(8, dtype=complex)
        self._flat = self._state.reshape(-1)
        self._permutation = np.random.default_rng(GATHER_SEED).permutation(self._flat.size)
        self._gathered = np.empty_like(self._flat)
        self.spent_s = 0.0

    @staticmethod
    def _python() -> float:
        began = time.perf_counter()
        total = 0
        for i in range(PYTHON_LOOP):
            total += i * i
        return time.perf_counter() - began

    def _small_calls(self) -> float:
        # Per-call numpy overhead on tiny arrays, as in 1- to 3-qubit gates and basis tracing.
        began = time.perf_counter()
        for i in range(SMALL_CALLS):
            int(np.argmax(np.abs(self._small[:, i & 7])))
        return time.perf_counter() - began

    def _copy(self) -> float:
        # The move-one-axis-last copy that gate application makes of the state,
        # into the same buffer every time: memory bandwidth alone.
        began = time.perf_counter()
        np.copyto(self._buffer, self._moved)
        return time.perf_counter() - began

    def _fresh_pages(self) -> float:
        # The same copy into a fresh anonymous mapping rather than a malloc'd
        # array: page faults as well.
        began = time.perf_counter()
        with mmap.mmap(-1, self._moved.nbytes) as pages:
            target = np.frombuffer(pages, dtype=self._moved.dtype).reshape(self._moved.shape)
            np.copyto(target, self._moved)
            del target  # the mapping cannot close while a view exports it
        return time.perf_counter() - began

    def _gather(self) -> float:
        # A permuted read of the whole state into the same buffer every time.
        began = time.perf_counter()
        np.take(self._flat, self._permutation, out=self._gathered)
        return time.perf_counter() - began

    def measure(self) -> tuple[float, ...]:
        """Mean seconds of each kernel over its repeats, now."""
        began = time.perf_counter()
        kernels = (self._python, self._small_calls, self._copy, self._fresh_pages, self._gather)
        times = tuple(sum(kernel() for _ in range(REPEATS)) / REPEATS for kernel in kernels)
        self.spent_s += time.perf_counter() - began
        return times

    @staticmethod
    def scale(before: tuple[float, ...], after: tuple[float, ...]) -> float:
        """Factor that brings a wall time measured between two kernel runs to
        reference speed: the geometric mean of the kernels' speed ratios."""
        ratio = 1.0
        for reference, a, b in zip(REFERENCE_S, before, after):
            ratio *= reference / ((a + b) / 2)
        return ratio ** (1 / len(REFERENCE_S))


def setup_scale(numpy_import_s: float) -> float:
    """Factor that brings one set-up to reference speed, from the time its
    own process took to import numpy (which sharq cannot change)."""
    return NUMPY_IMPORT_S / numpy_import_s
