"""Timings rescaled to a fixed machine speed.

On a host shared with other tenants the speed of one core drifts by tens
of percent within seconds, and process CPU time drifts with it, so raw
times of the same code spread wider than any useful regression bound.
The benchmark therefore runs a fixed kernel (fraction-free elimination on
fixed small integer matrices, the kind of work the package does most)
from a SIGALRM handler every INTERVAL_S of wall time while it times
commands.  The kernel's chunk durations sample the machine's speed
uniformly in time, so for a span of raw time W during which chunks of
durations d_i ran, W * mean(REFERENCE_CHUNK_S / d_i) is the time the span
would have taken at the reference speed.  The time spent in the handler is
left out of W.  A change to the package does not touch the kernel, so a
slower package still reads slower by its full share.
"""

from __future__ import annotations

import gc
import random
import signal
from statistics import mean
from time import perf_counter
from typing import List, Sequence

#: Seconds of wall time between two kernel chunks.
INTERVAL_S = 0.01
#: Median chunk duration on an idle 2-vCPU Intel Xeon VM (2.1 GHz),
#: CPython 3.11; the unit the rescaled times are given in.
REFERENCE_CHUNK_S = 2.3e-4

_rng = random.Random(7)
_MATRICES = [[[_rng.randint(-2, 2) for _ in range(12)] for _ in range(12)] for _ in range(2)]


def _rank(matrix: Sequence[Sequence[int]]) -> int:
    m = [list(row) for row in matrix]
    cols, prev, row = len(m[0]), 1, 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        lead = m[row][col]
        for r in range(row + 1, len(m)):
            factor = m[r][col]
            for c in range(col + 1, cols):
                m[r][c] = (m[r][c] * lead - factor * m[row][c]) // prev
            m[r][col] = 0
        prev, row = lead, row + 1
        if row == len(m):
            break
    return row


def kernel_chunk() -> float:
    """Run the kernel once; its duration in seconds.  The garbage collector
    is held off so that the package's heap does not slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen = {}
        for matrix in _MATRICES:
            rank = _rank(matrix)
            for i, row in enumerate(matrix):
                seen[tuple(row)] = (i, rank)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(chunks: Sequence[float]) -> float:
    """Mean speed relative to the reference over these chunk durations."""
    return mean(REFERENCE_CHUNK_S / d for d in chunks)


def burst(n: int = 40) -> List[float]:
    """n chunks back to back, for spans the handler cannot sample."""
    return [kernel_chunk() for _ in range(n)]


class Sampler:
    """While active, runs a kernel chunk every INTERVAL_S of wall time.

    ``busy`` is the handler's total time so far and ``chunks`` the chunk
    durations; a span reads both before and after, takes the difference
    of ``busy`` out of its raw time and rescales by the speed of the
    chunks that ran within it.
    """

    def __init__(self) -> None:
        self.busy = 0.0
        self.chunks: List[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.chunks.append(kernel_chunk())
        self.busy += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
